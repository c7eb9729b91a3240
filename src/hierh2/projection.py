"""Clustering structure, weighted projection matrices, and QI verification.

The hierarchical constraint set is S = P_u^T S~ P_y for row-orthonormal
projections P_u, P_y built from a cluster partition and weight vectors.
Membership in S is decided by frequency sampling; quadratic invariance
under the plant is checked numerically on random members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (DimensionMismatch, InvalidInput, NoFeasibleWeights,
                     ZeroClusterWeight)
from .linalg import _pbh_rank_deficient, _unstable_modes, unstable_eigenbases
from .plant import GeneralizedPlant
from .statespace import StateSpace, series

__all__ = [
    "ClusterPartition", "WeightVectors", "ProjectionPair",
    "build_projection", "subspace_member",
    "verify_qi", "feasible_weights", "random_stable_statespace",
]

_TEST_FREQS = np.logspace(-3, 3, 20)


def _check_partition(sets, n_items, what):
    seen = []
    for s in sets:
        if len(s) == 0:
            raise InvalidInput(f"{what}: clusters must be non-empty")
        seen.extend(s)
    if sorted(seen) != list(range(n_items)):
        raise InvalidInput(f"{what}: sets must partition 0..{n_items - 1}")


@dataclass(frozen=True)
class ClusterPartition:
    """Partitions of the input, output, and (optionally) subsystem index sets.

    All three share the cluster count r; `subsystem_sets` may be None when a
    designed clustering does not induce a common subsystem grouping.
    """

    input_sets: tuple[tuple[int, ...], ...]
    output_sets: tuple[tuple[int, ...], ...]
    subsystem_sets: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if len(self.input_sets) != len(self.output_sets):
            raise InvalidInput("input and output partitions must share r")
        if self.subsystem_sets is not None and len(self.subsystem_sets) != self.r:
            raise InvalidInput("subsystem partition must share r")
        _check_partition(self.input_sets, self.n_u, "input_sets")
        _check_partition(self.output_sets, self.n_y, "output_sets")
        if self.subsystem_sets is not None:
            _check_partition(self.subsystem_sets, self.n_s, "subsystem_sets")

    @property
    def r(self) -> int:
        return len(self.input_sets)

    @property
    def n_u(self) -> int:
        return sum(len(s) for s in self.input_sets)

    @property
    def n_y(self) -> int:
        return sum(len(s) for s in self.output_sets)

    @property
    def n_s(self) -> int:
        if self.subsystem_sets is None:
            raise InvalidInput("partition has no subsystem sets")
        return sum(len(s) for s in self.subsystem_sets)

    @classmethod
    def from_subsystems(cls, subsystem_sets, plant: GeneralizedPlant) -> "ClusterPartition":
        """Induce input/output sets from a subsystem partition (Def. of clusters)."""
        input_sets, output_sets, sub_sets = [], [], []
        for group in subsystem_sets:
            ins, outs = [], []
            for s in group:
                ins.extend(plant.subsystems[s].inputs)
                outs.extend(plant.subsystems[s].outputs)
            input_sets.append(tuple(sorted(ins)))
            output_sets.append(tuple(sorted(outs)))
            sub_sets.append(tuple(sorted(group)))
        return cls(tuple(input_sets), tuple(output_sets), tuple(sub_sets))

    @classmethod
    def singletons(cls, n_u: int, n_y: int | None = None) -> "ClusterPartition":
        """One cluster per channel; requires n_u == n_y for a square pairing."""
        n_y = n_u if n_y is None else n_y
        if n_u != n_y:
            raise InvalidInput("singleton partition needs n_u == n_y")
        sets = tuple((i,) for i in range(n_u))
        return cls(sets, sets, sets)


@dataclass(frozen=True)
class WeightVectors:
    """Clustering weights; every cluster restriction must be non-zero."""

    w_u: np.ndarray
    w_y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w_u", np.asarray(self.w_u, float).ravel())
        object.__setattr__(self, "w_y", np.asarray(self.w_y, float).ravel())

    @classmethod
    def ones(cls, n_u: int, n_y: int) -> "WeightVectors":
        return cls(np.ones(n_u), np.ones(n_y))


@dataclass(frozen=True)
class ProjectionPair:
    """Row-orthonormal weighted averaging matrices (P_u, P_y).

    Cluster-built pairs share the row count r; the identity pair used by the
    unconstrained design may have differing row counts when n_u != n_y.
    """

    p_u: np.ndarray
    p_y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p_u", np.asarray(self.p_u, float))
        object.__setattr__(self, "p_y", np.asarray(self.p_y, float))

    @classmethod
    def identity(cls, n_u: int, n_y: int) -> "ProjectionPair":
        """The pair (I, I) of an unprojected loop with n_u inputs and n_y
        outputs."""
        return cls(np.eye(n_u), np.eye(n_y))

    @property
    def r(self) -> int:
        return self.p_u.shape[0]

    @property
    def n_u(self) -> int:
        return self.p_u.shape[1]

    @property
    def n_y(self) -> int:
        return self.p_y.shape[1]


def _projection_matrix(sets, w, n_items, what) -> np.ndarray:
    p = np.zeros((len(sets), n_items))
    for i, idx in enumerate(sets):
        idx = list(idx)
        nrm = np.linalg.norm(w[idx])
        if nrm == 0.0:
            raise ZeroClusterWeight(f"{what}: cluster {i} has zero weight restriction")
        p[i, idx] = w[idx] / nrm
    return p


def build_projection(partition: ClusterPartition, weights: WeightVectors) -> ProjectionPair:
    """Assemble P_u, P_y with rows w_[j]/||w_[cluster]||_2 on each cluster's support."""
    if weights.w_u.shape[0] != partition.n_u or weights.w_y.shape[0] != partition.n_y:
        raise DimensionMismatch("weight vectors do not match partition sizes")
    p_u = _projection_matrix(partition.input_sets, weights.w_u, partition.n_u, "P_u")
    p_y = _projection_matrix(partition.output_sets, weights.w_y, partition.n_y, "P_y")
    return ProjectionPair(p_u=p_u, p_y=p_y)


# ---------------------------------------------------------------------------
# Subspace membership and QI
# ---------------------------------------------------------------------------

def subspace_member(k: StateSpace, p: ProjectionPair,
                    tol: Tolerances = DEFAULT_TOLERANCES
                    ) -> tuple[bool, StateSpace | None]:
    """Decide K in S = P_u^T S~ P_y and extract the reduced K~ when true.

    Tests (I - P_u^T P_u) K(jw) and K(jw) (I - P_y^T P_y) at the log-spaced
    frequencies `_TEST_FREQS` plus the feedthrough; on success returns
    K~ = P_u K P_y^T with realization (A_K, B_K P_y^T, P_u C_K, P_u D_K P_y^T),
    which satisfies P_u^T K~ P_y = K.
    """
    if k.n_inputs != p.n_y or k.n_outputs != p.n_u:
        raise DimensionMismatch(
            f"K is {k.n_outputs}x{k.n_inputs}, projections expect {p.n_u}x{p.n_y}")
    qu = np.eye(p.n_u) - p.p_u.T @ p.p_u
    qy = np.eye(p.n_y) - p.p_y.T @ p.p_y
    mats = [k.eval(1j * w) for w in _TEST_FREQS] + [k.d.astype(complex)]
    for g in mats:
        scale = np.linalg.norm(g, "fro")
        if np.linalg.norm(qu @ g, "fro") > tol.membership_rel * scale or \
           np.linalg.norm(g @ qy, "fro") > tol.membership_rel * scale:
            return False, None
    k_tilde = StateSpace(k.a, k.b @ p.p_y.T, p.p_u @ k.c, p.p_u @ k.d @ p.p_y.T)
    return True, k_tilde


def random_stable_statespace(rng, n: int, p: int, m: int,
                             strictly_proper: bool = True) -> StateSpace:
    """Random internally stable realization (spectral abscissa <= -0.2)."""
    a = rng.standard_normal((n, n))
    if n:
        shift = max(np.real(np.linalg.eigvals(a)).max(), 0.0)
        a -= (shift + 0.2 + rng.uniform(0.0, 1.0)) * np.eye(n)
    b = rng.standard_normal((n, m))
    c = rng.standard_normal((p, n))
    d = np.zeros((p, m)) if strictly_proper else rng.standard_normal((p, m))
    return StateSpace(a, b, c, d)


def verify_qi(g22: StateSpace, p: ProjectionPair, samples: int = 10,
              rng=None, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Numerically verify K G22 K stays in S for random members K of S."""
    rng = np.random.default_rng(rng)
    if g22.n_inputs != p.n_u or g22.n_outputs != p.n_y:
        raise DimensionMismatch("G22 dimensions do not match the projections")
    for _ in range(samples):
        k_tilde = random_stable_statespace(rng, n=rng.integers(1, 4), p=p.r, m=p.r)
        k = StateSpace(k_tilde.a, k_tilde.b @ p.p_y, p.p_u.T @ k_tilde.c,
                       p.p_u.T @ k_tilde.d @ p.p_y)
        prod = series(k, g22, k)  # K(s) G22(s) K(s)
        ok, _ = subspace_member(prod, p, tol)
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------------
# Weight feasibility (unstable plants)
# ---------------------------------------------------------------------------

def _projected_pbh_failure(g: GeneralizedPlant, p: ProjectionPair,
                           tol: Tolerances) -> str | None:
    """Message of the first failing PBH test on (A, B2 P_u^T), then on
    (P_y C2, A), at the unstable modes of ``g.spectrum``; None if both pass."""
    unstable = _unstable_modes(g.spectrum, tol)
    if _pbh_rank_deficient(g.a, g.b2 @ p.p_u.T, unstable, tol).any():
        return "(A, B2 P_u^T) is not stabilizable"
    if _pbh_rank_deficient(g.a.T, (p.p_y @ g.c2).T, unstable, tol).any():
        return "(P_y C2, A) is not detectable"
    return None


def _cluster_restrictions_nonzero(w, sets) -> bool:
    return all(np.linalg.norm(w[list(s)]) > 0.0 for s in sets)


def feasible_weights(g: GeneralizedPlant, partition: ClusterPartition,
                     max_tries: int = 50, rng=None,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> WeightVectors:
    """Weight vectors making the projected pair stabilizable/detectable.

    When A has no mode with Re >= -unstable_cut, or all-ones already
    passes, all-ones is returned.  Otherwise candidates are drawn in the
    spans B2' V_L and C2 V_R of the realified unstable left/right
    eigenvectors (:func:`~hierh2.linalg.unstable_eigenbases`); every
    candidate is certified by PBH on (A, B2 P_u^T) and (P_y C2, A) at the
    unstable modes of ``g.spectrum``.
    """
    rng = np.random.default_rng(rng)
    ones = WeightVectors.ones(g.n_u, g.n_y)

    def certify(wv: WeightVectors) -> bool:
        if not (_cluster_restrictions_nonzero(wv.w_u, partition.input_sets)
                and _cluster_restrictions_nonzero(wv.w_y, partition.output_sets)):
            return False
        return _projected_pbh_failure(g, build_projection(partition, wv),
                                      tol) is None

    vl, vr = unstable_eigenbases(g.a, tol)
    if vl.shape[1] == 0 or certify(ones):
        return ones

    # the eigenvector spans pulled back to input/output coordinates
    basis_u = g.b2.T @ vl
    basis_y = g.c2 @ vr
    q = vl.shape[1]
    for _ in range(max_tries):
        v_u = rng.standard_normal(q)
        v_y = rng.standard_normal(q)
        cand = WeightVectors(basis_u @ v_u, basis_y @ v_y)
        if certify(cand):
            return cand
    raise NoFeasibleWeights(
        f"no feasible weights after {max_tries} tries; the partition may be "
        "incompatible with the unstable modes")


def _policy_weights(policy, g, partition, seed, tol) -> WeightVectors:
    """The package's one weight policy: unit weights for ``'ones'``, and
    for ``'eigenspan'`` :func:`feasible_weights` seeded with `seed` under
    the run's tolerances `tol`."""
    if policy == "ones":
        return WeightVectors.ones(g.n_u, g.n_y)
    if policy == "eigenspan":
        return feasible_weights(g, partition, rng=seed, tol=tol)
    raise InvalidInput(f"unknown weight policy {policy!r}")
