"""Optimality-gap quantification and clustering-set design.

J1* is the standard H2 optimum, read off the two-Riccati solution.  The gap
between the hierarchical optimum J2* and J1* is bounded by projection
defects xi_u, xi_y of the spectral-factor gains, weighted by H-infinity
constants; minimizing them over the clustering sets is a weighted k-means
problem on the rows of the embeddings F_hat Phi_u^{1/2} and
L_hat' Phi_y^{1/2}.

The factors solve the model matching over the 2n-state Youla system T, but
T is block triangular, so every one of them is read off the n-state
unconstrained synthesis (X, Y, F2, L2 and the Schur factors of A + B2 F2
and A + L2 C2) and the Youla data (F, L and the factors of A_F, A_L):

* F_hat = [F2 - F, F] and A_Fhat = diag(A + B2 F2, A_L), so Phi_u is two
  n-state Lyapunov blocks;
* L_hat = [-Y12 C2' V^-1; L2 - L] with V = D21 D21' and
  A_F Y12 + Y12 (A + L2 C2)' + B1 B1' - B2 F Y = 0, and
  A_Lhat = [[A_F, -B2 F + L_hat1 C2], [0, A + L2 C2]], so Phi_y is one
  block-triangular Gramian;
* T12 = (A_F, B2, C1 + D12 F, D12), T21 = (A_L, B1 + L D21, C2, D21),
  Wbar_L = (A + B2 F2, B2 F_hat, F2 - F, F_hat) and
  Wbar_R = (A + L2 C2, L2 - L, L_hat C2, L_hat).

The 2n hat-Riccati construction, with the optimizer Q* whose model-matching
value equals J1*, is kept in the tests as the oracle of these formulas.

The bound needs Youla data with projection-structured gains (P_u^T F2,
L2 P_y), over which the constrained problem is the hierarchical one: the
synthesis's own ``youla`` record, which :func:`gap_report` reads.
:func:`evaluate_partition` assembles the whole chain and checks J2* against
the equivalence form, and :func:`monotone_gap_sweep` runs it once per
cluster count on one unconstrained synthesis of the plant.

Every exact loop here, the design-phase reference loop and the equivalence
form alike, is a (control, filter) pair of equations built by
:func:`~hierh2.hamiltonian.build_hamiltonian` and solved by
:func:`~hierh2.synthesis.riccati_loop`, whose loop
:func:`~hierh2.synthesis.youla_data` factors and decides, as it does for
every synthesis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DegenerateData, InvalidInput, ToolkitError
from .hamiltonian import build_hamiltonian
from .linalg import h2_norm, hinf_norm, solve_sylvester, sqrt_psd, symmetrize
from .plant import GeneralizedPlant, lft_lower
from .projection import (ClusterPartition, ProjectionPair, WeightVectors,
                         build_projection)
from .statespace import StateSpace, add, series
from .synthesis import (SynthesisResult, YoulaData, _block_gramian,
                        _observer_closed_loop_h2, riccati_loop,
                        synthesize_hierarchical, synthesize_unconstrained)

__all__ = [
    "SpectralFactors", "GapReport", "GapSweepRow", "spectral_factors",
    "gap_report", "design_clusters", "monotone_gap_sweep",
    "evaluate_partition", "weighted_kmeans", "reference_youla_data",
]


# ---------------------------------------------------------------------------
# Spectral factors
# ---------------------------------------------------------------------------

@dataclass
class SpectralFactors:
    """Factor gains, embeddings and H-infinity weights of the model matching.

    The embeddings F_hat LYAP(A_Fhat, I)^{1/2} and
    L_hat' LYAP(A_Lhat', I)^{1/2} feed both the gap defects and the cluster design; Wbar_L, Wbar_R are
    n-state realizations of the factor weights.  `unconstrained` is the
    synthesis of the plant `g` they are read off, whose h2_value is J1*.
    """

    g: GeneralizedPlant
    fhat: np.ndarray
    lhat: np.ndarray
    embed_u: np.ndarray
    embed_y: np.ndarray
    wbar_l: StateSpace
    wbar_r: StateSpace
    unconstrained: SynthesisResult


def spectral_factors(yd: YoulaData, d12, d21,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralFactors:
    """Spectral factors of the Youla data in n-state blocks.

    Runs ``synthesize_unconstrained(yd.g)`` once and assembles the factors
    by the formulas of the module docstring: one n-state Sylvester equation
    for Y12 and n-state Lyapunov blocks for Phi_u and Phi_y, with no
    Riccati solve beyond the unconstrained pair.  `d12` and `d21` must be
    the plant's.
    """
    g = yd.g
    if not (np.array_equal(d12, g.d12) and np.array_equal(d21, g.d21)):
        raise InvalidInput("d12, d21 differ from the Youla data's plant")
    return _factors(yd, synthesize_unconstrained(g, tol=tol), tol)


def _factors(yd: YoulaData, unc: SynthesisResult,
             tol: Tolerances) -> SpectralFactors:
    """Spectral factors of `yd` read off `unc`, the unconstrained synthesis
    of the Youla data's plant."""
    g = yd.g
    ctrl = unc.youla.f_loop                 # A + B2 F2
    filt = unc.youla.l_loop                 # A + L2 C2
    filt_t = filt.transposed()
    f, l = yd.f, yd.l
    df, dl = unc.youla.f - f, unc.youla.l - l
    fhat = np.hstack([df, f])
    # only the off-diagonal block Y12 of Y_hat = [[., Y12], [Y12', Y]] is new
    y12 = solve_sylvester(yd.f_loop, filt,
                          g.b1 @ g.b1.T - yd.fold_u(g.b2) @ (yd.f2 @ unc.y),
                          tol)
    v_chol = sla.cho_factor(symmetrize(g.d21 @ g.d21.T))
    lhat1 = -sla.cho_solve(v_chol, g.c2 @ y12.T).T
    lhat = np.vstack([lhat1, dl])

    eye = np.eye(g.n)
    # Phi_u = diag(LYAP(A + B2 F2, I), LYAP(A_L, I))
    sqrt_u1 = sqrt_psd(solve_sylvester(ctrl, ctrl, eye, tol), tol)
    sqrt_u2 = sqrt_psd(solve_sylvester(yd.l_loop, yd.l_loop, eye, tol), tol)
    # A_Lhat' in reversed block order is [[(A + L2 C2)', K'], [0, A_F']];
    # with B = I its Q blocks are I, 0, I in any orthonormal bases
    k = lhat1 @ g.c2 - yd.fold_u(g.b2) @ yd.f2
    ctrl_t = yd.f_loop.transposed()
    u1, u2 = filt_t.u, ctrl_t.u
    k_hat = u1.T @ k.T @ u2
    psi11, psi12, psi22 = _block_gramian(
        filt_t, ctrl_t, lambda y: k_hat @ y, eye, np.zeros((g.n, g.n)), eye,
        tol)
    phi_y = np.block([[u2 @ psi22 @ u2.T, u2 @ psi12.T @ u1.T],
                      [u1 @ psi12 @ u2.T, u1 @ psi11 @ u1.T]])
    return SpectralFactors(
        g=g, fhat=fhat, lhat=lhat,
        embed_u=np.hstack([df @ sqrt_u1, f @ sqrt_u2]),
        embed_y=lhat.T @ sqrt_psd(phi_y, tol),
        wbar_l=StateSpace(ctrl.a, g.b2 @ fhat, df, fhat),
        wbar_r=StateSpace(filt.a, dl, lhat @ g.c2, lhat),
        unconstrained=unc)


def model_matching_value(yd: YoulaData, q: StateSpace,
                         tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """||T11 + T12 Q T21||_H2 for a stable parameter Q; at the optimizer Q*
    of the test oracle it is the independent check of the two-Riccati J1*.

    T11 is the closed loop of the plant with ``yd.controller`` (the Youla
    parameter Q = 0), a 2n-state system.
    """
    t11 = lft_lower(yd.g, yd.controller.expand())
    return h2_norm(add(t11, series(yd.t21, q, yd.t12)), tol)


# ---------------------------------------------------------------------------
# Gap report
# ---------------------------------------------------------------------------

@dataclass
class GapReport:
    j1_star: float
    j2_star: float
    xi_u: float
    xi_y: float
    xi: float
    eps1: float
    eps2: float
    bound_rhs: float
    # H2 cost of the equivalence-form controller; set by evaluate_partition
    h2_equivalence: float | None = None

    @property
    def ratio(self) -> float:
        return self.j2_star / self.j1_star


def _range_factor(m: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """(V, w) with m = V diag(w) V' on the range of the symmetric PSD `m` of
    known rank: its `rank` largest eigenpairs; the rest are rounding and are
    dropped."""
    w, v = np.linalg.eigh(symmetrize(m))
    return v[:, -rank:], w[-rank:]


def doubly_projected_controller(g: GeneralizedPlant, p: ProjectionPair,
                                tol: Tolerances = DEFAULT_TOLERANCES) -> YoulaData:
    """Observer loop of the P_u^T P_u / P_y^T P_y-weighted plant.

    The equivalence form of the constrained problem: its
    ``.controller.expand()`` is the hierarchical optimal controller, and its
    loop factors are those of A + B2 F and A + L C2.  The
    projected weights P_u^T P_u D12' D12 P_u^T P_u and
    P_y^T P_y D21 D21' P_y^T P_y have the rank of P_u and P_y; each is
    factored on that range as V diag(w) V' from its own eigendecomposition,
    since the rounding-level eigenvalues of the null space grow with n and
    must not be inverted.  The X equation then has input
    B2 P_u^T P_u V_u and weight diag(w_u), the Y equation the dual input
    (P_y^T P_y C2)' V_y and weight diag(w_y), both built by
    :func:`~hierh2.hamiltonian.build_hamiltonian`, which rejects an
    ill-conditioned weight (:class:`IllConditionedR`).  The loop's pair is
    (V_u', V_y'), so F = V_u F2 = -R^+ (B2 P_u^T P_u)' X.  Nothing of the
    hierarchical synthesis is read: this is the independent check of J2*.
    """
    pu, py = p.p_u.T @ p.p_u, p.p_y.T @ p.p_y
    v_u, w_u = _range_factor(pu @ g.d12.T @ g.d12 @ pu, p.p_u.shape[0])
    v_y, w_y = _range_factor(py @ g.d21 @ g.d21.T @ py, p.p_y.shape[0])
    hs_x = build_hamiltonian(g.a, g.b2 @ pu @ v_u, g.c1, np.diag(w_u), tol)
    hs_y = build_hamiltonian(g.a.T, (py @ g.c2).T @ v_y, g.b1.T, np.diag(w_y),
                             tol)
    return riccati_loop(g, ProjectionPair(v_u.T, v_y.T), hs_x, hs_y, tol)


def gap_report(hier: SynthesisResult, sf: SpectralFactors,
               tol: Tolerances = DEFAULT_TOLERANCES) -> GapReport:
    """Quantify the gap between hierarchical and unconstrained optima.

    J1* is the two-Riccati optimum ``sf.unconstrained.h2_value`` and J2* is
    ``hier.h2_value``.  xi_u, xi_y measure the parts of the factor-gain
    embeddings (``sf.embed_u``, ``sf.embed_y``) outside the ranges of the
    synthesis's projections; eps1, eps2 are the H-infinity weights from
    T12, T21 of ``hier.youla`` and the factor weights of `sf`,
    xi = eps1 xi_u + 2 eps2 xi_y, and bound_rhs = sqrt(J1*^2 + 2 xi J1* + xi^2)
    upper-bounds J2*.  The bound is guaranteed when `sf` is read off
    ``hier.youla`` too (see :func:`evaluate_partition`).  Only the bound is
    computed: ``h2_equivalence`` is left None.
    """
    yd, p = hier.youla, hier.youla.p
    qu = np.eye(p.n_u) - p.p_u.T @ p.p_u
    qy = np.eye(p.n_y) - p.p_y.T @ p.p_y
    xi_u = float(np.linalg.norm(qu @ sf.embed_u, "fro"))
    xi_y = float(np.linalg.norm(qy @ sf.embed_y, "fro"))

    t12_t21 = hinf_norm(yd.t12, tol) * hinf_norm(yd.t21, tol)
    eps1 = t12_t21 * hinf_norm(sf.wbar_r, tol)
    eps2 = t12_t21 * hinf_norm(sf.wbar_l, tol)
    xi = eps1 * xi_u + 2.0 * eps2 * xi_y

    j1 = sf.unconstrained.h2_value
    j2 = hier.h2_value
    bound_rhs = float(np.sqrt(j1 * j1 + 2.0 * xi * j1 + xi * xi))
    return GapReport(j1_star=j1, j2_star=j2, xi_u=xi_u, xi_y=xi_y, xi=float(xi),
                     eps1=float(eps1), eps2=float(eps2), bound_rhs=bound_rhs)


# ---------------------------------------------------------------------------
# Youla-data conveniences
# ---------------------------------------------------------------------------

def reference_youla_data(g: GeneralizedPlant,
                         tol: Tolerances = DEFAULT_TOLERANCES) -> YoulaData:
    """Design-phase Youla data from unit-weight LQR/Kalman gains.

    The optimal H2 gains make the factor gain F_hat vanish identically and
    would feed the clustering step zero rows, so the design phase uses the
    neutral Q = R = I regulator/filter pair and the identity pair, solved
    by :func:`~hierh2.synthesis.riccati_loop` as the exact synthesis solves.
    """
    x_hs = build_hamiltonian(g.a, g.b2, np.eye(g.n), np.eye(g.n_u), tol)
    y_hs = build_hamiltonian(g.a.T, g.c2.T, np.eye(g.n), np.eye(g.n_y), tol)
    return riccati_loop(g, ProjectionPair.identity(g.n_u, g.n_y), x_hs, y_hs,
                        tol)


# evaluate_partition warns when the equivalence-form H2 cost differs from J2*
# by more than _EQUIVALENCE_REL max(1, J2*)
_EQUIVALENCE_REL = 1e-6


def evaluate_partition(g: GeneralizedPlant, partition: ClusterPartition,
                       weights: WeightVectors | None = None,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> GapReport:
    """Full gap pipeline for one partition: projections, the hierarchical
    synthesis with its Youla data, spectral factors, and the gap-bound
    report.

    The H2 cost of the :func:`doubly_projected_controller` loop, by the
    observer separation, is stored as ``h2_equivalence``, and a warning is
    raised when it differs from J2* by more than 1e-6 max(1, J2*)
    (``_EQUIVALENCE_REL``).
    """
    return _evaluate(g, partition, weights,
                     synthesize_unconstrained(g, tol=tol), tol)


def _evaluate(g: GeneralizedPlant, partition: ClusterPartition,
              weights: WeightVectors | None, unc: SynthesisResult,
              tol: Tolerances) -> GapReport:
    """:func:`evaluate_partition` on `unc`, the unconstrained synthesis of
    `g`, which does not depend on the partition."""
    if weights is None:
        weights = WeightVectors.ones(partition.n_u, partition.n_y)
    p = build_projection(partition, weights)
    hier = synthesize_hierarchical(g, p, tol=tol)
    report = gap_report(hier, _factors(hier.youla, unc, tol), tol)
    j2 = report.j2_star
    h2_equiv = _observer_closed_loop_h2(doubly_projected_controller(g, p, tol),
                                        tol)
    if abs(h2_equiv - j2) > _EQUIVALENCE_REL * max(1.0, j2):
        warnings.warn(
            f"equivalence-form controller value {h2_equiv:.9g} differs "
            f"from hierarchical optimum {j2:.9g}")
    report.h2_equivalence = h2_equiv
    return report


# ---------------------------------------------------------------------------
# Weighted k-means
# ---------------------------------------------------------------------------

# Lloyd stops after this many iterations or once the objective falls by no
# more than this fraction of its new value in one iteration
_KMEANS_MAX_ITER = 300
_KMEANS_REL_TOL = 1e-9


def _wcss(x, w, labels, centers):
    d = x - centers[labels]
    return float(np.sum(w * np.einsum("ij,ij->i", d, d)))


def _kmeanspp_seed(x, w, r, rng):
    """k-means++ centres drawn from the rows of positive weight."""
    has_mass = np.flatnonzero(w > 0)
    centers = np.empty((r, x.shape[1]))
    centers[0] = x[rng.choice(x.shape[0], p=w / w.sum())]
    d2 = np.einsum("ij,ij->i", x - centers[0], x - centers[0])
    for i in range(1, r):
        scores = w * d2
        total = scores.sum()
        if total <= 0:
            centers[i] = x[has_mass[rng.integers(has_mass.size)]]
        else:
            centers[i] = x[rng.choice(x.shape[0], p=scores / total)]
        dnew = np.einsum("ij,ij->i", x - centers[i], x - centers[i])
        d2 = np.minimum(d2, dnew)
    return centers


def _lloyd(x, w, r, rng):
    """Lloyd iteration from k-means++ seeds until the objective falls by no
    more than _KMEANS_REL_TOL of its new value in one iteration.  A cluster
    with no row of positive weight is repaired with the farthest such row
    of the highest-inertia cluster that holds two or more, so every centre
    is a weighted mean of positive mass."""
    n = x.shape[0]
    has_mass = w > 0
    centers = _kmeanspp_seed(x, w, r, rng)
    prev = np.inf
    labels = np.zeros(n, int)
    for _ in range(_KMEANS_MAX_ITER):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        for cl in range(r):
            if np.any(has_mass & (labels == cl)):
                continue
            inertia = np.bincount(labels, weights=w * d2[np.arange(n), labels],
                                  minlength=r)
            held = np.bincount(labels[has_mass], minlength=r)
            donor = int(np.argmax(np.where(held > 1, inertia, -1.0)))
            members = np.flatnonzero(has_mass & (labels == donor))
            far = members[np.argmax(d2[members, donor])]
            labels[far] = cl
            centers[cl] = x[far]
        for cl in range(r):
            sel = labels == cl
            centers[cl] = (w[sel, None] * x[sel]).sum(axis=0) / w[sel].sum()
        obj = _wcss(x, w, labels, centers)
        if obj > prev * (1.0 + 1e-12) + 1e-15:
            raise AssertionError(
                f"Lloyd objective increased: {prev:.6e} -> {obj:.6e}")
        # relative to the new value, so the first iteration, from
        # prev = inf, never stops the run
        converged = prev - obj <= _KMEANS_REL_TOL * obj
        prev = obj
        if converged:
            break
    return labels, centers, prev


def weighted_kmeans(x: np.ndarray, weights: np.ndarray, r: int, rng=None,
                    restarts: int = 10):
    """Weighted Lloyd iteration with k-means++ seeding.

    Points are rows of `x` with non-negative masses `weights`; a row of
    weight 0 carries no mass: it is labelled with its nearest centre but
    never seeds, repairs or moves one.  The best of `restarts` independent
    runs (lowest weighted within-cluster sum of squares) is returned as
    (labels, centers, objective); every cluster holds a row of positive
    weight.  The objective is asserted non-increasing across iterations.
    Raises DegenerateData when fewer than r distinct rows have positive
    weight.
    """
    rng = np.random.default_rng(rng)
    x = np.asarray(x, float)
    weights = np.asarray(weights, float).ravel()
    if x.ndim != 2 or weights.shape[0] != x.shape[0]:
        raise InvalidInput("x must be (n, d) with one weight per row")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(weights))
            and np.all(weights >= 0)):
        raise InvalidInput("clustering data must be finite, with weights >= 0")
    if np.unique(x[weights > 0], axis=0).shape[0] < r:
        raise DegenerateData(
            f"fewer than {r} distinct rows of positive weight")
    best = None
    for _ in range(max(restarts, 1)):
        labels, centers, obj = _lloyd(x, weights, r, rng)
        if best is None or obj < best[2]:
            best = (labels, centers, obj)
    return best


def _labels_to_sets(labels, r) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i) for i in np.where(labels == cl)[0])
                 for cl in range(r))


def _align_labels(ref_labels, other_labels, r):
    """Greedy relabeling of `other` to maximize overlap with `ref`."""
    overlap = np.zeros((r, r))
    for a, b in zip(ref_labels, other_labels):
        overlap[b, a] += 1
    mapping = -np.ones(r, int)
    for _ in range(r):
        b, a = np.unravel_index(np.argmax(overlap), overlap.shape)
        mapping[b] = a
        overlap[b, :] = -1
        overlap[:, a] = -1
    return np.array([mapping[b] for b in other_labels])


def design_clusters(sf: SpectralFactors, weights: WeightVectors, r: int,
                    rng=None, restarts: int = 10) -> ClusterPartition:
    """Clustering sets from weighted k-means on the factor-gain embeddings.

    Inputs are clustered on the rows of sf.embed_u with masses w_u[i]^2,
    outputs on the rows of sf.embed_y with masses w_y[i]^2.
    When the channel counts agree (one input and output per subsystem) the
    output labels are aligned to the input clustering by maximum overlap and
    the common grouping is recorded as the subsystem partition.
    """
    rng = np.random.default_rng(rng)
    data_u, data_y = sf.embed_u, sf.embed_y
    if r > min(data_u.shape[0], data_y.shape[0]):
        raise InvalidInput("r exceeds the number of inputs or outputs")
    labels_u, _, _ = weighted_kmeans(data_u, weights.w_u ** 2, r, rng, restarts)
    labels_y, _, _ = weighted_kmeans(data_y, weights.w_y ** 2, r, rng, restarts)
    if data_u.shape[0] == data_y.shape[0]:
        labels_y = _align_labels(labels_u, labels_y, r)
        subsystem_sets = _labels_to_sets(labels_u, r)
    else:
        subsystem_sets = None
    return ClusterPartition(
        input_sets=_labels_to_sets(labels_u, r),
        output_sets=_labels_to_sets(labels_y, r),
        subsystem_sets=subsystem_sets)


@dataclass
class GapSweepRow:
    """One r of :func:`monotone_gap_sweep`; on failure `error` holds the
    ToolkitError and `partition` and `report` are None."""

    r: int
    partition: ClusterPartition | None
    report: GapReport | None
    error: ToolkitError | None = None


def monotone_gap_sweep(sf: SpectralFactors, weights: WeightVectors, r_list,
                       rng=None, restarts: int = 10,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> list[GapSweepRow]:
    """Design clusters and produce a gap report for each r in ascending order.

    The plant is ``sf.g`` and each partition is designed on the embeddings
    of `sf`, whose unconstrained synthesis serves every row as J1*; each
    row is then evaluated as by :func:`evaluate_partition`.  A row that
    raises a ToolkitError records it and the sweep goes on; the draws from
    `rng` are shared by the rows in order.
    """
    r_list = list(r_list)
    if r_list != sorted(r_list):
        raise InvalidInput("r_list must be ascending")
    rng = np.random.default_rng(rng)
    rows = []
    for r in r_list:
        try:
            partition = design_clusters(sf, weights, r, rng, restarts)
            report = _evaluate(sf.g, partition, weights, sf.unconstrained, tol)
            rows.append(GapSweepRow(r=r, partition=partition, report=report))
        except ToolkitError as e:
            rows.append(GapSweepRow(r=r, partition=None, report=None, error=e))
    return rows
