"""Generalized-plant data model, interconnections, and network generators.

The plant is the four-block system mapping (disturbance w, control u) to
(performance z, measurement y) with block-diagonal control input/output
matrices over the subsystem structure; the (z,w) and (y,u) feedthroughs are
zero.  A plant is frozen and caches the spectrum of A on first use; every PBH
test on a plant reads its modes there and applies the one rule of
:func:`~hierh2.linalg._pbh_rank_deficient`.  The tolerance-free numbers of
assumptions A2 and A4 (the weight minima and the cross-term norms) are
cached the same way, and each check compares them with its ``tol``; so are
the n x k factors of B1 B1' and C1'C1 that the synthesis H2 chain reads.
Consensus-network generation produces the clustered first-order integrator
plants used by the experiments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (DimensionMismatch, DisconnectedIntraBlockWarning,
                     InvalidInput)
from .linalg import _on_axis, _pbh_rank_deficient, _unstable_modes
from .statespace import StateSpace, as_matrix

__all__ = [
    "Subsystem", "GeneralizedPlant", "NetworkSpec", "AssumptionReport",
    "lft_lower", "validate_assumptions", "generate_consensus_network",
]


@dataclass(frozen=True)
class Subsystem:
    """Index sets owned by one subsystem (states, control inputs, outputs)."""

    states: tuple[int, ...]
    inputs: tuple[int, ...] = ()
    outputs: tuple[int, ...] = ()


def _singleton_subsystems(n: int) -> tuple[Subsystem, ...]:
    return tuple(Subsystem(states=(i,), inputs=(i,), outputs=(i,)) for i in range(n))


@dataclass(frozen=True)
class GeneralizedPlant:
    """Four-block plant (A, B1, B2, C1, C2, D12, D21) with subsystem spans,
    frozen so that :attr:`spectrum` stays A's; do not write into its arrays."""

    a: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    d12: np.ndarray
    d21: np.ndarray
    subsystems: tuple[Subsystem, ...] = ()

    def __post_init__(self):
        for name in ("a", "b1", "b2", "c1", "c2", "d12", "d21"):
            object.__setattr__(self, name,
                               as_matrix(getattr(self, name), name.upper()))
        n = self.a.shape[0]
        if self.a.shape != (n, n):
            raise DimensionMismatch("A must be square")
        for name, mat, rows, cols in [
            ("B1", self.b1, n, None), ("B2", self.b2, n, None),
            ("C1", self.c1, None, n), ("C2", self.c2, None, n),
            ("D12", self.d12, self.c1.shape[0], self.b2.shape[1]),
            ("D21", self.d21, self.c2.shape[0], self.b1.shape[1]),
        ]:
            if rows is not None and mat.shape[0] != rows:
                raise DimensionMismatch(f"{name} has {mat.shape[0]} rows, expected {rows}")
            if cols is not None and mat.shape[1] != cols:
                raise DimensionMismatch(f"{name} has {mat.shape[1]} cols, expected {cols}")
        if not self.subsystems:
            object.__setattr__(self, "subsystems", (Subsystem(
                states=tuple(range(n)),
                inputs=tuple(range(self.n_u)),
                outputs=tuple(range(self.n_y))),))
        self._check_block_diagonal()

    def _check_block_diagonal(self):
        """B2 and C2 must be block diagonal over the subsystem spans."""
        n, nu, ny = self.n, self.n_u, self.n_y
        state_owner = -np.ones(n, int)
        input_owner = -np.ones(nu, int)
        output_owner = -np.ones(ny, int)
        for i, sub in enumerate(self.subsystems):
            state_owner[list(sub.states)] = i
            input_owner[list(sub.inputs)] = i
            output_owner[list(sub.outputs)] = i
        if np.any(state_owner < 0) or np.any(input_owner < 0) or np.any(output_owner < 0):
            raise DimensionMismatch("subsystem spans must cover all states/inputs/outputs")
        tol = 0.0
        off_b2 = state_owner[:, None] != input_owner[None, :]
        if np.any(np.abs(self.b2[off_b2]) > tol):
            raise DimensionMismatch("B2 is not block diagonal over subsystems")
        off_c2 = output_owner[:, None] != state_owner[None, :]
        if np.any(np.abs(self.c2[off_c2]) > tol):
            raise DimensionMismatch("C2 is not block diagonal over subsystems")

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of A (and of A'), computed on first use only."""
        return np.linalg.eigvals(self.a)

    @cached_property
    def b1_factor(self) -> np.ndarray:
        """n x k factor with B1 B1' = b1_factor b1_factor', k = min(n, m1)
        (R' of a QR of B1'); computed on first use only."""
        return np.linalg.qr(self.b1.T, mode="r").T

    @cached_property
    def c1_factor(self) -> np.ndarray:
        """k x n factor with C1'C1 = c1_factor' c1_factor, k = min(n, p1)
        (R of a QR of C1); computed on first use only."""
        return np.linalg.qr(self.c1, mode="r")

    @cached_property
    def weight_minima(self) -> tuple[float | None, float | None]:
        """(lambda_min(D12'D12), lambda_min(D21 D21')), None for an empty
        weight; computed on first use only (assumption A2)."""
        def lam_min(w):
            eigs = np.linalg.eigvalsh(w)
            return float(eigs.min()) if eigs.size else None

        return lam_min(self.d12.T @ self.d12), lam_min(self.d21 @ self.d21.T)

    @cached_property
    def cross_term_norms(self) -> tuple[float, float, float, float]:
        """(||D12' C1||_F, ||D12||_F ||C1||_F, ||B1 D21'||_F,
        ||B1||_F ||D21||_F), computed on first use only (assumption A4)."""
        def fro(m):
            return float(np.linalg.norm(m, "fro"))

        return (fro(self.d12.T @ self.c1), fro(self.d12) * fro(self.c1),
                fro(self.b1 @ self.d21.T), fro(self.b1) * fro(self.d21))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m1(self) -> int:
        return self.b1.shape[1]

    @property
    def n_u(self) -> int:
        return self.b2.shape[1]

    @property
    def p1(self) -> int:
        return self.c1.shape[0]

    @property
    def n_y(self) -> int:
        return self.c2.shape[0]

    @property
    def n_s(self) -> int:
        return len(self.subsystems)

    def g22(self) -> StateSpace:
        """Plant model y = G22 u."""
        return StateSpace(self.a, self.b2, self.c2, np.zeros((self.n_y, self.n_u)))


def lft_lower(g: GeneralizedPlant, k: StateSpace) -> StateSpace:
    """Closed loop f(G, K) = G11 + G12 K (I - G22 K)^{-1} G21, formed from
    the plant's blocks.

    D11 = D22 = 0 by the plant structure, so the loop is always well posed
    and, with A_K, B_K, C_K, D_K the controller's realization, it is
    ([[A + B2 D_K C2, B2 C_K], [B_K C2, A_K]], [B1 + B2 D_K D21; B_K D21],
    [C1 + D12 D_K C2, D12 C_K], D12 D_K D21).  DimensionMismatch unless K
    maps the n_y measurements to the n_u controls.
    """
    if k.n_inputs != g.n_y or k.n_outputs != g.n_u:
        raise DimensionMismatch(
            f"lft: controller is {k.n_outputs}x{k.n_inputs}, "
            f"expected {g.n_u}x{g.n_y}")
    b2_dk, d12_dk = g.b2 @ k.d, g.d12 @ k.d
    return StateSpace(
        np.block([[g.a + b2_dk @ g.c2, g.b2 @ k.c], [k.b @ g.c2, k.a]]),
        np.vstack([g.b1 + b2_dk @ g.d21, k.b @ g.d21]),
        np.hstack([g.c1 + d12_dk @ g.c2, g.d12 @ k.c]),
        d12_dk @ g.d21)


# ---------------------------------------------------------------------------
# Assumption validation
# ---------------------------------------------------------------------------

@dataclass
class AssumptionReport:
    a1: bool
    a2: bool
    a3: bool
    a4: bool
    details: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return self.a1 and self.a2 and self.a3 and self.a4


def _a2_holds(g: GeneralizedPlant) -> bool:
    """Whether A2 holds: D12'D12 and D21 D21' positive definite, read off
    ``g.weight_minima``.  An empty weight (a plant with no control input or
    no measurement) fails."""
    return all(w is not None and w > 0.0 for w in g.weight_minima)


def _a4_cross_terms(g: GeneralizedPlant,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[float, float, bool]:
    """(||D12' C1||_F, ||B1 D21'||_F, whether A4 holds).

    Each cross term must be at most ``tol.cross_term_rel`` times the product
    of its two factors' Frobenius norms, read off ``g.cross_term_norms``.
    """
    cross_u, scale_u, cross_y, scale_y = g.cross_term_norms
    holds = (cross_u <= tol.cross_term_rel * scale_u
             and cross_y <= tol.cross_term_rel * scale_y)
    return cross_u, cross_y, holds


def validate_assumptions(g: GeneralizedPlant,
                         tol: Tolerances = DEFAULT_TOLERANCES) -> AssumptionReport:
    """Report-only check of the four standing plant assumptions.

    A1: (A, B2) stabilizable and (C2, A) detectable (PBH over the unstable
        spectrum); A2: D21 D21' and D12' D12 positive definite; A3: no
        uncontrollable/unobservable imaginary-axis modes for (A, B1)/(C1, A);
        A4: D12' C1 = 0 and B1 D21' = 0, relative to ``cross_term_rel``.
    """
    details: dict = {}

    unstable = _unstable_modes(g.spectrum, tol)
    for key, a, b in (("a1_stabilizable", g.a, g.b2), ("a1_detectable", g.a.T, g.c2.T)):
        details[key] = not _pbh_rank_deficient(a, b, unstable, tol).any()
    a1 = details["a1_stabilizable"] and details["a1_detectable"]

    w12, w21 = g.weight_minima
    details["lambda_min_D12tD12"] = 0.0 if w12 is None else w12
    details["lambda_min_D21D21t"] = 0.0 if w21 is None else w21
    a2 = _a2_holds(g)

    on_axis = g.spectrum[_on_axis(g.spectrum, tol)]
    bad = (_pbh_rank_deficient(g.a, g.b1, on_axis, tol)
           | _pbh_rank_deficient(g.a.T, g.c1.T, on_axis, tol))
    a3 = not bad.any()
    if not a3:
        details["a3_modes"] = [complex(lam) for lam in on_axis[bad]]

    details["norm_D12tC1"], details["norm_B1D21t"], a4 = _a4_cross_terms(g, tol)

    return AssumptionReport(a1=a1, a2=a2, a3=a3, a4=a4, details=details)


# ---------------------------------------------------------------------------
# Clustered consensus network generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetworkSpec:
    """Stochastic-block-model consensus network description.

    blocks are the intended coherent groups (node index tuples); edges are
    sampled independently with probability p_in inside a block and p_out
    across blocks, with symmetric weights drawn uniformly from
    [a_lo, a_hi].  The seed pins the sample.
    """

    n_s: int
    blocks: tuple[tuple[int, ...], ...]
    p_in: float
    p_out: float
    a_lo: float = 0.5
    a_hi: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.p_in <= 1.0):
            raise InvalidInput("p_in must be in (0, 1]")
        if not (0.0 <= self.p_out < 1.0):
            raise InvalidInput("p_out must be in [0, 1)")
        if self.p_out >= self.p_in:
            raise InvalidInput("clustered regime requires p_out < p_in")
        if not (0.0 <= self.a_lo <= self.a_hi):
            raise InvalidInput("need 0 <= a_lo <= a_hi")
        covered = sorted(i for blk in self.blocks for i in blk)
        if covered != list(range(self.n_s)):
            raise InvalidInput("blocks must partition 0..n_s-1")

    @classmethod
    def even_blocks(cls, n_s: int, n_blocks: int, p_in: float, p_out: float,
                    a_lo: float = 0.5, a_hi: float = 1.5, seed: int = 0) -> "NetworkSpec":
        """Contiguous equal-size blocks (remainder spread over the first)."""
        sizes = [n_s // n_blocks] * n_blocks
        for i in range(n_s % n_blocks):
            sizes[i] += 1
        blocks, start = [], 0
        for s in sizes:
            blocks.append(tuple(range(start, start + s)))
            start += s
        return cls(n_s=n_s, blocks=tuple(blocks), p_in=p_in, p_out=p_out,
                   a_lo=a_lo, a_hi=a_hi, seed=seed)

    @property
    def planted_partition(self) -> tuple[tuple[int, ...], ...]:
        return self.blocks


def _block_connected(weights: np.ndarray, nodes) -> bool:
    nodes = list(nodes)
    if len(nodes) <= 1:
        return True
    sub = weights[np.ix_(nodes, nodes)] > 0
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in np.nonzero(sub[i])[0]:
            if j not in seen:
                seen.add(int(j))
                frontier.append(int(j))
    return len(seen) == len(nodes)


def generate_consensus_network(spec: NetworkSpec, c1_scale: float = 10.0,
                               b1_scale: float = 10.0) -> GeneralizedPlant:
    """Clustered first-order consensus plant A = -L on a random graph.

    Every node is a scalar integrator with its own control input and
    measured state (B2 = C2 = I, singleton subsystems).  The performance
    and disturbance channels are stacked so the standing assumptions hold
    exactly: z = [c1_scale * x; u] and w = [w_process; w_measurement] with
    B1 = [b1_scale * I, 0], D21 = [0, I], C1 = [c1_scale * I; 0],
    D12 = [0; I].
    """
    n = spec.n_s
    rng = np.random.default_rng(spec.seed)
    block_of = np.empty(n, int)
    for bi, blk in enumerate(spec.blocks):
        block_of[list(blk)] = bi

    w = np.zeros((n, n))
    iu, ju = np.triu_indices(n, k=1)
    same = block_of[iu] == block_of[ju]
    probs = np.where(same, spec.p_in, spec.p_out)
    mask = rng.random(iu.shape[0]) < probs
    vals = rng.uniform(spec.a_lo, spec.a_hi, size=iu.shape[0])
    w[iu[mask], ju[mask]] = vals[mask]
    w = w + w.T

    for blk in spec.blocks:
        if not _block_connected(w, blk):
            warnings.warn(
                f"intended block {blk[:4]}... induces a disconnected subgraph",
                DisconnectedIntraBlockWarning)

    lap = np.diag(w.sum(axis=1)) - w
    a = -lap
    eye = np.eye(n)
    b1 = np.hstack([b1_scale * eye, np.zeros((n, n))])
    d21 = np.hstack([np.zeros((n, n)), eye])
    c1 = np.vstack([c1_scale * eye, np.zeros((n, n))])
    d12 = np.vstack([np.zeros((n, n)), eye])
    return GeneralizedPlant(
        a=a, b1=b1, b2=eye, c1=c1, c2=eye, d12=d12, d21=d21,
        subsystems=_singleton_subsystems(n))
