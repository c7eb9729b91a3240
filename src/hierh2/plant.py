"""Generalized-plant data model, interconnections, and network generators.

The plant is the four-block system mapping (disturbance w, control u) to
(performance z, measurement y) with block-diagonal control input/output
matrices over the subsystem structure; the (z,w) and (y,u) feedthroughs are
zero.  Consensus-network generation produces the clustered first-order
integrator plants used by the experiment harness.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DimensionMismatch, DisconnectedIntraBlockWarning
from .linalg import _on_axis, _pbh_rank_deficient, detectable, stabilizable
from .statespace import StateSpace, as_matrix, lft_lower_partitioned

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


@dataclass
class GeneralizedPlant:
    """Four-block plant (A, B1, B2, C1, C2, D12, D21) with subsystem spans."""

    a: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    d12: np.ndarray
    d21: np.ndarray
    subsystems: tuple[Subsystem, ...] = ()

    def __post_init__(self):
        self.a = as_matrix(self.a, "A")
        self.b1 = as_matrix(self.b1, "B1")
        self.b2 = as_matrix(self.b2, "B2")
        self.c1 = as_matrix(self.c1, "C1")
        self.c2 = as_matrix(self.c2, "C2")
        self.d12 = as_matrix(self.d12, "D12")
        self.d21 = as_matrix(self.d21, "D21")
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
            self.subsystems = (Subsystem(
                states=tuple(range(n)),
                inputs=tuple(range(self.n_u)),
                outputs=tuple(range(self.n_y))),)
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

    def as_four_block(self) -> StateSpace:
        """Single realization mapping [w; u] -> [z; y]."""
        b = np.hstack([self.b1, self.b2])
        c = np.vstack([self.c1, self.c2])
        d = np.block([
            [np.zeros((self.p1, self.m1)), self.d12],
            [self.d21, np.zeros((self.n_y, self.n_u))],
        ])
        return StateSpace(self.a, b, c, d)


def lft_lower(g: GeneralizedPlant, k: StateSpace) -> StateSpace:
    """Closed loop f(G, K) = G11 + G12 K (I - G22 K)^{-1} G21.

    D22 = 0 by the plant structure, so the loop is always well posed.
    """
    return lft_lower_partitioned(g.as_four_block(), g.p1, g.n_y, g.m1, g.n_u, k)


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


def _a4_cross_terms(g: GeneralizedPlant,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[float, float, bool]:
    """(||D12' C1||_F, ||B1 D21'||_F, whether A4 holds).

    Each cross term must be at most ``tol.cross_term_rel`` times the product
    of its two factors' Frobenius norms.
    """
    def fro(m):
        return float(np.linalg.norm(m, "fro"))

    cross_u = fro(g.d12.T @ g.c1)
    cross_y = fro(g.b1 @ g.d21.T)
    holds = (cross_u <= tol.cross_term_rel * fro(g.d12) * fro(g.c1)
             and cross_y <= tol.cross_term_rel * fro(g.b1) * fro(g.d21))
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

    details["a1_stabilizable"] = stabilizable(g.a, g.b2, tol)
    details["a1_detectable"] = detectable(g.a, g.c2, tol)
    a1 = details["a1_stabilizable"] and details["a1_detectable"]

    w12 = np.linalg.eigvalsh(g.d12.T @ g.d12)
    w21 = np.linalg.eigvalsh(g.d21 @ g.d21.T)
    details["lambda_min_D12tD12"] = float(w12.min()) if w12.size else 0.0
    details["lambda_min_D21D21t"] = float(w21.min()) if w21.size else 0.0
    a2 = details["lambda_min_D12tD12"] > 0.0 and details["lambda_min_D21D21t"] > 0.0

    eigs = np.linalg.eigvals(g.a)
    on_axis = eigs[_on_axis(eigs, tol)]
    threshold = tol.pbh_rel * max(1.0, np.linalg.norm(g.a, "fro"))
    bad = (_pbh_rank_deficient(g.a, g.b1, on_axis, threshold)
           | _pbh_rank_deficient(g.a.T, g.c1.T, on_axis, threshold))
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
            raise ValueError("p_in must be in (0, 1]")
        if not (0.0 <= self.p_out < 1.0):
            raise ValueError("p_out must be in [0, 1)")
        if self.p_out >= self.p_in:
            raise ValueError("clustered regime requires p_out < p_in")
        if not (0.0 <= self.a_lo <= self.a_hi):
            raise ValueError("need 0 <= a_lo <= a_hi")
        covered = sorted(i for blk in self.blocks for i in blk)
        if covered != list(range(self.n_s)):
            raise ValueError("blocks must partition 0..n_s-1")

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
