"""Hierarchical H2 synthesis via the convex Youla-domain reformulation.

Under projected stabilizability/detectability, the constrained problem over
K = P_u^T K~ P_y reduces to an unconstrained two-Riccati design on the
projected channels: X over (A, B2 P_u^T, C1) and Y over the dual
(A', (P_y C2)', B1'), with the optimal reduced controller in observer form.
Every two-Riccati design is built from a (control, filter) pair of
:class:`~hierh2.hamiltonian.HamiltonianSystem` equations; the projected pair
is :func:`control_hamiltonian` and :func:`filter_hamiltonian`, the one place
that writes the dual data.  The two backends differ only in how X and Y
are made: the exact one by doubling on the equation's n x n blocks
(:func:`~hierh2.linalg.riccati_from_hamiltonian`), the approximate one from
kappa-truncated subspaces.  Each gain comes from its equation's
:meth:`~hierh2.hamiltonian.HamiltonianSystem.gain`, on the one factor of R:
F2 is the gain of X and L2 the transposed gain of Y.  :func:`youla_data`
then makes every observer loop from its gains, whatever produced them: it
factors A + B2 F and A + L C2 once each and decides their stability.
:func:`riccati_loop` is the exact loop of a pair of equations: two solves,
the gains, then :func:`youla_data`.

:func:`synthesize_hierarchical` checks the pair's dimensions and
assumptions A2 and A4, then runs the synthesis, and decides the projected
PBH hypotheses (stabilizable (A, B2 P_u^T), detectable (P_y C2, A)) last:
the stabilizing loop the synthesis built certifies them, since
[A - lambda I, B2 P_u^T] [I; F2] = A + B2 F - lambda I bounds the distance
to uncontrollability from below by its Schur factor, and the sigma_min rule
runs only when the certificate does not pass or the synthesis raised.  The
certificate passes only pairs the rule passes, so the rule alone decides
which pairs fail, and with which message.

A synthesis returns its observer loop as :class:`YoulaData`: the projection
pair (the identity pair for an unprojected loop), the reduced gains F2, L2,
and the real Schur factors of A + B2 F and A + L C2, each checked for
stability where it is made.  The record forms the controller (P_u, K~, P_y)
once, and gives the closed-loop H2 value by the observer separation without
leaving the two Schur bases: one chain of three triangular solves
(:func:`_block_gramian`), with every gain term formed from the factors
rather than as an n x n product (:func:`_observer_closed_loop_h2`).  The
chain assumes A4 (D12'C1 = 0, B1 D21' = 0) and forms no cross term; every
caller has checked A4 on the same plant first: :func:`synthesize_hierarchical`
and so the exact row of a kappa sweep, and the hierarchical synthesis that
precedes the equivalence form in the gap layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (ApproxNotStabilizing, DimensionMismatch,
                     HypothesisFailure, InvalidInput, NotStabilizingGains,
                     ToolkitError)
from .hamiltonian import HamiltonianSystem, approx_are, build_hamiltonian
from .linalg import (RealSchur, _pbh_certified, _require_hurwitz,
                     _unstable_modes, riccati_from_hamiltonian,
                     solve_sylvester_schur)
from .plant import GeneralizedPlant, _a2_holds, _a4_cross_terms
from .projection import ClusterPartition, ProjectionPair, _projected_pbh_failure
from .statespace import StateSpace

__all__ = [
    "YoulaData", "SynthesisResult", "HierarchicalController", "LinkCount",
    "youla_data", "control_hamiltonian", "filter_hamiltonian", "riccati_loop",
    "synthesize_hierarchical", "synthesize_unconstrained", "communication_links",
]


@dataclass
class HierarchicalController:
    """Triple (P_u, K~, P_y) realizing K = P_u^T K~ P_y; DimensionMismatch
    unless P_u has a row per output of K~ and P_y a row per input."""

    p_u: np.ndarray
    k_tilde: StateSpace
    p_y: np.ndarray

    def __post_init__(self):
        rows, io = (self.p_u.shape[0], self.p_y.shape[0]), self.k_tilde.d.shape
        if rows != io:
            raise DimensionMismatch(f"P_u, P_y have {rows} rows; K~ has "
                                    f"(outputs, inputs) {io}")

    def expand(self) -> StateSpace:
        """Full controller realization (A_K~, B_K~ P_y, P_u^T C_K~, P_u^T D_K~ P_y)."""
        k = self.k_tilde
        return StateSpace(k.a, k.b @ self.p_y, self.p_u.T @ k.c,
                          self.p_u.T @ k.d @ self.p_y)


@dataclass
class YoulaData:
    """An observer loop: stabilizing gains F, L with the n-state data of
    its Youla system.

    The gains are kept factored: F = P_u^T F2 and L = L2 P_y with the
    reduced gains `f2` (r_u x n), `l2` (n x r_y) and the projection pair
    `p`, the identity pair for a loop with no cluster structure.
    :meth:`fold_u` and :meth:`fold_y` fold a projection into a plant
    matrix, so B2 F = fold_u(B2) F2 and L C2 = L2 fold_y(C2) cost O(r n^2).

    Every stable Q gives f(G, K_Q) = T11 + T12 Q T21, T11 being the closed
    loop of :attr:`controller`.  The state matrix of T is block triangular,
    with diagonal blocks A_F = A + B2 F and A_L = A + L C2, whose real Schur
    factors are kept as `f_loop` and `l_loop`; T12 and T21 are n-state
    systems on A_F and A_L, and T22 vanishes identically.
    """

    g: GeneralizedPlant
    p: ProjectionPair
    f2: np.ndarray
    l2: np.ndarray
    f_loop: RealSchur
    l_loop: RealSchur

    def fold_u(self, m: np.ndarray) -> np.ndarray:
        """m P_u^T, so that m F = fold_u(m) F2."""
        return m @ self.p.p_u.T

    def fold_y(self, m: np.ndarray) -> np.ndarray:
        """P_y m, so that L m = L2 fold_y(m)."""
        return self.p.p_y @ m

    @property
    def f(self) -> np.ndarray:
        """F = P_u^T F2."""
        return self.p.p_u.T @ self.f2

    @property
    def l(self) -> np.ndarray:
        """L = L2 P_y."""
        return self.l2 @ self.p.p_y

    @property
    def t12(self) -> StateSpace:
        """(A_F, B2, C1 + D12 F, D12)."""
        g = self.g
        return StateSpace(self.f_loop.a, g.b2,
                          g.c1 + self.fold_u(g.d12) @ self.f2, g.d12)

    @property
    def t21(self) -> StateSpace:
        """(A_L, B1 + L D21, C2, D21)."""
        g = self.g
        return StateSpace(self.l_loop.a, g.b1 + self.l2 @ self.fold_y(g.d21),
                          g.c2, g.d21)

    @cached_property
    def controller(self) -> HierarchicalController:
        """Observer controller P_u^T K~ P_y, K~ = (A + B2 F + L C2, -L2,
        F2, 0), formed once; ``.expand()`` is (A + B2 F + L C2, -L, F, 0)."""
        g = self.g
        a = g.a + self.fold_u(g.b2) @ self.f2 + self.l2 @ self.fold_y(g.c2)
        k_tilde = StateSpace(a, -self.l2, self.f2,
                             np.zeros((self.f2.shape[0], self.l2.shape[1])))
        return HierarchicalController(self.p.p_u, k_tilde, self.p.p_y)


def youla_data(g: GeneralizedPlant, p: ProjectionPair, f2, l2,
               tol: Tolerances = DEFAULT_TOLERANCES) -> YoulaData:
    """Youla data of the stabilizing pair F = P_u^T f2, L = l2 P_y: the one
    constructor of an observer loop, for supplied gains and for the gains
    of every synthesis, exact or truncated, projected or not.

    Makes the real Schur factors of A + B2 F and A + L C2, each formed from
    the gain factors, and decides stability on them: NotStabilizingGains,
    naming the control or the filter loop and its abscissa, when either has
    an eigenvalue at Re >= -hurwitz_margin.  HypothesisFailure when the
    pair or the gain shapes do not match the plant.
    """
    f2, l2 = np.asarray(f2, float), np.asarray(l2, float)
    if (p.n_u != g.n_u or p.n_y != g.n_y
            or f2.shape != (p.p_u.shape[0], g.n)
            or l2.shape != (g.n, p.p_y.shape[0])):
        raise HypothesisFailure(f"gains {f2.shape}, {l2.shape} or projections "
                                f"{p.p_u.shape}, {p.p_y.shape} do not fit the plant")
    f_loop = RealSchur.of(g.a + (g.b2 @ p.p_u.T) @ f2)
    l_loop = RealSchur.of(g.a + l2 @ (p.p_y @ g.c2))
    for loop, name in ((f_loop, "the control loop A + B2 F"),
                       (l_loop, "the filter loop A + L C2")):
        _require_hurwitz(loop.abscissa, tol, NotStabilizingGains, name)
    return YoulaData(g=g, p=p, f2=f2, l2=l2, f_loop=f_loop, l_loop=l_loop)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

@dataclass
class SynthesisResult:
    """X, Y and `youla`, the observer loop that gave `h2_value`, off which
    the controller and the reduced gains F2, L2 are read.  `x_solution` and
    `y_solution` hold each equation as it was solved (``.hs``), so that a
    later solve of the same pair, such as a kappa row, reuses them.
    `pbh_path` names what decided the projected PBH hypotheses in
    :func:`synthesize_hierarchical`: ``'certificate'`` (the loop's own
    Schur factors) or ``'rule'`` (the sigma_min rule); it is None on a
    result of the core alone, such as a kappa row of a sweep."""

    x: np.ndarray
    y: np.ndarray
    h2_value: float
    solve_time: float
    youla: YoulaData
    x_solution: object = None     # AreSolution or ApproxAreSolution
    y_solution: object = None
    pbh_path: str | None = None

    controller = property(lambda self: self.youla.controller)
    f2 = property(lambda self: self.youla.f2)
    l2 = property(lambda self: self.youla.l2)

    @property
    def closed_loop_abscissa(self) -> float:
        """max Re(lambda) of the closed loop, read off the two loop factors."""
        return max(self.youla.f_loop.abscissa, self.youla.l_loop.abscissa)


def _check_assumptions(g: GeneralizedPlant, tol: Tolerances):
    if not _a2_holds(g):
        raise HypothesisFailure(
            "assumption A2 fails (D12/D21 weights singular or empty)")
    if not _a4_cross_terms(g, tol)[2]:
        raise HypothesisFailure("assumption A4 fails (cross terms non-zero)")


def _check_hypotheses(g: GeneralizedPlant, p: ProjectionPair, tol: Tolerances,
                      youla: YoulaData | None = None, cause=None) -> str:
    """Decide the projected PBH hypotheses on (g, p); return the path that
    decided them.

    Given `youla`, a stabilizing observer loop of (g, p), both sides are
    first certified from its Schur factors
    (:func:`~hierh2.linalg._pbh_certified` on A + B2 P_u^T F2 and on
    (A + L2 P_y C2)' with the gain L2'): ``'certificate'``.  Otherwise the sigma_min rule
    (:func:`~hierh2.projection._projected_pbh_failure`) decides:
    HypothesisFailure with its message, raised from `cause`, or ``'rule'``.
    The certificate passes only pairs the rule passes, so the outcome is
    the rule's either way.
    """
    if youla is not None:
        modes = _unstable_modes(g.spectrum, tol)
        if (_pbh_certified(g.a, youla.fold_u(g.b2), youla.f_loop.t,
                           youla.f2, modes, tol)
                and _pbh_certified(g.a.T, youla.fold_y(g.c2).T, youla.l_loop.t,
                                   youla.l2.T, modes, tol)):
            return "certificate"
    failure = _projected_pbh_failure(g, p, tol)
    if failure is not None:
        raise HypothesisFailure(failure) from cause
    return "rule"


def _block_gramian(f1: RealSchur, f2: RealSchur, a12, q11: np.ndarray,
                   q12: np.ndarray, q22: np.ndarray, tol: Tolerances):
    """Gramian blocks (Y11, Y12, Y22) of the block upper triangular
    A = [[A1, A12], [0, A2]], in the Schur bases of A1 = U1 T1 U1' and
    A2 = U2 T2 U2' (`f1`, `f2`).

    Phi_ij = U_i Y_ij U_j' solves A Phi + Phi A' + Q = 0 when
    q_ij = U_i' Q_ij U_j; ``a12(y)`` returns U1' A12 U2 y, so that a
    low-rank coupling is applied factor by factor.  One Lyapunov solve per
    diagonal block plus one Sylvester coupling, all three through
    :func:`~hierh2.linalg.solve_sylvester_schur` with its residual contract,
    and no factorization of A and no change of basis.  Each q_ij is dropped
    once the solve that reads it has run, and never written into, so a
    caller may pass one array as two blocks; one that passes temporaries
    frees them there.
    """
    y22 = solve_sylvester_schur(f2, f2, q22, tol)
    del q22
    q12 = q12 + a12(y22)
    y12 = solve_sylvester_schur(f1, f2, q12, tol)
    del q12
    cross = a12(y12.T)
    q11 = q11 + cross + cross.T
    del cross
    return solve_sylvester_schur(f1, f1, q11, tol), y12, y22


def _observer_closed_loop_h2(yd: YoulaData, tol: Tolerances) -> float:
    """H2 value of the closed loop of ``yd.controller``, in Schur coordinates:
    h2_norm(lft_lower(G, yd.controller.expand())) without a 2n Schur form.

    Precondition: the plant satisfies A4 (D12'C1 = 0 and B1 D21' = 0), as
    every caller has checked on it (:func:`_check_assumptions`).  In
    (x, e = x - xhat) coordinates the closed loop is block triangular,
    A = [[A_F, -B2 F], [0, A_L]], B = [B1; B1 + L D21] and
    C = [C1 + D12 F, -D12 F].  Under A4 the Q = B B' blocks are B1 B1',
    B1 B1' and B1 B1' + L D21 D21' L', and the C'C blocks are
    C1'C1 + F'R F, -F'R F and F'R F with R = D12'D12.  The Gramian blocks
    come from :func:`_block_gramian` in the Schur bases of A_F and A_L that
    `yd` holds.  The plant's factors of B1 B1' and C1'C1 are moved into
    them once; every gain term is formed from the gain factors
    (B2 F = fold_u(B2) F2, L D21 = L2 fold_y(D21)) in O(r n^2); and the
    traces tr(C Phi C') are contracted in Schur coordinates.
    """
    g, f2 = yd.g, yd.f2
    u1, u2 = yd.f_loop.u, yd.l_loop.u
    f2_1, f2_2 = f2 @ u1, f2 @ u2            # F2 in either basis
    b2_1 = u1.T @ yd.fold_u(g.b2)            # U1' B2 F = b2_1 F2
    d12u = yd.fold_u(g.d12)                  # D12 F = d12u F2
    d21y = yd.fold_y(g.d21)                  # L D21 = L2 d21y
    l2_2 = u2.T @ yd.l2

    # B1 B1' = Bf Bf' in the two bases; the Q blocks are temporaries
    bf_1, bf_2 = u1.T @ g.b1_factor, u2.T @ g.b1_factor
    y11, y12, y22 = _block_gramian(
        yd.f_loop, yd.l_loop, lambda y: -(b2_1 @ (f2_2 @ y)),
        bf_1 @ bf_1.T, bf_1 @ bf_2.T,
        bf_2 @ bf_2.T + l2_2 @ (d21y @ d21y.T) @ l2_2.T, tol)
    del bf_1, bf_2      # so the n x n products below do not raise the peak

    # C1'C1 = Cf' Cf in the first basis, R = D12'D12 folded by P_u
    cf_1 = g.c1_factor @ u1
    r1 = d12u.T @ d12u
    val = (np.sum(y11 * (cf_1.T @ cf_1))
           + np.trace(r1 @ (f2_1 @ y11) @ f2_1.T)
           - 2.0 * np.sum((y12 @ f2_2.T) * (f2_1.T @ r1))
           + np.trace(r1 @ (f2_2 @ y22) @ f2_2.T))
    return float(np.sqrt(max(val, 0.0)))


def control_hamiltonian(g: GeneralizedPlant, p: ProjectionPair,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> HamiltonianSystem:
    """The X equation of the projected design: input B2 P_u^T and weight
    R1 = P_u D12'D12 P_u^T."""
    return build_hamiltonian(g.a, g.b2 @ p.p_u.T, g.c1,
                             p.p_u @ g.d12.T @ g.d12 @ p.p_u.T, tol)


def filter_hamiltonian(g: GeneralizedPlant, p: ProjectionPair,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> HamiltonianSystem:
    """The Y equation of the projected design, on the dual: state matrix
    A', input (P_y C2)', performance output B1' and weight
    R2 = P_y D21 D21' P_y^T, so that L2 is the transposed gain of Y."""
    return build_hamiltonian(g.a.T, (p.p_y @ g.c2).T, g.b1.T,
                             p.p_y @ g.d21 @ g.d21.T @ p.p_y.T, tol)


def riccati_loop(g: GeneralizedPlant, p: ProjectionPair, hs_x: HamiltonianSystem,
                 hs_y: HamiltonianSystem,
                 tol: Tolerances = DEFAULT_TOLERANCES) -> YoulaData:
    """The exact observer loop of a (control, filter) pair of equations:
    two exact solves (:func:`~hierh2.linalg.riccati_from_hamiltonian`), the
    gains (F2 the gain of X, L2 the transposed gain of Y, whose equation is
    the dual), then :func:`youla_data`, which factors both loops and
    decides their stability.  `p` is the pair the gains are factored over:
    F = P_u^T F2 and L = L2 P_y.
    """
    x = riccati_from_hamiltonian(hs_x, tol).x
    y = riccati_from_hamiltonian(hs_y, tol).x
    return youla_data(g, p, hs_x.gain(x), hs_y.gain(y).T, tol)


def synthesize_hierarchical(g: GeneralizedPlant, p: ProjectionPair,
                            are_backend: str = "exact", kappa: int | None = None,
                            method: str = "dense",
                            tol: Tolerances = DEFAULT_TOLERANCES) -> SynthesisResult:
    """Optimal hierarchical controller K = P_u^T K~ P_y for the given pair.

    Checks the dimensions of (g, p) and assumptions A2 and A4, then builds
    the pair of Riccati equations once (:func:`control_hamiltonian`,
    :func:`filter_hamiltonian`),
    each a HamiltonianSystem that rejects a singular or ill-conditioned
    weight and gives the gains F2 = -R1^{-1} P_u B2' X and
    L2' = -R2^{-1} P_y C2 Y.  With ``are_backend='exact'`` both are solved
    exactly (:func:`~hierh2.linalg.riccati_from_hamiltonian`); ``x_solution``
    and ``y_solution`` record their doubling and Newton steps and
    ``axis_path``.
    With ``'approx'`` they are replaced by kappa-truncated solutions, of
    which only X~ is computed; their residue certificates
    (``x_solution.stabilizing``, ``y_solution.stabilizing``) are
    diagnostics, computed when read.  The result's ``youla`` holds the pair,
    the gain factors and the real Schur factors of the control block
    A + B2 F and the filter block A + L C2, and stability is decided once
    per block, at -hurwitz_margin, where :func:`youla_data` makes the
    factor: :class:`NotStabilizingGains` names the failing loop, and the
    approx backend raises it as :class:`ApproxNotStabilizing` (raise
    kappa).  The same factors then give the closed-loop H2 value through
    the observer separation.

    The projected PBH hypotheses are decided last (:func:`_check_hypotheses`):
    the stabilizing loop just built certifies them from its Schur factors,
    and when it cannot certify a side, the sigma_min rule decides and
    raises its HypothesisFailure on a failing pair.  When any step above
    raises a ToolkitError or a LinAlgError, the rule runs first, and a
    failing pair raises its HypothesisFailure from that error, so a pair
    the rule rejects is rejected with the rule's message whatever else
    fails.  ``pbh_path`` records which path decided.

    ``solve_time`` measures Riccati solves plus gain assembly, the same
    scope on both backends; building the equations, factoring the two
    loops and closed-loop evaluation are excluded.
    """
    if p.n_u != g.n_u or p.n_y != g.n_y:
        raise HypothesisFailure("projection dimensions do not match the plant")
    try:
        _check_assumptions(g, tol)
        if are_backend not in ("exact", "approx"):
            raise InvalidInput(f"unknown are_backend {are_backend!r}")
        if are_backend == "approx" and kappa is None:
            raise InvalidInput("approx backend requires kappa")
        pair = control_hamiltonian(g, p, tol), filter_hamiltonian(g, p, tol)
        res = _synthesize(g, p, *pair, are_backend, kappa, method, tol)
    except (ToolkitError, np.linalg.LinAlgError) as e:
        _check_hypotheses(g, p, tol, cause=e)   # a failing pair outranks e
        raise
    res.pbh_path = _check_hypotheses(g, p, tol, res.youla)
    return res


def _synthesize(g, p, hs_x, hs_y, are_backend, kappa, method,
                tol: Tolerances) -> SynthesisResult:
    """:func:`synthesize_hierarchical` on the checked pair `p` and its
    equations `hs_x`, `hs_y`.  A dense eigendecomposition made by one call
    is cached on the equation and serves every later call on it."""
    t0 = time.perf_counter()
    if are_backend == "exact":
        x_sol = riccati_from_hamiltonian(hs_x, tol)
        y_sol = riccati_from_hamiltonian(hs_y, tol)
        x, y = x_sol.x, y_sol.x
    else:
        x_sol = approx_are(hs_x, kappa, method=method, tol=tol)
        y_sol = approx_are(hs_y, kappa, method=method, tol=tol)
        x, y = x_sol.xbar, y_sol.xbar
    f2, l2 = hs_x.gain(x), hs_y.gain(y).T
    elapsed = time.perf_counter() - t0
    try:
        yd = youla_data(g, p, f2, l2, tol)
    except NotStabilizingGains as e:
        if are_backend == "exact":
            raise
        raise ApproxNotStabilizing(f"kappa={kappa}: {e}") from e

    return SynthesisResult(
        x=x, y=y, h2_value=_observer_closed_loop_h2(yd, tol),
        solve_time=elapsed, youla=yd, x_solution=x_sol, y_solution=y_sol)


def synthesize_unconstrained(g: GeneralizedPlant,
                             tol: Tolerances = DEFAULT_TOLERANCES) -> SynthesisResult:
    """Standard two-Riccati H2 design: identity projections on both sides."""
    return synthesize_hierarchical(g, ProjectionPair.identity(g.n_u, g.n_y), tol=tol)


@dataclass(frozen=True)
class LinkCount:
    hierarchical: int
    dense: int


def communication_links(partition: ClusterPartition) -> LinkCount:
    """n_s + r(r-1)/2 subsystem-coordinator plus coordinator-pair links,
    against the all-to-all baseline n_s(n_s-1)/2."""
    n_s = partition.n_s
    r = partition.r
    return LinkCount(hierarchical=n_s + r * (r - 1) // 2,
                     dense=n_s * (n_s - 1) // 2)
