"""Hierarchical H2 synthesis via the convex Youla-domain reformulation.

Under projected stabilizability/detectability, the constrained problem over
K = P_u^T K~ P_y reduces to an unconstrained two-Riccati design on the
projected channels: X over (A, B2 P_u^T, C1) and Y over the dual, with the
optimal reduced controller in observer form.  The exact backend solves both
AREs through the full Hamiltonian subspace; the approximate backend swaps in
kappa-truncated solutions.  Either way, the real Schur factors of the two
closed-loop blocks decide stability and then give the closed-loop H2 norm
through the observer separation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (ApproxNotStabilizing, HypothesisFailure, IllConditionedR,
                     NotHurwitz, NotStabilizingGains)
from .hamiltonian import approx_are, build_hamiltonian
from .linalg import (RealSchur, _pbh_modes, solve_are, solve_sylvester,
                     spectral_abscissa, symmetrize)
from .plant import GeneralizedPlant
from .projection import ClusterPartition, ProjectionPair
from .statespace import StateSpace, lft_lower_partitioned

__all__ = [
    "YoulaData", "SynthesisResult", "HierarchicalController", "LinkCount",
    "youla_data", "lft_controller", "synthesize_hierarchical",
    "synthesize_unconstrained", "communication_links",
]


@dataclass
class HierarchicalController:
    """Triple (P_u, K~, P_y) realizing K = P_u^T K~ P_y."""

    p_u: np.ndarray
    k_tilde: StateSpace
    p_y: np.ndarray

    def expand(self) -> StateSpace:
        """Full controller realization (A_K~, B_K~ P_y, P_u^T C_K~, P_u^T D_K~ P_y)."""
        k = self.k_tilde
        return StateSpace(k.a, k.b @ self.p_y, self.p_u.T @ k.c,
                          self.p_u.T @ k.d @ self.p_y)


@dataclass
class YoulaData:
    """Nominal stabilizing gains with the closed-loop parameterization data.

    K_nom maps [y; v] -> [u; e] and T is the 2n-state four-block system with
    f(G, f(K_nom, Q)) = T11 + T12 Q T21 for every stable Q; T22 vanishes
    identically by the block-triangular structure of A_hat.
    """

    f: np.ndarray
    l: np.ndarray
    k_nom: StateSpace
    t: StateSpace
    a_hat: np.ndarray
    b1_hat: np.ndarray
    b2_hat: np.ndarray
    c1_hat: np.ndarray
    c2_hat: np.ndarray
    dims: tuple[int, int, int, int]  # (p1, n_y, m1, n_u) output/input partitions of T

    @property
    def t11(self) -> StateSpace:
        p1, _, m1, _ = self.dims
        return StateSpace(self.a_hat, self.b1_hat, self.c1_hat,
                          np.zeros((p1, m1)))

    @property
    def t12(self) -> StateSpace:
        p1, _, _, n_u = self.dims
        return StateSpace(self.a_hat, self.b2_hat, self.c1_hat, self.t_d12)

    @property
    def t21(self) -> StateSpace:
        _, n_y, m1, _ = self.dims
        return StateSpace(self.a_hat, self.b1_hat, self.c2_hat, self.t_d21)

    @property
    def t22(self) -> StateSpace:
        _, n_y, _, n_u = self.dims
        return StateSpace(self.a_hat, self.b2_hat, self.c2_hat,
                          np.zeros((n_y, n_u)))

    @property
    def t_d12(self) -> np.ndarray:
        p1, ny, m1, nu = self.dims
        return self.t.d[:p1, m1:]

    @property
    def t_d21(self) -> np.ndarray:
        p1, ny, m1, nu = self.dims
        return self.t.d[p1:, :m1]


def youla_data(g: GeneralizedPlant, f=None, l=None,
               tol: Tolerances = DEFAULT_TOLERANCES) -> YoulaData:
    """Assemble K_nom and the closed-loop parameterization system T.

    Any stabilizing pair (F, L) is admissible; by default the unconstrained
    H2 gains are used.  Raises NotStabilizingGains when A + B2 F or A + L C2
    fails to be Hurwitz.
    """
    n, m1, nu, p1, ny = g.n, g.m1, g.n_u, g.p1, g.n_y
    if f is None or l is None:
        base = synthesize_unconstrained(g, tol=tol)
        f = base.p_u_t_f2() if f is None else f
        l = base.l2_p_y() if l is None else l
    f = np.asarray(f, float)
    l = np.asarray(l, float)
    if f.shape != (nu, n) or l.shape != (n, ny):
        raise HypothesisFailure(
            f"gain shapes {f.shape}, {l.shape} do not match plant dims")
    a_f = g.a + g.b2 @ f
    a_l = g.a + l @ g.c2
    if spectral_abscissa(a_f) >= -tol.hurwitz_margin:
        raise NotStabilizingGains("A + B2 F is not Hurwitz")
    if spectral_abscissa(a_l) >= -tol.hurwitz_margin:
        raise NotStabilizingGains("A + L C2 is not Hurwitz")

    k_nom = StateSpace(
        a=g.a + g.b2 @ f + l @ g.c2,
        b=np.hstack([-l, g.b2]),
        c=np.vstack([f, -g.c2]),
        d=np.block([[np.zeros((nu, ny)), np.eye(nu)],
                    [np.eye(ny), np.zeros((ny, nu))]]),
    )

    a_hat = np.block([[a_f, -g.b2 @ f], [np.zeros((n, n)), a_l]])
    b1_hat = np.vstack([g.b1, g.b1 + l @ g.d21])
    b2_hat = np.vstack([g.b2, np.zeros((n, nu))])
    c1_hat = np.hstack([g.c1 + g.d12 @ f, -g.d12 @ f])
    c2_hat = np.hstack([np.zeros((ny, n)), g.c2])
    t = StateSpace(
        a=a_hat,
        b=np.hstack([b1_hat, b2_hat]),
        c=np.vstack([c1_hat, c2_hat]),
        d=np.block([[np.zeros((p1, m1)), g.d12],
                    [g.d21, np.zeros((ny, nu))]]),
    )
    return YoulaData(f=f, l=l, k_nom=k_nom, t=t, a_hat=a_hat, b1_hat=b1_hat,
                     b2_hat=b2_hat, c1_hat=c1_hat, c2_hat=c2_hat,
                     dims=(p1, ny, m1, nu))


def lft_controller(yd: YoulaData, q: StateSpace) -> StateSpace:
    """Controller K = f(K_nom, Q) for a stable Youla parameter Q."""
    _, ny, _, nu = yd.dims
    return lft_lower_partitioned(yd.k_nom, nu, ny, ny, nu, q)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

@dataclass
class SynthesisResult:
    controller: HierarchicalController
    x: np.ndarray
    y: np.ndarray
    f2: np.ndarray
    l2: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    h2_value: float
    solve_time: float
    closed_loop_abscissa: float   # max Re(lambda) of the closed loop
    x_solution: object = None     # AreSolution or ApproxAreSolution
    y_solution: object = None

    def p_u_t_f2(self) -> np.ndarray:
        """Projection-structured state feedback P_u^T F2 (stabilizes A)."""
        return self.controller.p_u.T @ self.f2

    def l2_p_y(self) -> np.ndarray:
        """Projection-structured output injection L2 P_y (stabilizes A)."""
        return self.l2 @ self.controller.p_y


def _spd_solve(r: np.ndarray, rhs: np.ndarray, what: str,
               tol: Tolerances) -> np.ndarray:
    if np.linalg.cond(r) > tol.cond_max:
        raise IllConditionedR(f"{what} condition number exceeds {tol.cond_max:.1e}")
    return sla.cho_solve(sla.cho_factor(symmetrize(r)), rhs)


def _check_hypotheses(g: GeneralizedPlant, p: ProjectionPair, tol: Tolerances):
    if p.n_u != g.n_u or p.n_y != g.n_y:
        raise HypothesisFailure("projection dimensions do not match the plant")
    eigs = np.linalg.eigvals(g.a)   # also the spectrum of A' for the dual test
    if _pbh_modes(g.a, g.b2 @ p.p_u.T, tol, eigs).size:
        raise HypothesisFailure("(A, B2 P_u^T) is not stabilizable")
    if _pbh_modes(g.a.T, (p.p_y @ g.c2).T, tol, eigs).size:
        raise HypothesisFailure("(P_y C2, A) is not detectable")
    w12 = np.linalg.eigvalsh(g.d12.T @ g.d12)
    w21 = np.linalg.eigvalsh(g.d21 @ g.d21.T)
    if (w12.size and w12.min() <= 0.0) or (w21.size and w21.min() <= 0.0):
        raise HypothesisFailure("assumption A2 fails (D12/D21 weights singular)")
    if (np.linalg.norm(g.d12.T @ g.c1, "fro") > 1e-12
            or np.linalg.norm(g.b1 @ g.d21.T, "fro") > 1e-12):
        raise HypothesisFailure("assumption A4 fails (cross terms non-zero)")


def _observer_closed_loop_h2(g: GeneralizedPlant, p: ProjectionPair,
                             f2: np.ndarray, l2: np.ndarray, ctrl: RealSchur,
                             filt: RealSchur, tol: Tolerances) -> tuple[float, float]:
    """(H2 value, closed-loop abscissa) using the observer separation.

    In (x, e = x - xhat) coordinates the closed loop is block triangular
    with diagonal blocks A + B2 Pu' F2 (control) and A + L2 Py C2 (filter),
    whose real Schur factors `ctrl`, `filt` the caller supplies.  They decide
    stability, raising NotHurwitz naming a block with an eigenvalue at
    Re >= -hurwitz_margin, then split the Gramian into one Lyapunov solve
    per block plus one Sylvester coupling; this equals
    h2_norm(lft_lower(G, K)) without a Schur form of the 2n matrix.
    """
    for f, side in ((ctrl, "control"), (filt, "filter")):
        if f.abscissa >= -tol.hurwitz_margin:
            raise NotHurwitz(f"the {side} loop has spectral abscissa "
                             f"{f.abscissa:.3e} >= {-tol.hurwitz_margin:.1e}")

    a12 = -g.b2 @ (p.p_u.T @ f2)
    b_top = g.b1
    b_bot = g.b1 + (l2 @ p.p_y) @ g.d21
    c_left = g.c1 + g.d12 @ (p.p_u.T @ f2)
    c_right = -g.d12 @ (p.p_u.T @ f2)

    phi22 = solve_sylvester(filt, filt, b_bot @ b_bot.T, tol)
    phi12 = solve_sylvester(ctrl, filt, b_top @ b_bot.T + a12 @ phi22, tol)
    q11 = b_top @ b_top.T + a12 @ phi12.T + phi12 @ a12.T
    phi11 = solve_sylvester(ctrl, ctrl, q11, tol)
    val = (np.trace(c_left @ phi11 @ c_left.T)
           + 2.0 * np.trace(c_left @ phi12 @ c_right.T)
           + np.trace(c_right @ phi22 @ c_right.T))
    return (float(np.sqrt(max(val, 0.0))),
            max(ctrl.abscissa, filt.abscissa))


def synthesize_hierarchical(g: GeneralizedPlant, p: ProjectionPair,
                            are_backend: str = "exact", kappa: int | None = None,
                            method: str = "dense",
                            tol: Tolerances = DEFAULT_TOLERANCES) -> SynthesisResult:
    """Optimal hierarchical controller K = P_u^T K~ P_y for the given pair.

    With ``are_backend='exact'`` both Riccati equations are solved through
    the full stable Hamiltonian subspace.  With ``'approx'`` they are
    replaced by kappa-truncated solutions; their residue certificates
    (``x_solution.stabilizing``, ``y_solution.stabilizing``) are recorded
    as diagnostics only.  Stability is decided once, from the real Schur
    factors of the control block A + B2 P_u^T F2 and the filter block
    A + L2 P_y C2: an eigenvalue with Re >= -hurwitz_margin raises
    :class:`ApproxNotStabilizing` naming the failing side (approx; raise
    kappa) or :class:`NotHurwitz` (exact).  The exact backend reuses the
    Riccati closed-loop factors for them; the approx backend, whose
    truncated solutions have none, factors both blocks.  The same factors
    then give the closed-loop H2 value through the observer separation.

    ``solve_time`` measures Riccati solves plus gain assembly; closed-loop
    evaluation is excluded.
    """
    _check_hypotheses(g, p, tol)
    if are_backend not in ("exact", "approx"):
        raise ValueError(f"unknown are_backend {are_backend!r}")
    if are_backend == "approx" and kappa is None:
        raise ValueError("approx backend requires kappa")

    r1 = symmetrize(p.p_u @ g.d12.T @ g.d12 @ p.p_u.T)
    r2 = symmetrize(p.p_y @ g.d21 @ g.d21.T @ p.p_y.T)
    b2pu = g.b2 @ p.p_u.T
    c2py = (p.p_y @ g.c2).T

    t0 = time.perf_counter()
    x_sol = y_sol = None
    if are_backend == "exact":
        x_sol = solve_are(g.a, b2pu, g.c1, r1, tol, check_stabilizable=False)
        y_sol = solve_are(g.a.T, c2py, g.b1.T, r2, tol, check_stabilizable=False)
        x, y = x_sol.x, y_sol.x
    else:
        hs_x = build_hamiltonian(g.a, b2pu, g.c1, r1, tol)
        x_sol = approx_are(hs_x, kappa, method=method, tol=tol)
        hs_y = build_hamiltonian(g.a.T, c2py, g.b1.T, r2, tol)
        y_sol = approx_are(hs_y, kappa, method=method, tol=tol)
        x, y = x_sol.xbar, y_sol.xbar

    f2 = -_spd_solve(r1, p.p_u @ g.b2.T @ x, "R1", tol)
    l2 = -_spd_solve(r2, p.p_y @ g.c2 @ y, "R2", tol).T
    elapsed = time.perf_counter() - t0

    if are_backend == "exact":
        ctrl, filt = x_sol.closed_loop, y_sol.closed_loop.transposed()
    else:
        ctrl = RealSchur.of(g.a + g.b2 @ (p.p_u.T @ f2))
        filt = RealSchur.of(g.a + (l2 @ p.p_y) @ g.c2)
    try:
        h2, abscissa = _observer_closed_loop_h2(g, p, f2, l2, ctrl, filt, tol)
    except NotHurwitz as e:
        if are_backend == "approx":
            raise ApproxNotStabilizing(f"kappa={kappa}: {e}") from e
        raise

    k_tilde = StateSpace(
        a=g.a + g.b2 @ p.p_u.T @ f2 + l2 @ p.p_y @ g.c2,
        b=-l2, c=f2, d=np.zeros((f2.shape[0], l2.shape[1])))
    controller = HierarchicalController(p_u=p.p_u, k_tilde=k_tilde, p_y=p.p_y)
    return SynthesisResult(
        controller=controller, x=x, y=y, f2=f2, l2=l2, r1=r1, r2=r2,
        h2_value=h2, solve_time=elapsed,
        closed_loop_abscissa=abscissa, x_solution=x_sol, y_solution=y_sol)


def synthesize_unconstrained(g: GeneralizedPlant, are_backend: str = "exact",
                             kappa: int | None = None, method: str = "dense",
                             tol: Tolerances = DEFAULT_TOLERANCES) -> SynthesisResult:
    """Standard two-Riccati H2 design: identity projections on both sides."""
    p = ProjectionPair(np.eye(g.n_u), np.eye(g.n_y))
    return synthesize_hierarchical(g, p, are_backend=are_backend, kappa=kappa,
                                   method=method, tol=tol)


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
