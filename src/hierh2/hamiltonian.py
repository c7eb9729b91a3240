"""Truncated Riccati solutions from Hamiltonian eigenspaces.

The stabilizing ARE solution is X = Z2 Z1^{-1} over the full stable
invariant subspace of H = [[A, -M], [-C1'C1, -A']].  Retaining only the
kappa smallest-magnitude stable eigenvalues gives the truncated
X~ = Z2k (Z2k' Z1k)^{-1} Z2k', whose weighted error admits the computable
bound eps * ||E_k||_F, with eps read off the closed-loop Gramian in the
eigenbasis by :func:`error_bound`, the one route to eps.  A residue
factorization supplies a cheap sufficient stability certificate for A - M X~.

The eigenpairs come from one dense eigendecomposition of H or, for large
sparse A, from one structured shift-invert ARPACK run at a real shift
(:func:`_krylov_stable_blocks`); a failed run raises, with no retry.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (ArnoldiNoConvergence, DimensionMismatch,
                     ImaginaryAxisEigenvalue, SingularPencil, SingularR,
                     SingularZ1)
from .linalg import (RealSchur, StableSubspace, _check_imag_axis,
                     _group_conjugates, _on_axis, _pbh_rank_deficient,
                     _realify_sorted, solve_lyapunov, solve_sylvester,
                     sqrt_psd, stable_eigenspace, symmetrize)
from .statespace import as_matrix

__all__ = [
    "HamiltonianSystem", "ApproxAreSolution", "build_hamiltonian",
    "approx_are", "error_bound", "exact_error_norm", "stability_test",
    "cauchy_coefficients",
]


@dataclass
class HamiltonianSystem:
    """Hamiltonian data for one Riccati equation, kept in factored form.

    `a` is the dense state matrix; `n_gain` is the effective input matrix
    (B2 P_u^T for the projected design), `r1` the positive definite weight,
    and `c1` the performance output.  M = n_gain R1^{-1} n_gain' is formed
    on demand; the Krylov path never densifies H.
    """

    a: object
    n_gain: np.ndarray
    c1: np.ndarray
    r1: np.ndarray
    _r1_chol: object = field(repr=False, default=None)
    _full: StableSubspace | None = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> np.ndarray:
        return self.n_gain @ sla.cho_solve(self._r1_chol, self.n_gain.T)

    @property
    def ctc(self) -> np.ndarray:
        return self.c1.T @ self.c1

    @property
    def h(self) -> np.ndarray:
        return np.block([[self.a, -self.m], [-self.ctc, -self.a.T]])

    def full_subspace(self, tol: Tolerances = DEFAULT_TOLERANCES) -> StableSubspace:
        """Full realified stable subspace (cached; dense computation)."""
        if self._full is None:
            self._full = stable_eigenspace(self.h, tol=tol)
        return self._full


def build_hamiltonian(a, b2pu, c1, r1,
                      tol: Tolerances = DEFAULT_TOLERANCES) -> HamiltonianSystem:
    """Assemble the Hamiltonian system for A'X + XA + C1'C1 - X M X = 0
    with M = b2pu R1^{-1} b2pu'.
    """
    a = as_matrix(a, "A")
    b2pu = as_matrix(b2pu, "B2Pu")
    c1 = as_matrix(c1, "C1")
    r1 = symmetrize(as_matrix(r1, "R1"))
    n = a.shape[0]
    if a.shape != (n, n) or b2pu.shape[0] != n or c1.shape[1] != n:
        raise DimensionMismatch("build_hamiltonian: incompatible shapes")
    if r1.shape != (b2pu.shape[1],) * 2:
        raise DimensionMismatch("R1 must be r x r for the effective input")
    try:
        chol = sla.cho_factor(r1)
    except sla.LinAlgError as e:
        raise SingularR(f"R1 is not positive definite: {e}") from e
    return HamiltonianSystem(a=a, n_gain=b2pu, c1=c1, r1=r1, _r1_chol=chol)


@dataclass
class ApproxAreSolution:
    """kappa-truncated Riccati solution with diagnostics.

    e_kappa_norm and subspace_full need the complement subspace and are None
    on the Krylov path; :func:`error_bound` reads the bound off them.
    `stabilizing` records the residue-based sufficient certificate
    (:func:`stability_test`); it is a diagnostic only, since
    :func:`~hierh2.synthesis.synthesize_hierarchical` decides stability from
    the closed-loop abscissa.
    """

    xbar: np.ndarray
    kappa: int
    lambda_kappa: np.ndarray
    residue_factor: np.ndarray
    stabilizing: bool
    e_kappa_norm: float | None = None
    subspace_full: StableSubspace | None = None
    method: str = "dense"


def _truncated_solution(sub_k: StableSubspace, tol: Tolerances):
    """X~ and the pencil solve shared by the truncated formulas."""
    z1k, z2k = sub_k.z1, sub_k.z2
    gram = symmetrize(z2k.T @ z1k)
    if np.linalg.cond(gram) > tol.cond_max:
        raise SingularPencil(f"cond(Z2k' Z1k) = {np.linalg.cond(gram):.3e}")
    w = sla.solve(gram, z2k.T, assume_a="sym")
    xbar = symmetrize(z2k @ w)
    return xbar, gram


def approx_are(hs: HamiltonianSystem, kappa: int, method: str = "dense",
               tol: Tolerances = DEFAULT_TOLERANCES) -> ApproxAreSolution:
    """Truncated stabilizing-solution approximation X~ from kappa eigenpairs.

    Retains the kappa smallest-magnitude stable eigenvalues of H (conjugate
    pairs kept atomic, bumping kappa by one with a warning when split).  The
    dense method also keeps the full stable subspace and the norm of the
    truncation factor E_k, which :func:`error_bound` needs; the Krylov method
    leaves both unavailable and makes one shift-invert attempt
    (:func:`_krylov_stable_blocks`).  It sees at most 2n - 2 of the 2n
    eigenvalues, so at kappa = n it can miss a stable one and raise; the
    dense method serves that case.  The residue factor C1bar and the
    sufficient stability test are always computed.

    Raises
    ------
    SingularPencil : Z2k' Z1k too ill conditioned.
    ImaginaryAxisEigenvalue : H has eigenvalues numerically on jR.
    ArnoldiNoConvergence : the one Krylov attempt failed; the message names
        the cause.
    """
    n = hs.n
    if not 1 <= kappa <= n:
        raise ValueError(f"kappa must be in [1, {n}], got {kappa}")
    if method not in ("dense", "krylov"):
        raise ValueError(f"unknown method {method!r}")

    if method == "dense":
        full = hs.full_subspace(tol)
        sub_k = full.head(kappa)
        xbar, gram = _truncated_solution(sub_k, tol)
        kcols = sub_k.k
        tail = full.tail_from(kcols)
        if tail.k:
            e_k = tail.z2 - sub_k.z2 @ sla.solve(gram, sub_k.z2.T @ tail.z1,
                                                 assume_a="sym")
            e_norm = float(np.linalg.norm(e_k, "fro"))
        else:
            e_norm = 0.0
        sol = ApproxAreSolution(
            xbar=xbar, kappa=kcols, lambda_kappa=sub_k.eigenvalues,
            residue_factor=_residue_factor(hs.c1, sub_k, gram),
            stabilizing=False, e_kappa_norm=e_norm, subspace_full=full,
            method="dense")
    else:
        sub_k = _krylov_stable_blocks(hs, kappa, tol)
        xbar, gram = _truncated_solution(sub_k, tol)
        sol = ApproxAreSolution(
            xbar=xbar, kappa=sub_k.k, lambda_kappa=sub_k.eigenvalues,
            residue_factor=_residue_factor(hs.c1, sub_k, gram),
            stabilizing=False, method="krylov")
    sol.stabilizing = stability_test(sol, hs.a, hs.c1, tol)
    return sol


def _residue_factor(c1: np.ndarray, sub_k: StableSubspace, gram: np.ndarray) -> np.ndarray:
    """C1bar = C1 [I - Z1k (Z1k' Z2k)^{-1} Z2k'] from the residue identity."""
    inner = sub_k.z1 @ sla.solve(gram, sub_k.z2.T, assume_a="sym")
    return c1 - (c1 @ inner)


# ---------------------------------------------------------------------------
# Error bound (Cauchy-structured eigenbasis Gramian)
# ---------------------------------------------------------------------------

def cauchy_coefficients(sub: StableSubspace, b1: np.ndarray,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Gramian coefficients C with Phi = Z1 C Z1' for the closed loop.

    Solves Lambda C + C Lambda' = -G G', G = Z1^{-1} B1, over the full
    stable subspace `sub` with the package's one Sylvester kernel on the
    real Schur factors of its block-diagonal Lambda; for real simple
    eigenvalues this is the Cauchy form C_ij = -[G G']_ij / (lambda_i + lambda_j).
    """
    z1 = sub.z1
    n = z1.shape[0]
    if z1.shape != (n, n):
        raise SingularZ1("cauchy_coefficients needs the full square Z1")
    if np.linalg.cond(z1) > tol.cond_max:
        raise SingularZ1(f"cond(Z1) = {np.linalg.cond(z1):.3e}")
    g = sla.solve(z1, as_matrix(b1, "B1"))
    f = RealSchur.of(sub.lam)
    return solve_sylvester(f, f, g @ g.T, tol)


def error_bound(sol: ApproxAreSolution, b1,
                tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[float, float]:
    """(epsilon, epsilon * ||E_k||_F) for the truncation at sol.kappa; the
    package's one route to epsilon.

    epsilon = sqrt(sum of the complement diagonal of the eigenbasis
    Gramian on ``sol.subspace_full``); tiny negative diagonal entries are
    clipped at zero, with a warning above psd_floor magnitude, and an empty
    complement gives 0.  Requires the dense approximation path.
    """
    full = sol.subspace_full
    if full is None or sol.e_kappa_norm is None:
        raise ValueError("error_bound requires the complement subspace "
                         "(dense approximation path)")
    c = cauchy_coefficients(full, b1, tol)
    diag_tail = np.diag(c)[sol.kappa:]
    bad = diag_tail[diag_tail < -tol.psd_floor]
    if bad.size:
        warnings.warn(
            f"clipped {bad.size} negative Gramian diagonal entries "
            f"(min {bad.min():.3e})")
    eps = float(np.sqrt(np.clip(diag_tail, 0.0, None).sum()))
    return eps, eps * sol.e_kappa_norm


def exact_error_norm(x: np.ndarray, xbar: np.ndarray, a, m, b1,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Closed-loop-weighted error ||(X - X~) Phi^{1/2}||_F with
    Phi = LYAP(A - M X, B1); equals the H2 norm of the weighted error system.
    Raises NotHurwitz when A - M X is not Hurwitz.
    """
    acl = as_matrix(a, "A") - as_matrix(m, "M") @ x
    phi = solve_lyapunov(acl, b1, tol)
    return float(np.linalg.norm((x - xbar) @ sqrt_psd(phi, tol), "fro"))


def stability_test(sol: ApproxAreSolution, a, c1,
                   tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Sufficient residue-based test that X~ is stabilizing.

    True iff lambda_min(C1'C1 - C1bar'C1bar) >= -floor max(1, ||C1'C1||_2),
    floor = ``stability_test_floor``, and the pair has no unobservable
    imaginary-axis modes of A.  Sufficient only: a False result
    does not mean A - M X~ is unstable, so synthesis records it as a
    diagnostic and decides stability from the closed-loop eigenvalues.
    """
    a = as_matrix(a, "A")
    c1 = as_matrix(c1, "C1")
    cbar = sol.residue_factor
    d = symmetrize(c1.T @ c1 - cbar.T @ cbar)
    lam = np.linalg.eigvalsh(d).min()
    floor = tol.stability_test_floor
    # ||C1'C1||_2 <= ||C1||_F^2 settles most cases without a second eigensolve
    if lam < -floor * max(1.0, np.linalg.norm(c1, "fro") ** 2):
        return False
    if lam < -floor and lam < -floor * np.linalg.eigvalsh(c1.T @ c1)[-1]:
        return False
    eigs = np.linalg.eigvals(a)
    on_axis = eigs[_on_axis(eigs, tol)]
    # unobservable modes of (D, A) are the uncontrollable ones of (A', D)
    scale = max(1.0, np.linalg.norm(a, "fro"), np.linalg.norm(d, "fro"))
    return not _pbh_rank_deficient(a.T, d, on_axis, tol.pbh_rel * scale).any()


# ---------------------------------------------------------------------------
# Structured shift-invert Arnoldi
# ---------------------------------------------------------------------------

def _smw_shift_invert(hs: HamiltonianSystem, sigma: float, a_sp, c1_sp):
    """Solver for (H - sigma I)^{-1} at a real shift, exploiting H = S + low-rank.

    S = [[A, 0], [-C1'C1, -A']] is block triangular, so the shifted solve
    needs only sparse LU factors of (A - sigma I) and (-A' - sigma I); the
    rank-r correction [[0, -M], [0, 0]] enters through a Woodbury update.
    `a_sp` and `c1_sp` are the CSC copies of A and C1 that the H matvec
    also uses.  Raises RuntimeError when a shifted LU factor is singular.
    """
    n = hs.n
    r = hs.n_gain.shape[1]
    c1_t = c1_sp.T
    eye = sp.identity(n, format="csc")
    lu1 = spla.splu((a_sp - sigma * eye).tocsc())
    lu2 = spla.splu((-a_sp.T - sigma * eye).tocsc())

    def s_solve(b):
        z1 = lu1.solve(b[:n])
        z2 = lu2.solve(b[n:] + c1_t @ (c1_sp @ z1))
        return np.concatenate([z1, z2])

    u = np.zeros((2 * n, r))
    u[:n] = hs.n_gain
    su = np.column_stack([s_solve(u[:, j]) for j in range(r)])

    def v_t(x):
        return -sla.cho_solve(hs._r1_chol, hs.n_gain.T @ x[n:])

    cap = np.eye(r) + np.column_stack([v_t(su[:, j]) for j in range(r)])
    cap_lu = sla.lu_factor(cap)

    def apply(b):
        t = s_solve(np.asarray(b, dtype=float))
        return t - su @ sla.lu_solve(cap_lu, v_t(t))

    return apply


def _h_matvec(hs: HamiltonianSystem, a_sp, c1_sp):
    n = hs.n
    a_t, c1_t = a_sp.T, c1_sp.T

    def apply(x):
        x1, x2 = x[:n], x[n:]
        top = a_sp @ x1 - hs.n_gain @ sla.cho_solve(hs._r1_chol, hs.n_gain.T @ x2)
        bot = -(c1_t @ (c1_sp @ x1)) - a_t @ x2
        return np.concatenate([top, bot])

    return apply


def _krylov_stable_blocks(hs: HamiltonianSystem, kappa: int,
                          tol: Tolerances) -> StableSubspace:
    """kappa smallest-magnitude stable eigenpairs via structured shift-invert.

    One ARPACK run (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, 1998) in
    real arithmetic at the real shift sigma = -0.02 scale, with
    scale = max(1, sum|A_ij| / n), asks for min(2 kappa + 10, 2n - 2) Ritz
    pairs from a fixed start vector.  Real-mode ARPACK returns each complex
    pair as exact conjugates, so :func:`~hierh2.linalg._group_conjugates`
    needs no matching tolerance.  Every failure raises
    ArnoldiNoConvergence naming its cause: a singular shifted LU factor, an
    ARPACK error or non-convergence, fewer than kappa stable columns, or a
    block residual ||H Z - Z Lambda||_F above 1e-6 max(1, ||H Z||_F).
    """
    n = hs.n
    a_sp = sp.csc_matrix(hs.a)
    c1_sp = sp.csc_matrix(hs.c1)
    h_apply = _h_matvec(hs, a_sp, c1_sp)
    sigma = -0.02 * max(1.0, np.abs(hs.a).sum() / n)
    k_req = min(2 * kappa + 10, 2 * n - 2)
    try:
        op_inv = _smw_shift_invert(hs, sigma, a_sp, c1_sp)
    except RuntimeError as e:
        raise ArnoldiNoConvergence(
            f"shifted LU at sigma={sigma:.3e} is singular: {e}") from e
    lin_h = spla.LinearOperator((2 * n, 2 * n), matvec=h_apply, dtype=float)
    lin_inv = spla.LinearOperator((2 * n, 2 * n), matvec=op_inv, dtype=float)
    # a fixed ARPACK start vector makes the eigenpairs, and so X~ and the
    # closed-loop H2 value, the same from run to run
    v0 = np.random.default_rng(0).standard_normal(2 * n)
    try:
        vals, vecs = spla.eigs(lin_h, k=k_req, sigma=sigma, OPinv=lin_inv,
                               which="LM", v0=v0)
    except spla.ArpackError as e:   # ArpackNoConvergence is a subclass
        raise ArnoldiNoConvergence(
            f"ARPACK at sigma={sigma:.3e}, k={k_req}: {e}") from e
    _check_imag_axis(vals, tol, ImaginaryAxisEigenvalue)
    sel = vals.real < 0
    reps = _group_conjugates(vals[sel], vecs[:, sel])
    ncols = sum(2 if p else 1 for _, _, p in reps)
    if ncols < kappa:
        raise ArnoldiNoConvergence(
            f"{ncols} stable columns from {k_req} Ritz pairs, kappa={kappa}")
    sub = _realify_sorted(reps, n).head(kappa)
    z = np.vstack([sub.z1, sub.z2])
    hz = np.column_stack([h_apply(z[:, j]) for j in range(z.shape[1])])
    res = np.linalg.norm(hz - z @ sub.lam, "fro")
    if res > 1e-6 * max(1.0, float(np.linalg.norm(hz, "fro"))):
        raise ArnoldiNoConvergence(f"block residual {res:.3e}")
    return sub
