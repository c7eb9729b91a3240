"""Truncated Riccati solutions from Hamiltonian eigenspaces.

The stabilizing ARE solution is X = Z2 Z1^{-1} over the full stable
invariant subspace of H = [[A, -M], [-C1'C1, -A']].  Retaining only the
kappa smallest-magnitude stable eigenvalues gives the truncated
X~ = Z2k (Z2k' Z1k)^{-1} Z2k', whose weighted error admits the computable
bound eps * ||E_k||_F, with eps read off the closed-loop Gramian in the
eigenbasis by :func:`error_bound`, the one route to eps.  A residue
factorization supplies a cheap sufficient stability certificate for A - M X~,
computed when read.  Both Riccati backends solve from one
:class:`HamiltonianSystem` per equation, whose one Cholesky factor of R
serves M, the Krylov operators and the gain (:meth:`HamiltonianSystem.gain`).

The eigenpairs come from one dense eigendecomposition of H or, for large
sparse A, from one structured shift-invert ARPACK run at a real shift
(:func:`_krylov_stable_blocks`); a failed run raises, with no retry.  Both
paths raise :class:`~hierh2.errors.HamiltonianImaginaryAxis` for an
eigenvalue on jR and accept the realified block Z, Lambda by one rule,
||H Z - Z Lambda||_F <= subspace_residual max(1, ||H Z||_F)
(:func:`~hierh2.linalg._require_invariant`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (ArnoldiNoConvergence, DimensionMismatch,
                     IllConditionedR, InvalidInput, SingularPencil, SingularR,
                     SingularZ1)
from .linalg import (RealSchur, StableSubspace, _on_axis, _pbh_rank_deficient,
                     _require_conditioned, _require_invariant, _stable_set,
                     solve_lyapunov, solve_sylvester, sqrt_psd,
                     stable_eigenspace, symmetrize)
from .statespace import as_matrix

__all__ = [
    "HamiltonianSystem", "ApproxAreSolution", "build_hamiltonian",
    "approx_are", "error_bound", "exact_error_norm", "stability_test",
    "cauchy_coefficients",
]


@dataclass
class HamiltonianSystem:
    """Hamiltonian data for one Riccati equation, kept in factored form.

    `a` is the dense state matrix, `n_gain` the effective input matrix N
    (B2 P_u^T for the projected design) and `c1` the performance output.
    The weight R is kept only as the Cholesky factor that
    :func:`build_hamiltonian` made; :meth:`gain` and M = N R^{-1} N' solve
    with it.  M and Q = C1'C1 are formed, symmetrized, when read, and H is
    assembled only by :attr:`h`.  The exact solver reads M and Q once per
    solve and works on them as n x n blocks; it decomposes H, through
    :meth:`full_subspace`, only when its doubling fails or leaves a loop
    the axis check refuses.  The dense path decomposes H, and the Krylov
    path never forms M, Q or H.
    """

    a: object
    n_gain: np.ndarray
    c1: np.ndarray
    _r1_chol: object = field(repr=False, default=None)
    _full: dict = field(repr=False, default_factory=dict)
    _gramian: dict = field(repr=False, default_factory=dict)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> np.ndarray:
        return symmetrize(self.n_gain @ sla.cho_solve(self._r1_chol,
                                                      self.n_gain.T))

    def gain(self, x: np.ndarray) -> np.ndarray:
        """-R^{-1} N' x, the optimal gain of a solution x = X."""
        return -sla.cho_solve(self._r1_chol, self.n_gain.T @ x)

    @property
    def ctc(self) -> np.ndarray:
        return symmetrize(self.c1.T @ self.c1)

    @property
    def h(self) -> np.ndarray:
        return np.block([[self.a, -self.m], [-self.ctc, -self.a.T]])

    def full_subspace(self, tol: Tolerances = DEFAULT_TOLERANCES) -> StableSubspace:
        """Full realified stable subspace, accepted under `tol` (dense
        computation, cached per tolerance set, so that a call under another
        `tol` runs that tolerance's acceptance rule)."""
        if tol not in self._full:
            self._full[tol] = stable_eigenspace(self.h, tol=tol)
        return self._full[tol]

    def full_gramian(self, b1: np.ndarray,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
        """Eigenbasis Gramian coefficients of `b1` on
        :meth:`full_subspace` (:func:`cauchy_coefficients`), cached per
        tolerance set for the B1 they were made for; another B1 replaces
        them.  They do not depend on kappa, so every truncation of the
        equation shares one solve."""
        made = self._gramian.get(tol)
        if made is None or not np.array_equal(made[0], b1):
            made = self._gramian[tol] = (
                np.array(b1, float),
                cauchy_coefficients(self.full_subspace(tol), b1, tol))
        return made[1]


def build_hamiltonian(a, b2pu, c1, r1,
                      tol: Tolerances = DEFAULT_TOLERANCES) -> HamiltonianSystem:
    """Assemble the Hamiltonian system for A'X + XA + C1'C1 - X M X = 0
    with M = b2pu R1^{-1} b2pu'; the system keeps the factor of R1.

    Raises
    ------
    DimensionMismatch : A, B, C or R1 have incompatible shapes, or the
        effective input has no columns (a plant with no control input or no
        measurement: there is no equation to solve).
    SingularR : R1 is not positive definite (its factorization fails).
    IllConditionedR : cond(R1) exceeds ``cond_max``.  R1 is SPD once its
        factor exists, so cond(R1) is lambda_max / lambda_min from
        ``scipy.linalg.eigvalsh``, infinite when lambda_min <= 0.
    """
    a = as_matrix(a, "A")
    b2pu = as_matrix(b2pu, "B2Pu")
    c1 = as_matrix(c1, "C1")
    r1 = symmetrize(as_matrix(r1, "R1"))
    n = a.shape[0]
    if a.shape != (n, n) or b2pu.shape[0] != n or c1.shape[1] != n:
        raise DimensionMismatch("Riccati data A, B, C have incompatible shapes")
    if b2pu.shape[1] == 0:
        raise DimensionMismatch("the Riccati input has no columns")
    if r1.shape != (b2pu.shape[1],) * 2:
        raise DimensionMismatch("R1 must be r x r for the effective input")
    try:
        chol = sla.cho_factor(r1)
    except sla.LinAlgError as e:
        raise SingularR(f"R1 is not positive definite: {e}") from e
    w = sla.eigvalsh(r1)
    _require_conditioned(w[-1] / w[0] if w[0] > 0 else np.inf, tol,
                         IllConditionedR, "R1")
    return HamiltonianSystem(a=a, n_gain=b2pu, c1=c1, _r1_chol=chol)


@dataclass
class ApproxAreSolution:
    """kappa-truncated Riccati solution of the equation `hs`.

    X~ is kept as its factors: the retained block Z2k (``subspace.z2``) and
    the pencil Gramian Z2k'Z1k (`gram`), the only product computed up
    front.  The dense n x n X~ is formed when first read (`xbar`) and
    cached; :meth:`form_xbar` forms it without keeping it, for a caller
    that needs it once, such as the gain of a synthesis.  The residue
    factor C1bar, ||E_k||_F and the residue certificate `stabilizing`
    (:func:`stability_test`; a diagnostic only, since synthesis decides
    stability from the closed-loop abscissa) are likewise computed on first
    read and cached.  `e_kappa_norm` and `subspace_full` are None on the
    Krylov path.
    """

    hs: HamiltonianSystem
    subspace: StableSubspace
    gram: np.ndarray
    method: str
    tol: Tolerances

    def form_xbar(self) -> np.ndarray:
        """X~ = Z2k (Z2k' Z1k)^{-1} Z2k', formed anew and not kept."""
        z2k = self.subspace.z2
        return symmetrize(z2k @ sla.solve(self.gram, z2k.T, assume_a="sym"))

    @cached_property
    def xbar(self) -> np.ndarray:
        return self.form_xbar()

    @property
    def kappa(self) -> int:
        return self.subspace.k

    @property
    def lambda_kappa(self) -> np.ndarray:
        return self.subspace.eigenvalues

    @property
    def subspace_full(self) -> StableSubspace | None:
        return self.hs.full_subspace(self.tol) if self.method == "dense" else None

    @cached_property
    def residue_factor(self) -> np.ndarray:
        return _residue_factor(self.hs.c1, self.subspace, self.gram)

    @cached_property
    def e_kappa_norm(self) -> float | None:
        full = self.subspace_full
        if full is None:
            return None
        k, z2k = self.kappa, self.subspace.z2
        if full.k == k:
            return 0.0
        coupling = sla.solve(self.gram, z2k.T @ full.z1[:, k:], assume_a="sym")
        return float(np.linalg.norm(full.z2[:, k:] - z2k @ coupling, "fro"))

    @cached_property
    def stabilizing(self) -> bool:
        return stability_test(self, self.tol)


def approx_are(hs: HamiltonianSystem, kappa: int, method: str = "dense",
               tol: Tolerances = DEFAULT_TOLERANCES) -> ApproxAreSolution:
    """Truncated stabilizing-solution approximation X~ from kappa eigenpairs.

    Retains the kappa smallest-magnitude stable eigenvalues of H (conjugate
    pairs kept atomic, bumping kappa by one with a warning when split).  The
    dense method takes them from the full stable subspace, cached on `hs`,
    which :func:`error_bound` also needs; the Krylov method leaves it
    unavailable and makes one shift-invert attempt
    (:func:`_krylov_stable_blocks`).  It sees at most 2n - 2 of the 2n
    eigenvalues, so at kappa = n it can miss a stable one and raise; the
    dense method serves that case.  X~ is kept as its factors here, and
    the dense X~, the residue factor, E_k and the stability certificate
    wait for their first read (:class:`ApproxAreSolution`).

    Either method accepts its eigenpair block Z, Lambda only when
    ||H Z - Z Lambda||_F <= subspace_residual max(1, ||H Z||_F)
    (:func:`~hierh2.linalg._require_invariant`).

    Raises
    ------
    SingularPencil : Z2k' Z1k too ill conditioned.
    HamiltonianImaginaryAxis : H has an eigenvalue numerically on jR, on
        either method.
    NumericalError : the dense block fails the acceptance rule.
    ArnoldiNoConvergence : the one Krylov attempt failed, or its block fails
        the acceptance rule; the message names the cause.
    """
    n = hs.n
    if not 1 <= kappa <= n:
        raise InvalidInput(f"kappa must be in [1, {n}], got {kappa}")
    if method not in ("dense", "krylov"):
        raise InvalidInput(f"unknown method {method!r}")
    if method == "dense":
        sub_k = hs.full_subspace(tol).head(kappa)
    else:
        sub_k = _krylov_stable_blocks(hs, kappa, tol)
    z1k, z2k = sub_k.z1, sub_k.z2
    gram = symmetrize(z2k.T @ z1k)
    _require_conditioned(np.linalg.cond(gram), tol, SingularPencil, "Z2k' Z1k")
    return ApproxAreSolution(hs=hs, subspace=sub_k, gram=gram, method=method,
                             tol=tol)


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
    _require_conditioned(np.linalg.cond(z1), tol, SingularZ1, "Z1")
    g = sla.solve(z1, as_matrix(b1, "B1"))
    f = RealSchur.of(sub.lam)
    return solve_sylvester(f, f, g @ g.T, tol)


def error_bound(sol: ApproxAreSolution, b1,
                tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[float, float]:
    """(epsilon, epsilon * ||E_k||_F) for the truncation at sol.kappa; the
    package's one route to epsilon.

    epsilon = sqrt(sum of the complement diagonal of the eigenbasis
    Gramian on the full subspace, solved once per equation, `tol` and B1
    (:meth:`HamiltonianSystem.full_gramian`)); tiny negative diagonal entries are
    clipped at zero, with a warning above psd_floor magnitude, and an empty
    complement gives 0.  Requires the dense approximation path; reads
    ``sol.e_kappa_norm``, which is computed then if not read before.
    """
    if sol.method != "dense":
        raise InvalidInput("error_bound requires the complement subspace "
                           "(dense approximation path)")
    c = sol.hs.full_gramian(b1, tol)
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


def stability_test(sol: ApproxAreSolution,
                   tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Sufficient residue-based test that X~ is stabilizing.

    True iff lambda_min(C1'C1 - C1bar'C1bar) >= -floor max(1, ||C1'C1||_2),
    floor = ``stability_test_floor``, and the pair has no unobservable
    imaginary-axis modes of A (one eigensolve, once that holds), with A, C1
    from ``sol.hs``.  Sufficient only: a False result does not mean A - M X~
    is unstable, so synthesis never runs it; ``sol.stabilizing`` does, once.
    """
    a, c1 = sol.hs.a, sol.hs.c1
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
    # unobservable modes of (D, A) are the uncontrollable ones of (A', D)
    return not _pbh_rank_deficient(a.T, d, eigs[_on_axis(eigs, tol)], tol).any()


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
        """S^{-1} b for a vector or a block of columns."""
        z1 = lu1.solve(b[:n])
        z2 = lu2.solve(b[n:] + c1_t @ (c1_sp @ z1))
        return np.concatenate([z1, z2])

    # the r Woodbury columns as one block: one solve per factor
    u = np.zeros((2 * n, r))
    u[:n] = hs.n_gain
    su = s_solve(u)

    cap = np.eye(r) + hs.gain(su[n:])
    cap_lu = sla.lu_factor(cap)

    def apply(b):
        t = s_solve(np.asarray(b, dtype=float))
        return t - su @ sla.lu_solve(cap_lu, hs.gain(t[n:]))

    return apply


def _h_matvec(hs: HamiltonianSystem, a_sp, c1_sp):
    """x -> H x for a vector or a block of columns, with H kept factored."""
    n = hs.n
    a_t, c1_t = a_sp.T, c1_sp.T

    def apply(x):
        x1, x2 = x[:n], x[n:]
        top = a_sp @ x1 + hs.n_gain @ hs.gain(x2)
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
    pair as exact conjugates, so the stable-set selection
    (:func:`~hierh2.linalg._stable_set`) needs no matching tolerance.
    Every failure raises ArnoldiNoConvergence naming its cause: a singular
    shifted LU factor, an ARPACK error or non-convergence, fewer than kappa
    stable columns, or a block that fails the dense path's acceptance rule
    (:func:`~hierh2.linalg._require_invariant`), with H Z applied in one
    call on the block.  An eigenvalue on jR raises HamiltonianImaginaryAxis.
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
    sub = _stable_set(vals, vecs, n, tol)
    if sub.k < kappa:
        raise ArnoldiNoConvergence(
            f"{sub.k} stable columns from {k_req} Ritz pairs, kappa={kappa}")
    sub = sub.head(kappa)
    z = np.vstack([sub.z1, sub.z2])
    _require_invariant(h_apply(z), z, sub.lam, tol, ArnoldiNoConvergence,
                       "Krylov block")
    return sub
