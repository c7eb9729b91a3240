"""Dense matrix-equation solvers, system norms, and Hamiltonian eigenspaces.

The exact Riccati solver, :func:`riccati_from_hamiltonian`, solves the
equation of one :class:`~hierh2.hamiltonian.HamiltonianSystem` by the
structure-preserving doubling algorithm of Chu, Fan & Lin (Linear Algebra
Appl. 396, 2005): n x n LU solves and products on M and Q, with no 2n x 2n
Hamiltonian and no ordered Schur form (that route, Laub's, is the test
oracle), and polishes X by Newton steps; when the doubling fails, or leaves
a loop A - M X the axis check refuses (Q hiding an unstable mode of A), X
is read off the dense stable eigenspace of H instead.  The checks the
ordered Schur form made are read off X: cond(Z1) from the eigenvalues of X, and the
imaginary-axis decision on the eigenvalues of A - M X, the stable half of
H's spectrum, which a Lyapunov certificate (:func:`_axis_certified`) passes
without an eigensolve.  The truncated solutions of
:mod:`hierh2.hamiltonian` take their eigenpairs from a dense
eigendecomposition (``np.linalg.eig``) or a Krylov run instead; the two
routes share the equation record and the imaginary-axis decision, not the
solver.  Every Lyapunov and Sylvester equation in the package goes
through one Bartels-Stewart kernel on real Schur factors, including the
eigenbasis Gramian of the truncation bound
(:func:`hierh2.hamiltonian.cauchy_coefficients`).  Its triangular solve is
the recursive blocked algorithm of Jonsson & Kagstrom ("Recursive blocked
algorithms for solving triangular systems", ACM TOMS 28, 2002), with
LAPACK ``trsyl`` on the leaves; if a leaf has to scale against overflow, the
whole triangular solve falls back to one ``trsyl`` call.
:func:`solve_sylvester_schur` is the Schur-coordinate core: it solves
T1 Y + Y T2' + Q^ = 0 and checks the residual contract there (at most two
refinement steps on the same factors, then :class:`NumericalError`), so a
caller holding its data in the Schur bases, such as the synthesis Gramian
chain, never changes basis; beyond Q^ and Y it holds one n x n work
array.  :func:`solve_sylvester` transforms Q in, calls the core, transforms
Y back and checks the contract once more in the original coordinates; the
Riccati Newton step calls the kernel directly.
The Riccati solver returns X only, as the truncated solutions do; the
loop that a gain closes is factored once, by the code that forms it
(:func:`hierh2.synthesis.youla_data` for every observer loop), and
:meth:`RealSchur.transposed` gives the factors of A' without a second
factorization.
The unstable left and right eigenbases come from one LAPACK ``geev`` call
(:func:`unstable_eigenbases`).  Every PBH rank test is one rule,
:func:`_pbh_rank_deficient`; callers holding a plant pass it the modes of
the plant's cached spectrum, so A is eigendecomposed once per plant.  A
caller holding a stabilizing loop A + B K may first try
:func:`_pbh_certified`, which passes only pairs the rule passes, from one
Cholesky test per mode on the loop's Schur factor instead of an SVD of
[A - lambda I, B].
Likewise every Hurwitz test is :func:`_require_hurwitz`, every
conditioning test :func:`_require_conditioned`, and every Hamiltonian
eigenvalue on jR is caught by :func:`_check_imag_axis`, which raises
:class:`~hierh2.errors.HamiltonianImaginaryAxis` on the doubling, the
dense and the Krylov path alike.  The dense and the Krylov eigen-path select
their stable set through :func:`_stable_set` and accept the realified block
Z, lam by one rule, :func:`_require_invariant`:
||H Z - Z lam||_F <= subspace_residual max(1, ||H Z||_F).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (ConjugatePairSplitWarning, DimensionMismatch,
                     HamiltonianImaginaryAxis, NotHurwitz, NotPSD,
                     NotStabilizable, NotStrictlyProper, NumericalError,
                     SingularZ1)
from .statespace import StateSpace, as_matrix

__all__ = [
    "AreSolution", "StableSubspace", "RealSchur",
    "solve_sylvester", "solve_sylvester_schur", "solve_lyapunov", "solve_are",
    "riccati_from_hamiltonian",
    "h2_norm", "hinf_norm", "stable_eigenspace", "unstable_eigenbases",
    "sqrt_psd", "spectral_abscissa", "stabilizable",
    "detectable", "symmetrize",
]


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def spectral_abscissa(a: np.ndarray) -> float:
    """max Re(lambda) over eigenvalues of a (dense)."""
    a = as_matrix(a, "A")
    if a.shape[0] == 0:
        return -np.inf
    return float(np.max(np.linalg.eigvals(a).real))


def _require_hurwitz(abscissa: float, tol: Tolerances, error, what) -> None:
    """The package's one Hurwitz decision: raise `error`, naming `what`,
    when the spectral abscissa is at or above -hurwitz_margin."""
    if abscissa >= -tol.hurwitz_margin:
        raise error(f"{what} not Hurwitz: spectral abscissa {abscissa:.3e} "
                    f">= {-tol.hurwitz_margin:.1e}")


def _require_conditioned(cond: float, tol: Tolerances, error, what) -> None:
    """The package's one conditioning decision: raise `error`, naming
    `what`, when the condition number exceeds cond_max."""
    if cond > tol.cond_max:
        raise error(f"cond({what}) = {cond:.3e} exceeds {tol.cond_max:.1e}")


def _require_invariant(hz, z, lam, tol: Tolerances, error, what) -> None:
    """The package's one acceptance rule for a realified eigenpair block
    Z, lam of a Hamiltonian H, given H Z as `hz`: raise `error`, naming
    `what`, when ||H Z - Z lam||_F > subspace_residual max(1, ||H Z||_F)."""
    res = np.linalg.norm(hz - z @ lam, "fro")
    bound = tol.subspace_residual * max(1.0, np.linalg.norm(hz, "fro"))
    if res > bound:
        raise error(f"{what} residual {res:.3e} exceeds {bound:.3e}")


def _unstable_modes(eigs: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The eigenvalues in `eigs` with Re >= -unstable_cut."""
    return eigs[eigs.real >= -tol.unstable_cut]


def _pbh_rank_deficient(a: np.ndarray, b: np.ndarray, modes: np.ndarray,
                        tol: Tolerances) -> np.ndarray:
    """Mask over `modes`: sigma_min([A - lambda I, B]) <= pbh_rel s, with
    s = max(1, ||A||_F, ||B||_F).

    The package's one PBH rank test and threshold; callers pick the modes,
    and observability of (C, A) is the test on (A', C').  The SVD runs in
    real arithmetic for a real lambda.
    """
    threshold = _pbh_threshold(a, b, tol)

    def sigma_min(lam):
        lam = lam if lam.imag else lam.real
        pencil = np.hstack([a - lam * np.eye(a.shape[0]), b])
        return np.linalg.svd(pencil, compute_uv=False)[-1]

    return np.array([sigma_min(lam) <= threshold for lam in modes], dtype=bool)


def _pbh_threshold(a: np.ndarray, b: np.ndarray, tol: Tolerances) -> float:
    """The PBH rule's threshold pbh_rel max(1, ||A||_F, ||B||_F)."""
    return tol.pbh_rel * max(1.0, np.linalg.norm(a, "fro"),
                             np.linalg.norm(b, "fro"))


# Room the loop certificate keeps above the rule's threshold: one threshold
# for the backward errors of the loop's Schur factor and of the rule's SVD,
# each of order n eps (||A||_F + ||B||_F), so a certified pair is one the
# rule passes.  That room covers them only while pbh_rel is well above
# n eps (it is 1e-8 in every profile): below _PBH_ROUNDING_UNITS n eps the
# certificate declines and the rule decides.
_PBH_CERTIFICATE_FACTOR = 2.0
_PBH_ROUNDING_UNITS = 100.0
# Rounding of fl(M M^H) and of its Cholesky factorization, in units of
# (n + 2) eps ||M||_F^2 (Rump, "Verification of positive definiteness",
# BIT 46, 2006): about one unit each in real arithmetic, and complex
# arithmetic can double each.
_GRAM_ROUNDING = 4.0


def _sigma_min_exceeds(t: np.ndarray, shift, c: float) -> bool:
    """True only if sigma_min(T - shift I) > c, proven after rounding.

    With M = T - shift I, the Cholesky factorization of
    fl(M M^H) - (c^2 + delta) I succeeds only if M M^H - c^2 I is positive
    definite, where delta = _GRAM_ROUNDING (n + 2) eps ||M||_F^2 covers the
    rounding of the product and of the factorization.  `t` may be any
    square matrix, so the 2 x 2 blocks of a real Schur factor need no care;
    a complex shift makes M complex.  False says nothing; underflow is not
    covered.
    """
    n = t.shape[0]
    # column-major, so that the rank-k update reads M without a copy
    m = np.array(t, dtype=np.result_type(t, shift), order="F")
    m[np.diag_indices(n)] -= shift
    rank_k = sla.get_blas_funcs("herk" if np.iscomplexobj(m) else "syrk", (m,))
    gram = rank_k(1.0, m)                      # upper triangle of M M^H
    gram[np.diag_indices(n)] -= c * c + (_GRAM_ROUNDING * (n + 2)
                                         * np.finfo(float).eps
                                         * np.linalg.norm(m) ** 2)
    potrf = sla.get_lapack_funcs("potrf", (gram,))
    return potrf(gram, overwrite_a=True, clean=False)[1] == 0


def _pbh_certified(a: np.ndarray, b: np.ndarray, loop: np.ndarray,
                   gain: np.ndarray, modes: np.ndarray, tol: Tolerances) -> bool:
    """True only if :func:`_pbh_rank_deficient` passes (a, b) at every mode
    in `modes`, proven from a loop: `loop` is a real Schur factor T of
    A + B K or of its transpose, `gain` = K.  False leaves the decision to
    the rule.

    With W = [A - lambda I, B], W [I; K] = A + B K - lambda I, so
    sigma_min(W) >= sigma_min(T - lambda I) / sqrt(1 + ||K||_F^2).  Each mode
    is certified when that bound exceeds _PBH_CERTIFICATE_FACTOR times the
    rule's threshold (:func:`_sigma_min_exceeds`, which covers 2 x 2 blocks
    and complex modes); a conjugate has the same sigma_min and is skipped.
    """
    if tol.pbh_rel < _PBH_ROUNDING_UNITS * a.shape[0] * np.finfo(float).eps:
        return False
    c = (_PBH_CERTIFICATE_FACTOR * _pbh_threshold(a, b, tol)
         * np.sqrt(1.0 + np.linalg.norm(gain, "fro") ** 2))
    return all(_sigma_min_exceeds(loop, lam if lam.imag else lam.real, c)
               for lam in modes if lam.imag >= 0.0)


def stabilizable(a, b, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """PBH test: every eigenvalue with Re >= -cut must be controllable."""
    a = as_matrix(a, "A")
    modes = _unstable_modes(np.linalg.eigvals(a), tol)
    return not _pbh_rank_deficient(a, as_matrix(b, "B"), modes, tol).any()


def detectable(a, c, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    return stabilizable(np.asarray(a, float).T, np.asarray(c, float).T, tol)


# ---------------------------------------------------------------------------
# Lyapunov / Sylvester (Bartels-Stewart on real Schur factors)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealSchur:
    """Real Schur factorization A = U T U' (T quasi upper-triangular)."""

    a: np.ndarray
    t: np.ndarray
    u: np.ndarray

    @classmethod
    def of(cls, a) -> "RealSchur":
        a = as_matrix(a, "A")
        t, u = sla.schur(a, output="real")
        return cls(a=a, t=t, u=u)

    @property
    def abscissa(self) -> float:
        """max Re(lambda) over the eigenvalues of A, read off T."""
        if self.t.shape[0] == 0:
            return -np.inf
        return float(np.max(_quasi_triangular_eigvals(self.t).real))

    def transposed(self) -> "RealSchur":
        """Factors of A' without a second factorization.

        A' = (U P)(P T' P)(U P)' with P the order reversal; P T' P is again
        upper quasi-triangular in Schur canonical form.
        """
        return RealSchur(a=self.a.T, t=self.t.T[::-1, ::-1], u=self.u[:, ::-1])


_TRSYL_LEAF = 64   # blocks with both sides at most this go to one trsyl call


def _split(t: np.ndarray) -> int:
    """Midpoint of quasi-triangular `t`, moved down one so no 2x2 block is cut."""
    k = t.shape[0] // 2
    return k + 1 if t[k, k - 1] != 0.0 else k


def _trsyl(t1: np.ndarray, t2: np.ndarray, c: np.ndarray):
    """LAPACK trsyl on T1 Y + Y T2' = scale C: returns (Y, scale)."""
    trsyl = sla.get_lapack_funcs("trsyl", (t1,))
    y, scale, info = trsyl(t1, t2, c, tranb="T")
    if info < 0:
        raise NumericalError(f"trsyl: argument {-info} is invalid")
    return y, scale


def _recursive_trsyl(t1: np.ndarray, t2: np.ndarray, c: np.ndarray) -> bool:
    """Overwrite `c` with Y, T1 Y + Y T2' = C, for upper quasi-triangular T1, T2.

    Recursive blocking of Jonsson & Kagstrom (ACM TOMS 28, 2002): halve the
    larger factor, solve the trailing block first (T2' is lower triangular),
    fold its coupling into the other half with one GEMM, and leave blocks of
    side <= ``_TRSYL_LEAF`` to trsyl.  Returns False as soon as a leaf
    returns scale != 1, leaving `c` partly overwritten.
    """
    m, n = c.shape
    if m <= _TRSYL_LEAF and n <= _TRSYL_LEAF:
        y, scale = _trsyl(t1, t2, c)
        c[...] = y
        return scale == 1.0
    if m >= n:
        k = _split(t1)
        if not _recursive_trsyl(t1[k:, k:], t2, c[k:]):
            return False
        c[:k] -= t1[:k, k:] @ c[k:]
        return _recursive_trsyl(t1[:k, :k], t2, c[:k])
    k = _split(t2)
    if not _recursive_trsyl(t1, t2[k:, k:], c[:, k:]):
        return False
    c[:, :k] -= c[:, k:] @ t2[:k, k:].T
    return _recursive_trsyl(t1, t2[:k, :k], c[:, :k])


def _schur_solve_into(t1: np.ndarray, t2: np.ndarray, y: np.ndarray,
                      rhs) -> np.ndarray:
    """Overwrite `y`, which holds C, with Y, T1 Y + Y T2' = C, for upper
    quasi-triangular T1, T2, and return it.

    The triangular solve is :func:`_recursive_trsyl`, in place.  trsyl's
    overflow guard scales a leaf's right-hand side by scale <= 1, and the
    recursion cannot carry that factor across its GEMM updates; so if any
    leaf returns scale != 1 the whole triangular solve is redone with one
    plain trsyl call on ``rhs()``, which gives C again, and its Y is
    divided by its scale.
    """
    if not _recursive_trsyl(t1, t2, y):
        z, scale = _trsyl(t1, t2, rhs())
        np.divide(z, scale, out=y)
    return y


def _schur_solve(t1: np.ndarray, t2: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Y with T1 Y + Y T2' = C, solved in a copy of `c`."""
    return _schur_solve_into(t1, t2, np.array(c), lambda: c)


def _bartels_stewart(f1: RealSchur, f2: RealSchur, q: np.ndarray) -> np.ndarray:
    """X with A1 X + X A2' + Q = 0, solved as T1 Y + Y T2' = -U1' Q U2."""
    return f1.u @ _schur_solve(f1.t, f2.t, -(f1.u.T @ q @ f2.u)) @ f2.u.T


_STRIP_ROWS = 16   # rows per strip of an in-place symmetric sum


def _add_transpose(w: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
    """w <- w + w' in place, plus symmetrize(q) when `q` is given, and
    return `w`.

    Each entry is rounded as ``w + w.T + symmetrize(q)`` rounds it, but
    strip by strip of ``_STRIP_ROWS`` rows, so no n x n temporary is made:
    a strip reads rows i:j and columns i:j of w, which no earlier strip has
    written, and writes the sum to both, since it is symmetric.
    """
    n = w.shape[0]
    for i in range(0, n, _STRIP_ROWS):
        j = min(i + _STRIP_ROWS, n)
        s = w[i:j, i:] + w[i:, i:j].T
        if q is not None:
            h = q[i:j, i:] + q[i:, i:j].T
            h *= 0.5
            s += h
        w[i:j, i:] = s
        w[i:, i:j] = s.T
    return w


def _symmetrize_in_place(y: np.ndarray) -> np.ndarray:
    """y <- symmetrize(y), in place and rounded as :func:`symmetrize`."""
    _add_transpose(y)
    y *= 0.5
    return y


def _gemm_operand(m: np.ndarray):
    """(array, trans) with op(array) = m for a Fortran BLAS call, without a
    copy when `m` is contiguous in either order."""
    if m.flags.f_contiguous:
        return m, 0
    if m.flags.c_contiguous:
        return m.T, 1
    return np.asfortranarray(m), 0


def _add_product(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c += a @ b for a C-ordered `c`, by one BLAS gemm with beta = 1 that
    writes into `c`, so that the product is never held as an array; the
    sum is rounded as gemm accumulates it, panel by panel."""
    gemm = sla.get_blas_funcs("gemm", (c, a, b))
    op_b, trans_b = _gemm_operand(b.T)       # c' += b' a' in Fortran order
    op_a, trans_a = _gemm_operand(a.T)
    gemm(1.0, op_b, op_a, beta=1.0, c=c.T, trans_a=trans_b, trans_b=trans_a,
         overwrite_c=True)
    return c


def _refine(x: np.ndarray, residual, step, bound: float) -> np.ndarray:
    """`x` once ||residual(x)||_F <= bound, after at most two refinement
    steps x <- step(x, residual(x)) that reuse the factors.

    Raises
    ------
    NumericalError : the bound is not met after the two steps.
    """
    for _ in range(2):
        res = residual(x)
        if np.linalg.norm(res, "fro") <= bound:
            return x
        x = step(x, res)
        del res          # the next residual is formed without this one
    res = np.linalg.norm(residual(x), "fro")
    if res > bound:
        raise NumericalError(
            f"Sylvester residual {res:.3e} exceeds bound {bound:.3e}")
    return x


def solve_sylvester_schur(f1: RealSchur, f2: RealSchur, q_hat,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Solve T1 Y + Y T2' + Q^ = 0 in the Schur bases of A1 and A2.

    The Schur-coordinate core: with A_i = U_i T_i U_i', Y = U1' X U2 and
    Q^ = U1' Q U2, this is A1 X + X A2' + Q = 0 without a change of basis,
    so a caller that holds its data in the two bases never leaves them.
    When ``f1 is f2`` the equation is a Lyapunov equation: Q^ is taken as
    symmetric (its symmetric part is used) and Y is symmetrized.  The
    residual contract: ||T1 Y + Y T2' + Q^||_F <= lyap_residual *
    max(1, ||Q^||_F), reached after at most two refinement steps on the
    same triangular factors.

    Q^ is read, never written.  Beyond Q^ and Y the solve holds one n x n
    work array, the residual, into which a refinement step also solves its
    correction; the triangular solve adds its own GEMM updates, of at most
    half of Y.  -Y is solved in the array that is returned and negated in
    place, which rounds as solving for Y does; the Lyapunov form
    symmetrizes Y and forms its residual T1 Y + (T1 Y)' + symmetrize(Q^)
    in place with the rounding of the whole-array expressions
    (:func:`_add_transpose`), and the Sylvester form adds Y T2' into T1 Y
    through gemm (:func:`_add_product`).

    Raises
    ------
    NumericalError : the residual contract could not be met.
    """
    q_hat = as_matrix(q_hat, "Q")
    if q_hat.shape != (f1.t.shape[0], f2.t.shape[0]):
        raise DimensionMismatch("solve_sylvester_schur: Q must be n1 x n2")
    t1, t2 = f1.t, f2.t
    lyapunov = f1 is f2

    def residual(y):
        w = t1 @ y
        if lyapunov:         # Y = Y', so Y T1' = (T1 Y)'
            return _add_transpose(w, q_hat)
        _add_product(w, y, t2.T)
        w += q_hat
        return w

    def step(y, res):
        """y - (the solution with right-hand side res), solved in res."""
        y -= _schur_solve_into(t1, t2, res, lambda: residual(y))
        return _symmetrize_in_place(y) if lyapunov else y

    if lyapunov:
        y = q_hat + q_hat.T            # symmetrize(Q^), rounded as it rounds
        y *= 0.5
        bound = tol.lyap_residual * max(1.0, np.linalg.norm(y, "fro"))
        y = _schur_solve_into(t1, t2, y, lambda: symmetrize(q_hat))
    else:
        bound = tol.lyap_residual * max(1.0, np.linalg.norm(q_hat, "fro"))
        y = _schur_solve_into(t1, t2, np.array(q_hat), lambda: q_hat)
    np.negative(y, out=y)
    if lyapunov:
        _symmetrize_in_place(y)
    return _refine(y, residual, step, bound)


def solve_sylvester(f1: RealSchur, f2: RealSchur, q,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Solve A1 X + X A2' + Q = 0 from the real Schur factors of A1 and A2.

    Transforms Q into the two Schur bases, calls :func:`solve_sylvester_schur`
    and transforms Y back.  The Frobenius norm is invariant under the
    orthogonal changes of basis, ||A1 X + X A2' + Q||_F =
    ||T1 Y + Y T2' + Q^||_F and ||Q||_F = ||Q^||_F, so the core's contract
    is the contract ||A1 X + X A2' + Q||_F <= lyap_residual * max(1, ||Q||_F)
    for exact factors.  Computed factors have A_i - U_i T_i U_i' of order
    eps ||A_i||, so the two residuals can differ by about
    eps (||A1|| + ||A2||) ||X||; the contract is therefore checked once more
    in the original coordinates, with at most two refinement steps that
    reuse the factors.  When ``f1 is f2`` X is symmetrized.

    Raises
    ------
    NumericalError : the residual contract could not be met.
    """
    q = as_matrix(q, "Q")
    if q.shape != (f1.a.shape[0], f2.a.shape[0]):
        raise DimensionMismatch("solve_sylvester: Q must be n1 x n2")
    finish = symmetrize if f1 is f2 else np.asarray
    x = finish(f1.u @ solve_sylvester_schur(f1, f2, f1.u.T @ q @ f2.u, tol)
               @ f2.u.T)
    bound = tol.lyap_residual * max(1.0, np.linalg.norm(q, "fro"))
    return _refine(x, lambda x: f1.a @ x + x @ f2.a.T + q,
                   lambda x, res: finish(x + _bartels_stewart(f1, f2, res)),
                   bound)


def solve_lyapunov(a, b, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Solve A Phi + Phi A^T + B B^T = 0 for the symmetric PSD Phi.

    The Hurwitz check reads the abscissa off the Schur form the solve needs
    anyway; a caller holding the factors of `a` calls :func:`solve_sylvester`.

    Parameters
    ----------
    a : (n, n) array, Hurwitz
    b : (n, m) array

    Raises
    ------
    NotHurwitz : some eigenvalue of `a` has real part >= -hurwitz_margin.
    NumericalError : the residual contract could not be met after refinement.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch("solve_lyapunov: B rows must match A")
    f = RealSchur.of(a)
    _require_hurwitz(f.abscissa, tol, NotHurwitz, "A")
    return solve_sylvester(f, f, b @ b.T, tol)


# ---------------------------------------------------------------------------
# Riccati by structure-preserving doubling
# ---------------------------------------------------------------------------

@dataclass
class AreSolution:
    """Stabilizing solution X of the Riccati equation `hs`,
    A'X + XA + Q - XMX = 0, with its residual norm; like the truncated
    solution, it holds no factor of its closed loop.  It records how it was
    made: `doubling_steps` (0 when X was read off the dense stable
    eigenspace of H, :func:`_eigenspace_x`) and `newton_steps` taken, and
    `axis_path`, what decided that A - M X has no eigenvalue on or across
    jR: ``'certificate'`` (the Lyapunov certificate,
    :func:`_axis_certified`) or ``'rule'`` (the eigenvalues of A - M X)."""

    hs: object            # the HamiltonianSystem that was solved
    x: np.ndarray
    residual: float
    doubling_steps: int
    newton_steps: int
    axis_path: str


def _quasi_triangular_eigvals(t: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real quasi upper-triangular (Schur) matrix."""
    n = t.shape[0]
    vals = []
    i = 0
    while i < n:
        if i + 1 < n and abs(t[i + 1, i]) > 0.0:
            vals.extend(np.linalg.eigvals(t[i:i + 2, i:i + 2]))
            i += 2
        else:
            vals.append(complex(t[i, i]))
            i += 1
    return np.array(vals)


def _on_axis(eigs: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Mask of the eigenvalues with |Re lambda| <= imag_axis max(1, |lambda|)."""
    return np.abs(eigs.real) <= tol.imag_axis * np.maximum(1.0, np.abs(eigs))


def _check_imag_axis(eigvals: np.ndarray, tol: Tolerances) -> None:
    """The package's one imaginary-axis decision on the eigenvalues of a
    Hamiltonian: raise HamiltonianImaginaryAxis when one is on jR."""
    on_axis = eigvals[_on_axis(eigvals, tol)]
    if on_axis.size:
        worst = on_axis[np.argmin(np.abs(on_axis.real))]
        raise HamiltonianImaginaryAxis(
            f"eigenvalue {worst:.6e} is within tolerance of the imaginary axis")


# Doubling steps before a run is declared failed.  Step k leaves the error
# of X at the order of T^(2^k), T the Cayley image of A - M X, whose
# spectral radius rho is below 1 when H has no eigenvalue on jR; rho^(2^k)
# is below eps once 2^k (1 - rho) > 36, which holds at k = 60 for every
# rho <= 1 - eps.  A run that needs more steps has a mode within rounding
# of the unit circle: an eigenvalue of H on jR.
_DOUBLING_MAX_STEPS = 60
# The shift is moved once when rcond_1(A - gamma I) is below this: E0, G0
# and P0 are made through (A - gamma I)^{-1}, and below sqrt(eps) they
# would keep fewer than half of the digits.
_SHIFT_RCOND = float(np.sqrt(np.finfo(float).eps))
# The least shift, as a fraction of ||H||_F / sqrt(2n), the bound that
# Schur's inequality gives on the RMS modulus of H's eigenvalues.  The trace
# rule can cancel when H has complex eigenvalues (it reads 0 for an undamped
# oscillator), and a shift far below the eigenvalues costs about log2 of the
# shortfall in steps and log10 of it in the digits of E0; at a quarter of
# the bound that is two steps and less than one digit.  On the network
# plants the trace rule is above the floor (the bound is at most 1.8 times
# the rule there), so the floor does not move their shift.
_SHIFT_FLOOR = 0.25


def _cayley_shift(a: np.ndarray, m: np.ndarray, q: np.ndarray) -> float:
    """The doubling's Cayley shift
    gamma = max(sqrt(|tr(A^2) + tr(M Q)| / n), _SHIFT_FLOOR ||H||_F / sqrt(2n)).

    tr(H^2) = 2 tr(A^2) + 2 tr(M Q) is the sum of the squares of the 2n
    eigenvalues of H, so the first term is their RMS modulus when they are
    real: the Cayley map (lambda + gamma) / (lambda - gamma) then sends the
    typical stable eigenvalue well inside the unit circle.  Complex
    eigenvalues can cancel in the trace, and the floor (``_SHIFT_FLOOR``),
    from ||H||_F^2 = 2 ||A||_F^2 + ||M||_F^2 + ||Q||_F^2, keeps gamma near
    their moduli then.
    """
    n = a.shape[0]
    rms = np.sqrt(abs(np.sum(a * a.T) + np.sum(m * q)) / n)
    h_norm = np.sqrt(2.0 * np.sum(a * a) + np.sum(m * m) + np.sum(q * q))
    return float(max(rms, _SHIFT_FLOOR * h_norm / np.sqrt(2.0 * n)))


def _shifted_factor(a: np.ndarray, gamma: float):
    """LU factor of A - gamma I and its reciprocal 1-norm condition number
    (0 for an exactly singular factor)."""
    shifted = a - gamma * np.eye(a.shape[0])
    getrf, gecon = sla.get_lapack_funcs(("getrf", "gecon"), (shifted,))
    lu, piv, info = getrf(shifted)
    if info != 0:
        return (lu, piv), 0.0
    return (lu, piv), float(gecon(lu, np.linalg.norm(shifted, 1), norm="1")[0])


def _doubling(a: np.ndarray, m: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, int]:
    """(X, steps): the structure-preserving doubling algorithm of Chu, Fan &
    Lin (Linear Algebra Appl. 396, 2005) for A'X + XA + Q - XMX = 0.

    The Cayley shift gamma (:func:`_cayley_shift`) maps the Hamiltonian
    pencil to the standard symplectic form E0, G0, P0 (F0 = E0'), with
    A_g = A - gamma I and W = A_g' + Q A_g^{-1} M,
    E0 = I + 2 gamma W^{-T}, G0 = 2 gamma A_g^{-1} M W^{-1} and
    P0 = 2 gamma W^{-1} Q A_g^{-1}.  W = A_g' (I + A_g^{-T} Q A_g^{-1} M) is
    nonsingular whenever A_g is, since the product of two positive
    semidefinite matrices has no eigenvalue at -1; eigenvalues of H at
    -gamma and gamma map to 0 and to infinity, which the pencil form
    carries.  When A_g is near singular (rcond below ``_SHIFT_RCOND``) the
    shift moves once, to 2 max(gamma, ||A||_F), where
    sigma_min(A_g) >= gamma / 2 and ||A_g||_2 <= 3 gamma / 2 bound
    cond_2(A_g) by 3.  Each step is
    E <- E K^{-1} E, G <- G + E K^{-1} G E', P <- P + (K^{-1} E)' P E with
    K = I + G P: one LU solve with 2n right-hand sides and six products.
    P tends to X quadratically, and the run stops once a step moves P by at
    most eps ||P||_F.  A run that stops where P merely sits still, as in a
    mode that Q does not see, is caught by the axis check and the Newton
    steps that :func:`riccati_from_hamiltonian` runs on X.

    Raises
    ------
    NumericalError : A - gamma I is singular at both shifts, a value
        stops being finite, or P still moves after ``_DOUBLING_MAX_STEPS``.
    """
    n = a.shape[0]
    eye = np.eye(n)
    gamma = _cayley_shift(a, m, q)
    lu, rcond = _shifted_factor(a, gamma)
    if rcond < _SHIFT_RCOND:
        gamma = 2.0 * max(gamma, np.linalg.norm(a, "fro"))
        lu, rcond = _shifted_factor(a, gamma)
        if rcond < _SHIFT_RCOND:
            raise NumericalError(f"A - gamma I is singular at gamma = {gamma:.3e}")
    ag_m = sla.lu_solve(lu, m)                     # A_g^{-1} M
    q_ag = sla.lu_solve(lu, q, trans=1).T          # Q A_g^{-1}
    w_inv = sla.lu_solve(sla.lu_factor(a.T - gamma * eye + q @ ag_m), eye)
    e = eye + 2.0 * gamma * w_inv.T
    g = symmetrize(2.0 * gamma * ag_m @ w_inv)
    p = symmetrize(2.0 * gamma * w_inv @ q_ag)
    getrf, getrs = sla.get_lapack_funcs(("getrf", "getrs"), (p,))
    change = 0.0
    for step in range(1, _DOUBLING_MAX_STEPS + 1):
        k = eye + g @ p
        if not (np.isfinite(change) and np.all(np.isfinite(k))):
            raise NumericalError(f"doubling diverged at step {step}")
        lu, piv, info = getrf(k)
        if info != 0:      # I + G P lost I to rounding: G P has blown up
            raise NumericalError(f"doubling broke down at step {step}")
        z = getrs(lu, piv, np.hstack([e, g]))[0]
        z_e, z_g = z[:, :n], z[:, n:]
        step_p = symmetrize(z_e.T @ (p @ e))
        g = symmetrize(g + (e @ z_g) @ e.T)
        e = e @ z_e
        p = p + step_p
        change = np.linalg.norm(step_p, "fro")
        if change <= np.finfo(float).eps * np.linalg.norm(p, "fro"):
            return p, step
    raise NumericalError(f"doubling did not converge in {_DOUBLING_MAX_STEPS} "
                         f"steps (last change {change:.3e})")


# Room the closed-loop certificate keeps above the axis rule's threshold
# imag_axis max(1, ||A - M X||_F): it covers the backward error of the
# rule's eigvals, of order n eps ||A - M X||_F, and of eigvalsh on X, while
# imag_axis is well above n eps (it is 1e-10 in every profile); below
# _AXIS_ROUNDING_UNITS n eps the certificate declines and the rule decides.
_AXIS_CERTIFICATE_FACTOR = 2.0
_AXIS_ROUNDING_UNITS = 100.0
# Rounding of S = -fl(X A_c + A_c' X) and of its Cholesky factorization,
# in units of (n + 2) eps ||X||_F ||A_c||_F: the product errs by at most
# n eps ||X||_F ||A_c||_F in each of its two terms, and the factorization
# (Rump, "Verification of positive definiteness", BIT 46, 2006) by about
# (n + 2) eps tr(S), with |tr(S)| <= 2 ||X||_F ||A_c||_F.
_LYAPUNOV_ROUNDING = 4.0


def _axis_certified(a_c: np.ndarray, x: np.ndarray, x_eigs: np.ndarray,
                    tol: Tolerances) -> bool:
    """True only if the axis rule passes A_c = A - M X: every eigenvalue
    has Re lambda < 0 and |Re lambda| > imag_axis max(1, |lambda|).  Proven
    from X, whose eigenvalues `x_eigs` (ascending) are given; False leaves
    the decision to the rule.

    With R the residual of X, A_c'X + X A_c = -(Q + X M X - R) =: -S.  For
    an eigenpair A_c v = lambda v, 2 Re(lambda) v*Xv = -v*Sv.  So S >= cI
    with X > 0 gives Re lambda <= -c / (2 lambda_max(X)), and the same
    bound, less the perturbation, holds for every matrix near A_c, such as
    the one whose eigenvalues the rule computes.  S is formed from A_c, and
    S - cI is tested by one Cholesky factorization, proven after rounding
    (``_LYAPUNOV_ROUNDING``), with
    c = 2 _AXIS_CERTIFICATE_FACTOR imag_axis max(1, ||A_c||_F) lambda_max(X),
    since |lambda| <= ||A_c||_F.  X > 0 is read off `x_eigs`: an
    eigenvector with v*Xv <= 0 within eigvalsh's backward error, of order
    n eps ||X||_2, would need Re lambda >= c / (2 n eps ||X||_2), beyond
    ||A_c||_F when imag_axis >= _AXIS_ROUNDING_UNITS n eps.
    """
    n = a_c.shape[0]
    eps = np.finfo(float).eps
    if tol.imag_axis < _AXIS_ROUNDING_UNITS * n * eps or x_eigs[0] <= 0.0:
        return False
    a_norm = np.linalg.norm(a_c, "fro")
    c = (2.0 * _AXIS_CERTIFICATE_FACTOR * tol.imag_axis * max(1.0, a_norm)
         * x_eigs[-1])
    xa = x @ a_c
    s = np.asfortranarray(-(xa + xa.T))
    s[np.diag_indices(n)] -= c + (_LYAPUNOV_ROUNDING * (n + 2) * eps
                                  * np.linalg.norm(x, "fro") * a_norm)
    potrf = sla.get_lapack_funcs("potrf", (s,))
    return potrf(s, overwrite_a=True, clean=False)[1] == 0


def _closed_loop_axis(a_c: np.ndarray, x: np.ndarray, x_eigs: np.ndarray,
                      tol: Tolerances) -> str:
    """Decide that A_c = A - M X, whose n eigenvalues are the stable half of
    H's spectrum (the mirror half has the same |Re lambda|), has none on
    jR and none right of it; return the path that decided.

    :func:`_axis_certified` decides first (``'certificate'``); otherwise
    the eigenvalues of A_c do (``'rule'``): :func:`_check_imag_axis` raises
    on one on jR, and HamiltonianImaginaryAxis names the dimension of the
    stable subspace found when one lies right of it.
    """
    if _axis_certified(a_c, x, x_eigs, tol):
        return "certificate"
    eigs = np.linalg.eigvals(a_c)
    _check_imag_axis(eigs, tol)
    stable = int(np.count_nonzero(eigs.real < 0.0))
    if stable != a_c.shape[0]:
        raise HamiltonianImaginaryAxis(
            f"stable subspace has dimension {stable}, expected {a_c.shape[0]}")
    return "rule"


# The largest residual, relative to max(1, ||Q||_F, ||X M X||_F), that a
# doubling X may leave before Newton.  A converged run leaves rounding: at
# most 3.4e-15 on every equation of the benchmark plants (n = 100 and 200,
# seeds 3, 7 and 11), and at most 2.7e-8 on any equation of the test suite
# whose doubling X is taken, a 10-state plant that one Newton step polishes.
# A run that stops where P merely sits still, as when C1 hides an unstable
# mode of A in a rotated basis, leaves 1.1e-4 to 6.9e-3; Newton from there
# can reach a solution only to 4e-10, where the dense eigenspace of H gives
# it to rounding, so that X is read off the eigenspace instead.
_DOUBLING_RESIDUAL = 1e-6


def _eigenspace_x(hs, tol: Tolerances) -> np.ndarray:
    """X = Z2 Z1^{-1} from the dense stable eigenspace of H
    (:meth:`~hierh2.hamiltonian.HamiltonianSystem.full_subspace`), whose
    stable-set selection raises HamiltonianImaginaryAxis when H has an
    eigenvalue on jR."""
    sub = hs.full_subspace(tol)
    try:
        return symmetrize(np.linalg.solve(sub.z1.T, sub.z2.T).T)
    except np.linalg.LinAlgError:
        raise SingularZ1("Z1 of the stable eigenspace is singular") from None


def riccati_from_hamiltonian(hs, tol: Tolerances = DEFAULT_TOLERANCES) -> AreSolution:
    """Stabilizing solution of A'X + XA + Q - XMX = 0, the equation of the
    :class:`~hierh2.hamiltonian.HamiltonianSystem` `hs`.

    X is made by structure-preserving doubling on n x n blocks
    (:func:`_doubling`), from M and Q as `hs` gives them.  The doubling
    reaches the stabilizing X when (Q, A) is detectable, which for an A with
    no eigenvalue right of jR, such as every network plant of the package,
    is assumption A3.  When Q hides an unstable mode of A it diverges,
    stops at a solution that leaves the mode in A - M X, or stops short of
    any solution; when it fails, when its X leaves a residual above
    ``_DOUBLING_RESIDUAL`` max(1, ||Q||_F, ||X M X||_F), or when the axis
    decision below refuses its X, X is read instead off the dense stable
    eigenspace of H (:func:`_eigenspace_x`, ``doubling_steps`` 0), whose
    selection raises HamiltonianImaginaryAxis if H has an eigenvalue on jR.
    The checks then read X, in order:

    - A - M X must have no eigenvalue on jR (HamiltonianImaginaryAxis) and
      n stable ones (HamiltonianImaginaryAxis naming the dimension found),
      decided by :func:`_closed_loop_axis`: a Lyapunov certificate first,
      the eigenvalues of A - M X when it declines;
    - SingularZ1 when cond(Z1) > cond_max, where
      cond(Z1) = sqrt((1 + max x_i^2) / (1 + min x_i^2)) over the
      eigenvalues x_i of X holds for every orthonormal basis [Z1; Z2] of
      the graph of X;
    - Newton steps refine X while its residual is above
      are_residual max(1, ||Q||_F), keeping the best iterate;
    - X is accepted when the residual is within
      are_residual max(1, ||Q||_F, ||X M X||_F), since rounding alone
      leaves a residual of order eps ||X M X||_F, which dwarfs ||Q|| when X
      is large; otherwise NumericalError.

    Only X is produced: the loop its gain closes is factored, and its
    stability decided, by whoever forms that loop
    (:func:`hierh2.synthesis.youla_data`, or :func:`solve_are` for A - M X).
    """
    a, m, q = hs.a, hs.m, hs.ctc

    def terms(xx):
        """(residual, M X, X M X) of xx; A'X + XA = T + T' with T = A'X."""
        mx = m @ xx
        xmx = xx @ mx
        t = a.T @ xx
        return t + t.T + q - xmx, mx, xmx

    def decided(xx, residual_limit=np.inf):
        """terms(xx), the eigenvalues of xx and the axis path of A - M xx;
        NumericalError when the residual of xx is above `residual_limit`
        max(1, ||Q||_F, ||xx M xx||_F)."""
        xx_terms = terms(xx)
        res_norm = np.linalg.norm(xx_terms[0], "fro")
        if res_norm > residual_limit * max(1.0, np.linalg.norm(q, "fro"),
                                           np.linalg.norm(xx_terms[2], "fro")):
            raise NumericalError(f"doubling left the residual {res_norm:.3e}")
        xx_eigs = np.linalg.eigvalsh(xx)
        return xx_terms, xx_eigs, _closed_loop_axis(a - xx_terms[1], xx,
                                                     xx_eigs, tol)

    try:
        x, doubling_steps = _doubling(a, m, q)
        (res, mx, xmx), x_eigs, axis_path = decided(x, _DOUBLING_RESIDUAL)
    except (NumericalError, HamiltonianImaginaryAxis):
        x, doubling_steps = _eigenspace_x(hs, tol), 0
        (res, mx, xmx), x_eigs, axis_path = decided(x)
    x_abs = np.abs(x_eigs)
    _require_conditioned(np.sqrt((1.0 + x_abs.max() ** 2)
                                 / (1.0 + x_abs.min() ** 2)),
                         tol, SingularZ1, "Z1")

    # Newton refinement, keeping the best iterate (steps can overshoot on
    # ill-conditioned instances)
    target = tol.are_residual * max(1.0, np.linalg.norm(q, "fro"))
    best_norm = np.linalg.norm(res, "fro")
    newton_steps = 0
    while newton_steps < 5 and best_norm > target:
        try:
            acl_t = RealSchur.of((a - mx).T)
            cand = symmetrize(x + _bartels_stewart(acl_t, acl_t, res))
        except (sla.LinAlgError, ValueError, NumericalError):
            break
        cand_terms = terms(cand)
        cand_norm = np.linalg.norm(cand_terms[0], "fro")
        if cand_norm >= best_norm:
            break
        x, (res, mx, xmx), best_norm = cand, cand_terms, cand_norm
        newton_steps += 1
    res_norm = float(best_norm)
    bound = tol.are_residual * max(1.0, np.linalg.norm(q, "fro"),
                                   np.linalg.norm(xmx, "fro"))
    if res_norm > bound:
        raise NumericalError(
            f"ARE residual {res_norm:.3e} exceeds bound {bound:.3e}")
    return AreSolution(hs=hs, x=x, residual=res_norm,
                       doubling_steps=doubling_steps,
                       newton_steps=newton_steps, axis_path=axis_path)


def solve_are(a, b, c, r, tol: Tolerances = DEFAULT_TOLERANCES) -> AreSolution:
    """Stabilizing solution of A'X + XA + C'C - X B R^{-1} B' X = 0.

    The raw-matrix entry: the PBH test on (A, B) always runs, then the
    equation is solved from its HamiltonianSystem as synthesis solves it,
    and the stability of A - M X is decided here, on one real Schur form.

    Preconditions: (A, B) stabilizable, (C, A) free of unobservable
    imaginary-axis modes, R symmetric positive definite.

    Raises
    ------
    NotStabilizable : PBH test on (A, B) fails.
    HamiltonianImaginaryAxis : H has an eigenvalue on jR (signals the
        imaginary-axis observability assumption is violated).
    SingularZ1 : the stable subspace is not complementary to the graph axis.
    SingularR, IllConditionedR : R is singular, or cond(R) > cond_max.
    NotHurwitz : the closed loop A - M X has abscissa >= -hurwitz_margin.
    """
    from .hamiltonian import build_hamiltonian   # that module imports this one
    hs = build_hamiltonian(a, b, c, r, tol)
    if not stabilizable(hs.a, hs.n_gain, tol):
        raise NotStabilizable("PBH stabilizability test failed for (A, B)")
    sol = riccati_from_hamiltonian(hs, tol)
    _require_hurwitz(RealSchur.of(hs.a - hs.m @ sol.x).abscissa, tol,
                     NotHurwitz, "Riccati closed loop")
    return sol


# ---------------------------------------------------------------------------
# System norms
# ---------------------------------------------------------------------------

def h2_norm(sys: StateSpace, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """H2 norm sqrt(tr(C Phi C')) with Phi the controllability Gramian.

    Requires a strictly proper (D = 0), internally stable realization;
    :func:`solve_lyapunov` raises NotHurwitz otherwise.
    """
    scale = max(1.0, np.linalg.norm(sys.c, "fro"), np.linalg.norm(sys.b, "fro"))
    if sys.d.size and np.max(np.abs(sys.d)) > tol.strictly_proper * scale:
        raise NotStrictlyProper("h2_norm requires D = 0")
    if sys.n_states == 0:
        return 0.0
    phi = solve_lyapunov(sys.a, sys.b, tol)
    val = float(np.trace(sys.c @ phi @ sys.c.T))
    return float(np.sqrt(max(val, 0.0)))


_HINF_MAX_ROUNDS = 30      # level-set rounds before hinf_norm gives up
_HINF_AXIS = 1e-6          # crossing test, scaled as in hinf_norm


def _sigma_max(mat: np.ndarray) -> float:
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat, 2))


def _hinf_hamiltonian(sys: StateSpace, gamma: float) -> np.ndarray:
    a, b, c, d = sys.a, sys.b, sys.c, sys.d
    m = sys.n_inputs
    r = gamma ** 2 * np.eye(m) - d.T @ d
    r_inv = sla.inv(r)
    abr = a + b @ r_inv @ d.T @ c
    return np.block([
        [abr, b @ r_inv @ b.T],
        [-c.T @ (np.eye(sys.n_outputs) + d @ r_inv @ d.T) @ c, -abr.T],
    ])


def _pole_frequency(eigs: np.ndarray) -> float:
    """Bruinsma-Steinbuch starting frequency from the poles of a stable system.

    max|lambda| when every pole is real; otherwise |lambda| of the pole that
    maximises |Im lambda / (Re lambda |lambda|)|, the least damped one.
    """
    if not np.any(eigs.imag):
        return float(np.max(np.abs(eigs)))
    k = np.argmax(np.abs(eigs.imag / (eigs.real * np.abs(eigs))))
    return float(np.abs(eigs[k]))


def hinf_norm(sys: StateSpace, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """H-infinity norm of a stable proper system.

    Two-step level-set iteration of Bruinsma & Steinbuch (Systems & Control
    Letters 14, 1990), which converges quadratically (Boyd & Balakrishnan,
    Systems & Control Letters 15, 1990).  The lower bound gamma_lb starts at
    the largest of sigma_max(D), sigma_max(G(0)) and sigma_max(G(j w_p)), with
    w_p from :func:`_pole_frequency`.  Each round tests
    gamma = (1 + hinf_rel) gamma_lb: the positive imaginary-axis eigenvalues
    of :func:`_hinf_hamiltonian` at gamma are the frequencies where a singular
    value of G(jw) equals gamma.  gamma_lb rises to the largest sigma_max at
    the midpoints of consecutive crossings and the round repeats.  When there
    are no crossings, or no midpoint is above gamma (the crossings are then
    eigenvalues that lie only near the axis, as for a very lightly damped
    pole), the norm lies in [gamma_lb, gamma] and the midpoint is returned,
    so the result is within hinf_rel/2 of the true norm, relative.

    An eigenvalue v counts as a crossing when |Re v| <= tau max(1, |v|),
    tau = ``_HINF_AXIS`` gamma^2 / (gamma^2 - sigma_max(D)^2).  Crossings
    that nearly coincide (gamma just above sigma_max(G(0)) or a local peak)
    are computed with errors near sqrt(eps), and the Hamiltonian holds
    (gamma^2 I - D'D)^{-1}, whose size grows like the factor, about
    1/(2 hinf_rel) at gamma_lb = sigma_max(D).  A test at 1e-8 without the
    factor missed such crossings and returned norms 0.3% to 10% low on small
    random plants.  A loose test cannot lose a crossing: a spurious candidate
    only adds a probe, and every probe is evaluated.

    Raises
    ------
    NotHurwitz : some eigenvalue of A has real part >= -hurwitz_margin.
    NumericalError : the level set is still nonempty after
        ``_HINF_MAX_ROUNDS`` rounds.
    """
    d_norm = _sigma_max(sys.d)
    if sys.n_states == 0:
        return d_norm
    eigs = np.linalg.eigvals(sys.a)
    _require_hurwitz(float(np.max(eigs.real)), tol, NotHurwitz, "A")

    def sv_at(w):
        return _sigma_max(sys.eval(1j * w))

    # sigma_max(G(0)) <= gamma_lb < gamma from here on, so w = 0 never lies in
    # a later level set and is not evaluated again.
    gamma_lb = max(d_norm, sv_at(0.0), sv_at(_pole_frequency(eigs)))
    if gamma_lb == 0.0:
        return 0.0
    for _ in range(_HINF_MAX_ROUNDS):
        gamma = (1.0 + tol.hinf_rel) * gamma_lb
        vals = np.linalg.eigvals(_hinf_hamiltonian(sys, gamma))
        tau = _HINF_AXIS * gamma ** 2 / (gamma ** 2 - d_norm ** 2)
        on_axis = np.abs(vals.real) <= tau * np.maximum(1.0, np.abs(vals))
        ws = np.sort(vals.imag[on_axis & (vals.imag > 0)])
        if ws.size == 0:
            return 0.5 * (gamma_lb + gamma)
        # a lone crossing is a tangency of the level set: test it directly
        probes = 0.5 * (ws[:-1] + ws[1:]) if ws.size > 1 else ws
        best = max(sv_at(w) for w in probes)
        if best <= gamma:
            # every interval with sigma_max > gamma lies between consecutive
            # crossings, so its midpoint would be above gamma: the crossings
            # are near-axis eigenvalues, and the norm is in [gamma_lb, gamma]
            return 0.5 * (gamma_lb + gamma)
        gamma_lb = best
    raise NumericalError(f"hinf_norm: level set at gamma = {gamma:.6e} still "
                         f"nonempty after {_HINF_MAX_ROUNDS} rounds")


# ---------------------------------------------------------------------------
# Eigenspaces
# ---------------------------------------------------------------------------

@dataclass
class StableSubspace:
    """Realified basis of a stable invariant subspace of a Hamiltonian.

    Columns of the stacked [Z1; Z2] have unit 2-norm.  Complex conjugate
    pairs occupy two adjacent real columns (orthonormalized within the
    pair); `eigenvalues` lists the pair as (a + ib, a - ib) in matching
    positions and `lam` is the block-diagonal real matrix with
    H [Z1; Z2] = [Z1; Z2] lam.
    """

    z1: np.ndarray
    z2: np.ndarray
    eigenvalues: np.ndarray           # complex, length k, pairs adjacent
    block_sizes: tuple[int, ...]      # 1 for real eigenvalues, 2 for pairs
    lam: np.ndarray                   # k x k real, block diagonal

    @property
    def k(self) -> int:
        return self.z1.shape[1]

    def head(self, k: int) -> "StableSubspace":
        """First blocks covering at least k columns (conjugate pairs intact)."""
        count, blocks = 0, []
        for size in self.block_sizes:
            if count >= k:
                break
            blocks.append(size)
            count += size
        if count > k:
            warnings.warn(
                f"requested subspace dimension {k} splits a conjugate pair; "
                f"returning {count} columns", ConjugatePairSplitWarning)
        return StableSubspace(
            z1=self.z1[:, :count], z2=self.z2[:, :count],
            eigenvalues=self.eigenvalues[:count],
            block_sizes=tuple(blocks), lam=self.lam[:count, :count])


def _order_key(lam: complex):
    # magnitude first; ties by ascending real part, then ascending |imag|
    return (abs(lam), lam.real, abs(lam.imag))


# [Re v, Im v] of a conjugate pair is degenerate when |det R| of its QR
# factor is below this times ||[Re v, Im v]||_F^2 = ||R||_F^2.  The ratio is
# 1 / (c + 1/c), c = cond(R), so the test reads c > 1e14 at any scale of v
# (||R||_F = 1 for a unit v, as geev gives); the similarity
# R [[a, b], [-b, a]] R^{-1} would then keep two digits at most.
_REALIFY_DEGENERATE = 1e-14


def _realify_sorted(pairs, n) -> StableSubspace:
    """pairs: list of (lambda, vector(2n complex), is_pair) sorted already.

    A conjugate pair contributes the orthonormalized span of
    [Re v, Im v]; the matching 2x2 block of lam is the similarity
    R [[a, b], [-b, a]] R^{-1} from the QR factor, so H Z = Z lam holds
    exactly with unit columns.
    """
    cols, lam_blocks, eigs, sizes = [], [], [], []
    for lam, vec, is_pair in pairs:
        if is_pair:
            raw = np.column_stack([vec.real, vec.imag])
            q, r_fac = np.linalg.qr(raw)
            area = abs(np.linalg.det(r_fac))
            if area < _REALIFY_DEGENERATE * np.linalg.norm(raw) ** 2:
                raise NumericalError("degenerate conjugate-pair realification")
            a_, b_ = lam.real, lam.imag
            base = np.array([[a_, b_], [-b_, a_]])
            lam_blocks.append(r_fac @ base @ np.linalg.inv(r_fac))
            cols.append(q)
            eigs.extend([lam, lam.conjugate()])
            sizes.append(2)
        else:
            # strip the arbitrary complex phase before taking the real part
            pivot = vec[np.argmax(np.abs(vec))]
            if abs(pivot) > 0:
                vec = vec * (pivot.conjugate() / abs(pivot))
            col = vec.real[:, None]
            nrm = np.linalg.norm(col)
            if nrm == 0:
                raise NumericalError("zero eigenvector column during realification")
            cols.append(col / nrm)
            lam_blocks.append(np.array([[lam.real]]))
            eigs.extend([complex(lam.real)])
            sizes.append(1)
    z = np.hstack(cols) if cols else np.zeros((2 * n, 0))
    k = z.shape[1]
    lam_mat = np.zeros((k, k))
    pos = 0
    for blk in lam_blocks:
        s = blk.shape[0]
        lam_mat[pos:pos + s, pos:pos + s] = blk
        pos += s
    return StableSubspace(z1=z[:n], z2=z[n:], eigenvalues=np.array(eigs, complex),
                          block_sizes=tuple(sizes), lam=lam_mat)


def _group_conjugates(vals, vecs):
    """One representative (lambda, vector, is_pair) per real eigenvalue or
    conjugate pair, sorted by :func:`_order_key`.

    LAPACK ``geev`` and real-mode ARPACK store a real eigenvalue with
    imaginary part exactly 0 and a complex pair as exact conjugates, so no
    tolerance is involved: a value with Im > 0 represents its pair, and a
    value with Im < 0 is kept, conjugated, only when its conjugate is absent
    (a pair member cut off at the end of a Ritz set).
    """
    present = set(vals.tolist())
    reps = []
    for lam, vec in zip(vals, vecs.T):
        if lam.imag == 0.0:
            reps.append((complex(lam.real), vec, False))
        elif lam.imag > 0.0:
            reps.append((lam, vec, True))
        elif lam.conjugate() not in present:
            reps.append((lam.conjugate(), vec.conjugate(), True))
    reps.sort(key=lambda t: _order_key(t[0]))
    return reps


def _stable_set(vals: np.ndarray, vecs: np.ndarray, n: int,
                tol: Tolerances) -> StableSubspace:
    """Realified stable subspace of the eigenpairs (vals, vecs) of a 2n x 2n
    Hamiltonian: the package's one stable-set selection, for the dense and
    the Krylov eigen-path alike.

    Raises HamiltonianImaginaryAxis when an eigenvalue is numerically on jR
    (:func:`_check_imag_axis`); otherwise keeps Re lambda < 0, one
    representative per real eigenvalue or conjugate pair
    (:func:`_group_conjugates`), realified in order (:func:`_realify_sorted`).
    """
    _check_imag_axis(vals, tol)
    sel = vals.real < 0
    return _realify_sorted(_group_conjugates(vals[sel], vecs[:, sel]), n)


def stable_eigenspace(h, tol: Tolerances = DEFAULT_TOLERANCES) -> StableSubspace:
    """Stable invariant subspace of a dense Hamiltonian matrix.

    Returns all n stable eigenvalues, ordered by magnitude (ties by
    ascending real then imaginary part), together with a realified basis,
    from one dense eigendecomposition of H.  :meth:`StableSubspace.head`
    takes the leading k of them, keeping conjugate pairs intact.  The
    Krylov route for a few eigenpairs of a large structured Hamiltonian
    lives in :mod:`hierh2.hamiltonian`.

    Raises
    ------
    HamiltonianImaginaryAxis : some eigenvalue is numerically on jR.
    NumericalError : the block fails :func:`_require_invariant`.
    """
    h = np.asarray(h, float)
    n2 = h.shape[0]
    if n2 % 2:
        raise DimensionMismatch("Hamiltonian must be 2n x 2n")
    n = n2 // 2
    out = _stable_set(*np.linalg.eig(h), n, tol)
    z = np.vstack([out.z1, out.z2])
    _require_invariant(h @ z, z, out.lam, tol, NumericalError, "invariant subspace")
    return out


# ---------------------------------------------------------------------------
# Unstable eigenbases and PSD square root
# ---------------------------------------------------------------------------

def unstable_eigenbases(a, tol: Tolerances = DEFAULT_TOLERANCES
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Real bases (V_L, V_R) of the left and right invariant subspaces of `a`
    for its modes with Re >= -unstable_cut; both are n x 0 when it has none.

    One LAPACK ``geev`` call gives matched left and right eigenvectors.  It
    stores a real eigenvalue with imaginary part exactly 0, and a complex
    pair as the eigenvalue with Im > 0 followed by its exact conjugate, so a
    pair contributes Re v and Im v of its first column.  Nothing is matched
    and no tolerance is involved.  geev's left vectors u satisfy
    u^H A = lambda u^H; Re u and Im u span the same real subspace as the
    parts of conj(u), the eigenvector of A'.
    """
    a = as_matrix(a, "A")
    vals, vl, vr = sla.eig(a, left=True, right=True)
    keep = vals.real >= -tol.unstable_cut
    real, pair = keep & (vals.imag == 0.0), keep & (vals.imag > 0.0)

    def realify(v):
        return np.hstack([v[:, real].real, v[:, pair].real, v[:, pair].imag])

    return realify(vl), realify(vr)


def sqrt_psd(m, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Symmetric square root S with S S^T = M; eigenvalues clipped at 0.

    Raises NotPSD when lambda_min < -psd_reject * ||M||_2.
    """
    m = symmetrize(as_matrix(m, "M"))
    if m.shape[0] == 0:
        return m.copy()
    w, v = np.linalg.eigh(m)
    scale = max(np.abs(w).max(), 0.0)
    if w.min() < -tol.psd_reject * max(scale, 1e-300):
        raise NotPSD(f"lambda_min = {w.min():.3e} for scale {scale:.3e}")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
