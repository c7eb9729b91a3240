"""Dense matrix-equation solvers, system norms, and Hamiltonian eigenspaces.

The Riccati solver works through the stable invariant subspace of the
associated 2n x 2n Hamiltonian (ordered real Schur form), so the same code
path underpins both the exact solutions and the truncated approximations
built elsewhere.  Every Lyapunov and Sylvester equation in the package goes
through one Bartels-Stewart kernel on real Schur factors, including the
eigenbasis Gramian of the truncation bound
(:func:`hierh2.hamiltonian.cauchy_coefficients`).  Its triangular solve is
the recursive blocked algorithm of Jonsson & Kagstrom ("Recursive blocked
algorithms for solving triangular systems", ACM TOMS 28, 2002), with
LAPACK ``trsyl`` on the leaves; if a leaf has to scale against overflow, the
whole triangular solve falls back to one ``trsyl`` call.
:func:`solve_sylvester` wraps the kernel in the residual contract (at most two
refinement steps reusing the factors, then :class:`NumericalError`), and the
Riccati Newton step calls it directly.  The Riccati solver returns the Schur
factors of its closed loop A - M X, which every consumer reuses;
:meth:`RealSchur.transposed` gives those of A' without a second factorization.
The unstable left and right eigenbases come from one LAPACK ``geev`` call
(:func:`unstable_eigenbases`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (ConjugatePairSplitWarning, DimensionMismatch,
                     HamiltonianImaginaryAxis, ImaginaryAxisEigenvalue,
                     NotHurwitz, NotPSD, NotStabilizable, NotStrictlyProper,
                     NumericalError, SingularR, SingularZ1)
from .statespace import StateSpace, as_matrix

__all__ = [
    "AreSolution", "StableSubspace", "RealSchur",
    "solve_sylvester", "solve_lyapunov", "solve_are",
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


def _pbh_sigma_min(a: np.ndarray, b: np.ndarray, lam) -> float:
    """sigma_min([A - lambda I, B]), in real arithmetic when lambda is real."""
    lam = lam if lam.imag else lam.real
    pencil = np.hstack([a - lam * np.eye(a.shape[0]), b])
    return float(np.linalg.svd(pencil, compute_uv=False)[-1])


def _pbh_rank_deficient(a: np.ndarray, b: np.ndarray, eigs: np.ndarray,
                        threshold: float) -> np.ndarray:
    """Mask over `eigs`: sigma_min([A - lambda I, B]) <= threshold.

    The package's one PBH rank test.  Callers pick the modes and the
    threshold; observability of (C, A) is the test on (A', C').
    """
    return np.array([_pbh_sigma_min(a, b, lam) <= threshold for lam in eigs],
                    dtype=bool)


def _pbh_modes(a, b, tol: Tolerances, eigs=None) -> np.ndarray:
    """Eigenvalues of `a` with Re >= -unstable_cut that fail rank [A - lambda I, B] = n.

    `eigs` may pass the spectrum of `a` when the caller already has it.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    if eigs is None:
        eigs = np.linalg.eigvals(a)
    eigs = eigs[eigs.real >= -tol.unstable_cut]
    scale = max(1.0, np.linalg.norm(a, "fro"), np.linalg.norm(b, "fro"))
    return eigs[_pbh_rank_deficient(a, b, eigs, tol.pbh_rel * scale)]


def stabilizable(a, b, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """PBH test: every eigenvalue with Re >= -cut must be controllable."""
    return _pbh_modes(a, b, tol).size == 0


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


def _bartels_stewart(f1: RealSchur, f2: RealSchur, q: np.ndarray) -> np.ndarray:
    """X with A1 X + X A2' + Q = 0, solved as T1 Y + Y T2' = -U1' Q U2.

    The triangular solve is :func:`_recursive_trsyl`, in place in one array.
    trsyl's overflow guard scales a leaf's right-hand side by scale <= 1,
    and the recursion cannot carry that factor across its GEMM updates; so
    if any leaf returns scale != 1 the whole triangular solve is redone with
    one plain trsyl call, whose Y is divided by its scale.
    """
    y = -(f1.u.T @ q @ f2.u)
    if not _recursive_trsyl(f1.t, f2.t, y):
        y, scale = _trsyl(f1.t, f2.t, -(f1.u.T @ q @ f2.u))
        y = y / scale
    return f1.u @ y @ f2.u.T


def solve_sylvester(f1: RealSchur, f2: RealSchur, q,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Solve A1 X + X A2' + Q = 0 from the real Schur factors of A1 and A2.

    When ``f1 is f2`` the equation is the Lyapunov equation and X is
    symmetrized.  The residual contract: ||A1 X + X A2' + Q||_F <=
    lyap_residual * max(1, ||Q||_F), reached after at most two refinement
    steps that reuse the factors.

    Raises
    ------
    NumericalError : the residual contract could not be met.
    """
    q = as_matrix(q, "Q")
    if q.shape != (f1.a.shape[0], f2.a.shape[0]):
        raise DimensionMismatch("solve_sylvester: Q must be n1 x n2")
    finish = symmetrize if f1 is f2 else np.asarray
    x = finish(_bartels_stewart(f1, f2, q))
    bound = tol.lyap_residual * max(1.0, np.linalg.norm(q, "fro"))
    for _ in range(2):
        res = f1.a @ x + x @ f2.a.T + q
        if np.linalg.norm(res, "fro") <= bound:
            return x
        x = finish(x + _bartels_stewart(f1, f2, res))
    res = np.linalg.norm(f1.a @ x + x @ f2.a.T + q, "fro")
    if res > bound:
        raise NumericalError(
            f"Sylvester residual {res:.3e} exceeds bound {bound:.3e}")
    return x


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
    if f.abscissa >= -tol.hurwitz_margin:
        raise NotHurwitz(f"A has spectral abscissa {f.abscissa:.3e} "
                         f">= {-tol.hurwitz_margin:.1e}")
    return solve_sylvester(f, f, b @ b.T, tol)


# ---------------------------------------------------------------------------
# Riccati via the Hamiltonian stable subspace
# ---------------------------------------------------------------------------

@dataclass
class AreSolution:
    """Stabilizing solution X of A'X + XA + Q - XMX = 0 with the real Schur
    factors of its closed loop A - M X, made once by the solver."""

    x: np.ndarray
    residual: float
    closed_loop: RealSchur

    @property
    def closed_loop_abscissa(self) -> float:
        return self.closed_loop.abscissa


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


def _check_imag_axis(eigvals: np.ndarray, tol: Tolerances, exc=HamiltonianImaginaryAxis):
    on_axis = eigvals[_on_axis(eigvals, tol)]
    if on_axis.size:
        worst = on_axis[np.argmin(np.abs(on_axis.real))]
        raise exc(f"eigenvalue {worst:.6e} is within tolerance of the imaginary axis")


def riccati_from_hamiltonian(a, m, q, tol: Tolerances = DEFAULT_TOLERANCES) -> AreSolution:
    """Stabilizing solution of A'X + XA + Q - XMX = 0 with M, Q given PSD.

    Computed from the full stable invariant subspace of
    H = [[A, -M], [-Q, -A']] via an ordered real Schur decomposition and
    X = Z2 Z1^{-1}.  Newton steps refine X while its residual is above
    are_residual max(1, ||Q||_F).  X is accepted when the residual is within
    are_residual max(1, ||Q||_F, ||X M X||_F), since rounding alone leaves
    a residual of order eps ||X M X||_F, which dwarfs ||Q|| when X is
    large; otherwise NumericalError.  The real Schur factors of A - M X,
    whose abscissa must be negative (else NumericalError), are returned as
    ``closed_loop``.
    """
    a = as_matrix(a, "A")
    m = symmetrize(as_matrix(m, "M"))
    q = symmetrize(as_matrix(q, "Q"))
    n = a.shape[0]
    h = np.block([[a, -m], [-q, -a.T]])
    t, z, sdim = sla.schur(h, output="real", sort="lhp")
    _check_imag_axis(_quasi_triangular_eigvals(t), tol)
    if sdim != n:
        raise HamiltonianImaginaryAxis(
            f"stable subspace has dimension {sdim}, expected {n}")
    z1 = z[:n, :n]
    z2 = z[n:, :n]
    if np.linalg.cond(z1) > tol.cond_max:
        raise SingularZ1(f"cond(Z1) = {np.linalg.cond(z1):.3e}")
    x = symmetrize(sla.solve(z1.T, z2.T).T)
    target = tol.are_residual * max(1.0, np.linalg.norm(q, "fro"))

    def residual(xx):
        return a.T @ xx + xx @ a + q - xx @ m @ xx

    # Newton refinement, keeping the best iterate (steps can overshoot on
    # ill-conditioned instances)
    best_x, best_norm = x, np.linalg.norm(residual(x), "fro")
    for _ in range(5):
        if best_norm <= target:
            break
        try:
            acl_t = RealSchur.of((a - m @ best_x).T)
            step = _bartels_stewart(acl_t, acl_t, residual(best_x))
        except (sla.LinAlgError, ValueError, NumericalError):
            break
        cand = symmetrize(best_x + step)
        cand_norm = np.linalg.norm(residual(cand), "fro")
        if cand_norm >= best_norm:
            break
        best_x, best_norm = cand, cand_norm
    x, res_norm = best_x, float(best_norm)
    bound = tol.are_residual * max(1.0, np.linalg.norm(q, "fro"),
                                   np.linalg.norm(x @ m @ x, "fro"))
    if res_norm > bound:
        raise NumericalError(
            f"ARE residual {res_norm:.3e} exceeds bound {bound:.3e}")
    closed = RealSchur.of(a - m @ x)
    if closed.abscissa >= 0.0:
        raise NumericalError(
            f"Riccati closed loop not Hurwitz (abscissa {closed.abscissa:.3e})")
    return AreSolution(x=x, residual=res_norm, closed_loop=closed)


def solve_are(a, b, c, r, tol: Tolerances = DEFAULT_TOLERANCES,
              check_stabilizable: bool = True) -> AreSolution:
    """Stabilizing solution of A'X + XA + C'C - X B R^{-1} B' X = 0.

    Preconditions: (A, B) stabilizable, (C, A) free of unobservable
    imaginary-axis modes, R symmetric positive definite.

    Raises
    ------
    NotStabilizable : PBH test on (A, B) fails.
    HamiltonianImaginaryAxis : H has an eigenvalue on jR (signals the
        imaginary-axis observability assumption is violated).
    SingularZ1 : the stable subspace is not complementary to the graph axis.
    SingularR : R is not positive definite.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    c = as_matrix(c, "C")
    r = symmetrize(as_matrix(r, "R"))
    if b.shape[0] != a.shape[0] or c.shape[1] != a.shape[0]:
        raise DimensionMismatch("solve_are: incompatible shapes")
    if r.shape != (b.shape[1], b.shape[1]):
        raise DimensionMismatch("solve_are: R must be m x m")
    try:
        r_chol = sla.cho_factor(r)
    except sla.LinAlgError as e:
        raise SingularR(f"R is not positive definite: {e}") from e
    if check_stabilizable and not stabilizable(a, b, tol):
        raise NotStabilizable("PBH stabilizability test failed for (A, B)")
    m = b @ sla.cho_solve(r_chol, b.T)
    return riccati_from_hamiltonian(a, m, c.T @ c, tol)


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
    alpha = float(np.max(eigs.real))
    if alpha >= -tol.hurwitz_margin:
        raise NotHurwitz(f"A has spectral abscissa {alpha:.3e} "
                         f">= {-tol.hurwitz_margin:.1e}")

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

    def tail_from(self, k_cols: int) -> "StableSubspace":
        """Complement blocks starting at column k_cols (a block boundary)."""
        sizes, count = [], 0
        for size in self.block_sizes:
            if count >= k_cols:
                sizes.append(size)
            count += size
        return StableSubspace(
            z1=self.z1[:, k_cols:], z2=self.z2[:, k_cols:],
            eigenvalues=self.eigenvalues[k_cols:], block_sizes=tuple(sizes),
            lam=self.lam[k_cols:, k_cols:])


def _order_key(lam: complex):
    # magnitude first; ties by ascending real part, then ascending |imag|
    return (abs(lam), lam.real, abs(lam.imag))


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
            if abs(np.linalg.det(r_fac)) < 1e-14 * np.linalg.norm(raw):
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
    ImaginaryAxisEigenvalue : some eigenvalue is numerically on jR.
    NumericalError : the subspace residual ||H Z - Z lam||_F is too large.
    """
    h = np.asarray(h, float)
    n2 = h.shape[0]
    if n2 % 2:
        raise DimensionMismatch("Hamiltonian must be 2n x 2n")
    n = n2 // 2
    vals, vecs = np.linalg.eig(h)
    _check_imag_axis(vals, tol, ImaginaryAxisEigenvalue)
    sel = vals.real < 0
    reps = _group_conjugates(vals[sel], vecs[:, sel])
    out = _realify_sorted(reps, n)
    if out.k:
        z = np.vstack([out.z1, out.z2])
        res = np.linalg.norm(h @ z - z @ out.lam, "fro")
        if res > tol.subspace_residual * max(1.0, np.linalg.norm(h, "fro")):
            raise NumericalError(
                f"invariant subspace residual {res:.3e} exceeds "
                f"{tol.subspace_residual:.1e} * ||H||")
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
