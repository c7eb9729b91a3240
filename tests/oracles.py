"""Independent oracles used to freeze expected values.

Each oracle takes a different computational route than the library code it
checks: Lyapunov via the Kronecker vectorization linear system, Riccati
via matrix sign iteration and via the ordered real Schur form of the 2n x 2n
Hamiltonian (Laub, IEEE TAC 1979; the library solves it by doubling on
n x n blocks), the H2 norm via frequency quadrature, the
H-infinity norm via dense frequency gridding, and the gap-layer spectral
factors via the two 2n-state hat Riccati equations on the Youla system,
solved by sign iteration too,
whose 2n-state realization and nominal controller K_nom live here too.  The
staged simulation is checked against a sample-by-sample run that forms
every held product with its own matrix-vector product and steps the
monolithic loop through the RK4 stages of its vector field.  The block
Woodbury set-up of the Krylov shift-invert is checked against one that
solves its columns one at a time, and the library's closed loop of the
plant, formed from its blocks, against the generic lower LFT of the stacked
four-block plant.  The synthesis Gramian chain, which adds its coupling
terms into its Q blocks in place, is checked bit for bit against the same
chain on whole-array sums.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hierh2 import DEFAULT_TOLERANCES, StateSpace, Tolerances, neg, series
from hierh2.errors import DimensionMismatch
from hierh2.linalg import hinf_norm, sqrt_psd, symmetrize
from hierh2.plant import lft_lower
from hierh2.simulate import _rk4


def lyapunov_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A P + P A' + B B' = 0 as a Kronecker linear system."""
    n = a.shape[0]
    op = np.kron(np.eye(n), a) + np.kron(a, np.eye(n))
    vec = np.linalg.solve(op, -(b @ b.T).reshape(-1, order="F"))
    p = vec.reshape((n, n), order="F")
    return 0.5 * (p + p.T)


def are_sign_iteration(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                       r: np.ndarray, max_iter: int = 200,
                       tol: float = 1e-14) -> np.ndarray:
    """Stabilizing solution of A'X + XA + C'C - X B R^{-1} B' X = 0 via the
    matrix sign function of the Hamiltonian (:func:`riccati_sign`)."""
    return riccati_sign(a, b @ np.linalg.solve(r, b.T), c.T @ c, max_iter, tol)


def riccati_sign(a: np.ndarray, m: np.ndarray, q: np.ndarray,
                 max_iter: int = 200, tol: float = 1e-14) -> np.ndarray:
    """Stabilizing solution of A'X + XA + Q - XMX = 0 via the matrix sign
    function of H = [[A, -M], [-Q, -A']] (determinant-scaled Newton, the
    scale read off the log-determinant so that a large H cannot overflow
    it)."""
    n = a.shape[0]
    h = np.block([[a, -m], [-q, -a.T]])
    z = h.copy()
    for _ in range(max_iter):
        z_inv = np.linalg.inv(z)
        log_det = np.linalg.slogdet(z)[1]
        mu = np.exp(-log_det / (2 * n)) if np.isfinite(log_det) else 1.0
        z_next = 0.5 * (mu * z + z_inv / mu)
        if np.linalg.norm(z_next - z, "fro") <= tol * np.linalg.norm(z, "fro"):
            z = z_next
            break
        z = z_next
    # columns of (I - sign(H)) span the stable invariant subspace
    proj = np.eye(2 * n) - z
    # project out any rank deficiency via SVD of the projector
    u, s, _ = np.linalg.svd(proj)
    basis = u[:, :n]
    z1, z2 = basis[:n], basis[n:]
    x = z2 @ np.linalg.inv(z1)
    return 0.5 * (x + x.T)


def riccati_ordered_schur(hs) -> np.ndarray:
    """Stabilizing solution of the equation of the HamiltonianSystem `hs`,
    A'X + XA + Q - XMX = 0, as X = Z2 Z1^{-1} over the stable invariant
    subspace of H = [[A, -M], [-Q, -A']] from its ordered real Schur form
    (Laub, IEEE TAC 1979), with no refinement."""
    n = hs.n
    z = sla.schur(hs.h, output="real", sort="lhp")[1]
    return symmetrize(sla.solve(z[:n, :n].T, z[n:, :n].T).T)


def block_gramian_whole_arrays(f1, f2, a12, q22, q12, q11, tol):
    """(Y11, Y12, Y22) of the synthesis Gramian chain with every coupling
    sum formed as a new array, Q12 + A12 Y22 and Q11 + C + C' with
    C = A12 Y12', and no block written into; the library adds those terms
    into its Q blocks in place and must round as this does."""
    from hierh2.linalg import solve_sylvester_schur
    y22 = solve_sylvester_schur(f2, f2, q22, tol)
    y12 = solve_sylvester_schur(f1, f2, q12 + a12(y22), tol)
    cross = a12(y12.T)
    return (solve_sylvester_schur(f1, f1, q11 + cross + cross.T, tol),
            y12, y22)


def _freq_response(sys, ws, chunk_elems: int = 2 ** 20):
    """Yield G(jw) stacked over consecutive chunks of `ws`, each chunk one
    stacked dense solve of (jw I - A) X = B."""
    a, b, c, d = sys.a, sys.b, sys.c, sys.d
    n = a.shape[0]
    eye = np.eye(n)
    step = max(1, chunk_elems // max(1, n * n))
    for lo in range(0, len(ws), step):
        w = ws[lo:lo + step]
        shifted = 1j * w[:, None, None] * eye - a
        res = np.linalg.solve(shifted, np.broadcast_to(b, (len(w),) + b.shape))
        yield c @ res + d


def h2_quadrature(sys, w_lo: float = 1e-5, w_hi: float = 1e6,
                  n_pts: int = 40000) -> float:
    """H2 norm via trapezoid quadrature of tr(g* g) over a log grid.

    Uses the even symmetry of the integrand: the full-line integral equals
    twice the integral over positive frequencies.
    """
    ws = np.logspace(np.log10(w_lo), np.log10(w_hi), n_pts)
    vals = np.concatenate([np.einsum("kij,kij->k", g.conj(), g).real
                           for g in _freq_response(sys, ws)])
    integral = np.trapezoid(vals, ws)
    # include the DC plateau below w_lo where tr(g*g) is flat
    g0 = sys.eval(0.0)
    integral += np.real(np.trace(g0.conj().T @ g0)) * w_lo
    return float(np.sqrt(2.0 * integral / (2.0 * np.pi)))


def hinf_grid(sys, w_lo: float, w_hi: float, n_pts: int) -> float:
    """Max singular value over a dense frequency grid (plus the endpoints)."""
    ws = np.concatenate([[0.0], np.linspace(w_lo, w_hi, n_pts)])
    return float(max(np.linalg.svd(g, compute_uv=False)[:, 0].max()
                     for g in _freq_response(sys, ws)))


def freqresp_formula(a, b, c, d, omega) -> np.ndarray:
    """Direct pointwise transfer-matrix evaluation."""
    n = a.shape[0]
    return c @ np.linalg.solve(1j * omega * np.eye(n) - a, b) + d


@dataclass
class YoulaHat:
    """2n-state realization of the Youla system T of the gains F, L.

    K_nom maps [y; v] -> [u; e] and f(G, f(K_nom, Q)) = T11 + T12 Q T21 for
    every stable Q; T has state matrix A_hat = [[A_F, -B2 F], [0, A_L]].
    """

    a_hat: np.ndarray
    b1_hat: np.ndarray
    b2_hat: np.ndarray
    c1_hat: np.ndarray
    c2_hat: np.ndarray
    k_nom: StateSpace
    t11: StateSpace
    t22: StateSpace


def youla_hat(yd) -> YoulaHat:
    """The 2n realization and K_nom of the library's n-state Youla data."""
    g, f, l = yd.g, yd.f, yd.l
    n, nu, ny = g.n, g.n_u, g.n_y
    a_hat = np.block([[yd.f_loop.a, -g.b2 @ f], [np.zeros((n, n)), yd.l_loop.a]])
    b1_hat = np.vstack([g.b1, g.b1 + l @ g.d21])
    b2_hat = np.vstack([g.b2, np.zeros((n, nu))])
    c1_hat = np.hstack([g.c1 + g.d12 @ f, -g.d12 @ f])
    c2_hat = np.hstack([np.zeros((ny, n)), g.c2])
    k_nom = StateSpace(
        a=g.a + g.b2 @ f + l @ g.c2,
        b=np.hstack([-l, g.b2]),
        c=np.vstack([f, -g.c2]),
        d=np.block([[np.zeros((nu, ny)), np.eye(nu)],
                    [np.eye(ny), np.zeros((ny, nu))]]))
    return YoulaHat(
        a_hat=a_hat, b1_hat=b1_hat, b2_hat=b2_hat, c1_hat=c1_hat,
        c2_hat=c2_hat, k_nom=k_nom,
        t11=StateSpace(a_hat, b1_hat, c1_hat, np.zeros((g.p1, g.m1))),
        t22=StateSpace(a_hat, b2_hat, c2_hat, np.zeros((ny, nu))))


def lft_lower_partitioned(sys: StateSpace, nz: int, ny: int, nw: int, nu: int,
                          k: StateSpace) -> StateSpace:
    """Lower LFT of a four-block system with zero (y,u)-feedthrough.

    `sys` maps [w; u] -> [z; y] with output partition (nz, ny) and input
    partition (nw, nu); the (y, u) block of D must be zero so the loop with
    ``k`` (mapping y -> u) is always well posed.  Unlike the library's
    ``lft_lower``, the (z, w) block D11 may be non-zero.
    """
    if sys.n_outputs != nz + ny or sys.n_inputs != nw + nu:
        raise DimensionMismatch("lft: partition does not match system dims")
    if k.n_inputs != ny or k.n_outputs != nu:
        raise DimensionMismatch(
            f"lft: controller is {k.n_outputs}x{k.n_inputs}, expected {nu}x{ny}")
    a, b, c, d = sys.a, sys.b, sys.c, sys.d
    b1, b2 = b[:, :nw], b[:, nw:]
    c1, c2 = c[:nz, :], c[nz:, :]
    d11, d12 = d[:nz, :nw], d[:nz, nw:]
    d21, d22 = d[nz:, :nw], d[nz:, nw:]
    if np.any(np.abs(d22) > 0):
        raise DimensionMismatch("lft: D22 block must be zero")
    ak, bk, ck, dk = k.a, k.b, k.c, k.d
    acl = np.block([
        [a + b2 @ dk @ c2, b2 @ ck],
        [bk @ c2, ak],
    ])
    bcl = np.vstack([b1 + b2 @ dk @ d21, bk @ d21])
    ccl = np.hstack([c1 + d12 @ dk @ c2, d12 @ ck])
    dcl = d11 + d12 @ dk @ d21
    return StateSpace(acl, bcl, ccl, dcl)


def lft_generic(g, k: StateSpace) -> StateSpace:
    """f(G, K) by the generic LFT of the plant stacked as one realization
    mapping [w; u] -> [z; y]."""
    d = np.block([[np.zeros((g.p1, g.m1)), g.d12],
                  [g.d21, np.zeros((g.n_y, g.n_u))]])
    four_block = StateSpace(g.a, np.hstack([g.b1, g.b2]),
                            np.vstack([g.c1, g.c2]), d)
    return lft_lower_partitioned(four_block, g.p1, g.n_y, g.m1, g.n_u, k)


def lft_controller(yd, q: StateSpace) -> StateSpace:
    """Controller K = f(K_nom, Q) for a stable Youla parameter Q."""
    nu, ny = yd.g.n_u, yd.g.n_y
    return lft_lower_partitioned(youla_hat(yd).k_nom, nu, ny, ny, nu, q)


@dataclass
class HatSpectralFactors:
    """Factor systems and gains of the 2n hat-Riccati construction.

    Q* = -W_L Wbar_R = -Wbar_L W_R; all four factors are internally stable
    2n-state realizations and the two products agree as transfer matrices.
    """

    w_l: StateSpace
    wbar_l: StateSpace
    w_r: StateSpace
    wbar_r: StateSpace
    fhat: np.ndarray
    lhat: np.ndarray
    xhat: np.ndarray
    yhat: np.ndarray
    embed_u: np.ndarray
    embed_y: np.ndarray
    q_star: StateSpace


def hat_spectral_factors(yd, d12, d21,
                         tol: Tolerances = DEFAULT_TOLERANCES) -> HatSpectralFactors:
    """Solve the two hat-system AREs and assemble the W factors and Q*.

    A_hat is Hurwitz by construction, so both AREs are well posed.  The hat
    system inherits structural cross terms from the nominal gains
    (D12' C1_hat = [R F, -R F] and B1_hat D21' = [0; L D21 D21']), so the
    gains solve the cross-term form of the two AREs; for F = L = 0 this
    reduces to the plain pair.  Both are solved by the matrix sign function
    (:func:`riccati_sign`), not by the library's Riccati solver, and the
    Gramians Phi_u = LYAP(A_F, I) and Phi_y = LYAP(A_L', I) by SciPy's
    Lyapunov solver.  The returned Q* uses the stable product realization
    -W_L Wbar_R.
    """
    d12 = np.asarray(d12, float)
    d21 = np.asarray(d21, float)
    hat = youla_hat(yd)
    a_hat, b1_hat, b2_hat = hat.a_hat, hat.b1_hat, hat.b2_hat
    c1_hat, c2_hat = hat.c1_hat, hat.c2_hat
    n2 = a_hat.shape[0]

    r_u = symmetrize(d12.T @ d12)
    r_u_chol = sla.cho_factor(r_u)
    s_u = d12.T @ c1_hat
    a_u = a_hat - b2_hat @ sla.cho_solve(r_u_chol, s_u)
    q_u = symmetrize(c1_hat.T @ c1_hat - s_u.T @ sla.cho_solve(r_u_chol, s_u))
    m_u = b2_hat @ sla.cho_solve(r_u_chol, b2_hat.T)
    xhat = riccati_sign(a_u, m_u, q_u)
    fhat = -sla.cho_solve(r_u_chol, b2_hat.T @ xhat + s_u)

    r_y = symmetrize(d21 @ d21.T)
    r_y_chol = sla.cho_factor(r_y)
    s_y = b1_hat @ d21.T
    a_y = a_hat - s_y @ sla.cho_solve(r_y_chol, c2_hat)
    q_y = symmetrize(b1_hat @ b1_hat.T - s_y @ sla.cho_solve(r_y_chol, s_y.T))
    m_y = c2_hat.T @ sla.cho_solve(r_y_chol, c2_hat)
    yhat = riccati_sign(a_y.T, m_y, q_y)
    lhat = -sla.cho_solve(r_y_chol, (yhat @ c2_hat.T + s_y).T).T

    a_f = a_hat + b2_hat @ fhat
    a_l = a_hat + lhat @ c2_hat
    eye = np.eye(n2)
    phi_u = sla.solve_continuous_lyapunov(a_f, -eye)
    phi_y = sla.solve_continuous_lyapunov(a_l.T, -eye)
    nu = fhat.shape[0]
    ny = lhat.shape[1]
    w_l = StateSpace(a_f, eye, fhat, np.zeros((nu, n2)))
    wbar_l = StateSpace(a_f, b2_hat @ fhat, fhat, fhat)
    w_r = StateSpace(a_l, lhat, eye, np.zeros((n2, ny)))
    wbar_r = StateSpace(a_l, lhat, lhat @ c2_hat, lhat)
    q_star = neg(series(wbar_r, w_l))
    return HatSpectralFactors(w_l=w_l, wbar_l=wbar_l, w_r=w_r, wbar_r=wbar_r,
                              fhat=fhat, lhat=lhat, xhat=xhat, yhat=yhat,
                              embed_u=fhat @ sqrt_psd(phi_u, tol),
                              embed_y=lhat.T @ sqrt_psd(phi_y, tol),
                              q_star=q_star)


def hat_gap_weights(yd, hsf: HatSpectralFactors,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[float, float]:
    """(eps1, eps2) of the gap bound from the 2n-state realizations of T12,
    T21 on A_hat and the hat factor weights Wbar_R, Wbar_L."""
    g, hat = yd.g, youla_hat(yd)
    t12 = StateSpace(hat.a_hat, hat.b2_hat, hat.c1_hat, g.d12)
    t21 = StateSpace(hat.a_hat, hat.b1_hat, hat.c2_hat, g.d21)
    t12_t21 = hinf_norm(t12, tol) * hinf_norm(t21, tol)
    return (t12_t21 * hinf_norm(hsf.wbar_r, tol),
            t12_t21 * hinf_norm(hsf.wbar_l, tol))


@dataclass
class PerSampleRun:
    """Staged signals and the monolithic joint state at every sample."""

    w: np.ndarray                      # the held disturbance (samples, m1)
    x: np.ndarray
    xk: np.ndarray
    z: np.ndarray
    u: np.ndarray
    v_mono: np.ndarray                 # (samples, n + n_k)


def per_sample_simulation(g, controller, horizon: float, dt: float,
                          disturbance) -> PerSampleRun:
    """The staged three-step run and its monolithic check, with B1 w, D21 w,
    Bcl w and z formed one sample at a time and the monolithic loop stepped
    by RK4 on its field Acl v + Bcl w.  Disturbances as in
    ``run_hier_simulation``; no check or guard is applied."""
    closed = lft_lower(g, controller.expand())
    n, nk, m1 = g.n, controller.k_tilde.n_states, g.m1
    steps = int(np.ceil(horizon / dt))
    kind = disturbance[0]
    x_init = np.zeros(n)
    if kind == "impulse":
        w_path = np.zeros((steps + 1, m1))
        x_init = g.b1[:, int(disturbance[1])].copy()
    elif kind == "noise":
        w_path = float(disturbance[2]) * np.random.default_rng(
            int(disturbance[1])).standard_normal((steps + 1, m1))
    else:
        w_path = np.asarray(disturbance[1], float)
    p_u, p_y, kt = controller.p_u, controller.p_y, controller.k_tilde

    def staged(v, w):
        x, xk = v[:n], v[n:]
        ybar = p_y @ (g.c2 @ x + g.d21 @ w)
        u = p_u.T @ (kt.c @ xk + kt.d @ ybar)
        dx = g.a @ x + g.b1 @ w + g.b2 @ u
        return np.concatenate([dx, kt.a @ xk + kt.b @ ybar]), u

    v = np.concatenate([x_init, np.zeros(nk)])
    v_mono = v.copy()
    out = PerSampleRun(w_path, *(np.empty((steps + 1, d)) for d in
                                 (n, nk, g.p1, g.n_u, n + nk)))
    for step, w in enumerate(w_path):
        dv, u = staged(v, w)
        out.x[step], out.xk[step], out.u[step] = v[:n], v[n:], u
        out.z[step] = g.c1 @ v[:n] + g.d12 @ u
        out.v_mono[step] = v_mono
        v = _rk4(lambda s: staged(s, w)[0], v, dv, dt)
        v_mono = _rk4(lambda s: closed.a @ s + closed.b @ w, v_mono,
                      closed.a @ v_mono + closed.b @ w, dt)
    return out


def smw_shift_invert_per_column(hs, sigma: float, a_sp, c1_sp):
    """(H - sigma I)^{-1} by the Woodbury update of the block-triangular
    S = [[A, 0], [-C1'C1, -A']], with S^{-1} N and the capacitance
    I + G S^{-1} N formed one column of N at a time."""
    n = hs.n
    eye = sp.identity(n, format="csc")
    lu1 = spla.splu((a_sp - sigma * eye).tocsc())
    lu2 = spla.splu((-a_sp.T - sigma * eye).tocsc())

    def s_solve(b):
        z1 = lu1.solve(b[:n])
        return np.concatenate([z1, lu2.solve(b[n:] + c1_sp.T @ (c1_sp @ z1))])

    cols = []
    for j in range(hs.n_gain.shape[1]):
        e = np.zeros(2 * n)
        e[:n] = hs.n_gain[:, j]
        cols.append(s_solve(e))
    su = np.column_stack(cols)
    cap = np.eye(su.shape[1]) + np.column_stack(
        [hs.gain(su[n:, j]) for j in range(su.shape[1])])

    def apply(b):
        t = s_solve(np.asarray(b, dtype=float))
        return t - su @ np.linalg.solve(cap, hs.gain(t[n:]))

    return apply
