"""Independent oracles used to freeze expected values.

Each oracle takes a different computational route than the library code it
checks: Lyapunov via the Kronecker vectorization linear system, Riccati
via matrix sign iteration, the H2 norm via frequency quadrature, and the
H-infinity norm via dense frequency gridding.
"""

import numpy as np


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
    matrix sign function of the Hamiltonian (determinant-scaled Newton)."""
    n = a.shape[0]
    m = b @ np.linalg.solve(r, b.T)
    h = np.block([[a, -m], [-c.T @ c, -a.T]])
    z = h.copy()
    for _ in range(max_iter):
        z_inv = np.linalg.inv(z)
        det = abs(np.linalg.det(z))
        mu = det ** (-1.0 / (2 * n)) if det > 0 else 1.0
        z_next = 0.5 * (mu * z + z_inv / mu)
        if np.linalg.norm(z_next - z, "fro") <= tol * np.linalg.norm(z, "fro"):
            z = z_next
            break
        z = z_next
    # columns of (I - sign(H)) span the stable invariant subspace
    proj = np.eye(2 * n) - z
    q, _ = np.linalg.qr(proj)
    basis = q[:, :n]
    # project out any rank deficiency via SVD of the projector
    u, s, _ = np.linalg.svd(proj)
    basis = u[:, :n]
    z1, z2 = basis[:n], basis[n:]
    x = z2 @ np.linalg.inv(z1)
    return 0.5 * (x + x.T)


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
