import numpy as np
import pytest

import scipy.linalg as sla

from hierh2 import (DEFAULT_TOLERANCES, STRICT_TOLERANCES, StateSpace,
                    detectable, h2_norm, hinf_norm, linalg, solve_are,
                    solve_lyapunov, spectral_abscissa, sqrt_psd, stabilizable,
                    stable_eigenspace, unstable_eigenbases)
from hierh2.errors import (HamiltonianImaginaryAxis, NotHurwitz, NotPSD,
                           NotStabilizable, NotStrictlyProper, NumericalError,
                           ConjugatePairSplitWarning)
from hierh2.linalg import RealSchur, solve_sylvester

from conftest import random_are_instance, random_stable_matrix
from oracles import are_sign_iteration, h2_quadrature, hinf_grid, lyapunov_kron


# ---------------------------------------------------------------------------
# Lyapunov
# ---------------------------------------------------------------------------

def test_lyapunov_scalar():
    assert solve_lyapunov([[-1.0]], [[np.sqrt(2.0)]]) == pytest.approx(np.array([[1.0]]))
    assert solve_lyapunov([[-1.0]], [[1.0]]) == pytest.approx(np.array([[0.5]]))


def test_lyapunov_matches_kron_oracle():
    rng = np.random.default_rng(11)
    a = random_stable_matrix(rng, 6)
    b = rng.standard_normal((6, 3))
    phi = solve_lyapunov(a, b)
    ref = lyapunov_kron(a, b)
    assert np.linalg.norm(phi - ref, "fro") <= 1e-8 * max(1, np.linalg.norm(ref))


def test_lyapunov_requires_hurwitz():
    with pytest.raises(NotHurwitz):
        solve_lyapunov([[0.0]], [[1.0]])
    with pytest.raises(NotHurwitz):
        solve_lyapunov([[1.0, 0.0], [0.0, -1.0]], np.eye(2))


def test_lyapunov_contract_residual_and_psd():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = rng.integers(2, 8)
        a = random_stable_matrix(rng, n)
        b = rng.standard_normal((n, rng.integers(1, n + 1)))
        phi = solve_lyapunov(a, b)
        q = b @ b.T
        res = np.linalg.norm(a @ phi + phi @ a.T + q, "fro")
        assert res <= 1e-9 * max(1.0, np.linalg.norm(q, "fro"))
        assert np.linalg.eigvalsh(phi).min() >= -1e-10


def test_lyapunov_residual_contract_rejects():
    rng = np.random.default_rng(6)
    a = random_stable_matrix(rng, 6)
    b = rng.standard_normal((6, 2))
    with pytest.raises(NumericalError, match="residual"):
        solve_lyapunov(a, b, tol=DEFAULT_TOLERANCES.with_(lyap_residual=1e-30))


def _with_rotation(rng, blocks):
    """Random similarity of a block-diagonal matrix (2x2 blocks give
    complex pairs)."""
    d = sla.block_diag(*[np.atleast_2d(blk) for blk in blocks])
    s = rng.standard_normal(d.shape) + 3.0 * np.eye(d.shape[0])
    return s @ d @ np.linalg.inv(s)


def test_sylvester_kernel_matches_scipy_on_unequal_blocks():
    rng = np.random.default_rng(21)
    a1 = _with_rotation(rng, [[[-1.0, 3.0], [-3.0, -1.0]], -2.0,
                              [[-0.5, 1.5], [-1.5, -0.5]], -4.0])
    a2 = _with_rotation(rng, [-0.7, [[-2.0, 5.0], [-5.0, -2.0]]])
    q = rng.standard_normal((6, 3))
    f1, f2 = RealSchur.of(a1), RealSchur.of(a2)
    # both factors carry 2x2 blocks, so trsyl takes its complex-pair branches
    assert np.count_nonzero(np.diag(f1.t, -1)) == 2
    assert np.count_nonzero(np.diag(f2.t, -1)) == 1
    x = solve_sylvester(f1, f2, q)
    ref = sla.solve_sylvester(a1, a2.T, -q)
    assert np.linalg.norm(x - ref, "fro") <= 1e-10 * np.linalg.norm(ref, "fro")
    assert f1.abscissa == pytest.approx(-0.5, rel=1e-10)
    assert f2.abscissa == pytest.approx(-0.7, rel=1e-10)


def test_transposed_schur_factors():
    rng = np.random.default_rng(22)
    a1 = _with_rotation(rng, [[[-1.0, 3.0], [-3.0, -1.0]], -2.0,
                              [[-0.5, 1.5], [-1.5, -0.5]], -4.0])
    a2 = _with_rotation(rng, [-0.7, [[-2.0, 5.0], [-5.0, -2.0]]])
    q = rng.standard_normal((6, 3))
    f1t = RealSchur.of(a1).transposed()
    assert np.count_nonzero(np.diag(f1t.t, -1)) == 2
    assert np.array_equal(f1t.a, a1.T)
    # upper quasi-triangular with orthogonal U, and U T U' = A'
    assert not np.any(np.tril(f1t.t, -2))
    assert np.allclose(f1t.u.T @ f1t.u, np.eye(6), atol=1e-14)
    assert np.linalg.norm(f1t.u @ f1t.t @ f1t.u.T - a1.T, "fro") <= \
        1e-13 * np.linalg.norm(a1, "fro")
    assert f1t.abscissa == pytest.approx(-0.5, rel=1e-10)
    f2 = RealSchur.of(a2)
    x = solve_sylvester(f1t, f2, q)
    ref = solve_sylvester(RealSchur.of(a1.T), f2, q)
    assert np.linalg.norm(x - ref, "fro") <= 1e-12 * np.linalg.norm(ref, "fro")


def _split_straddling_pairs(n, start=0):
    """Rows s of the 2x2 blocks (s, s+1) that sit on every split point the
    recursive kernel meets on an n x n factor: each block covers the
    midpoint row k, so the split moves to k + 1."""
    if n <= linalg._TRSYL_LEAF:
        return []
    k = n // 2
    return ([start + k - 1] + _split_straddling_pairs(k + 1, start)
            + _split_straddling_pairs(n - k - 1, start + k + 1))


def _quasi_triangular_factors(rng, n, pairs):
    """RealSchur of U T U' for a Schur-canonical T with 2x2 blocks at rows
    (s, s+1) for s in `pairs`, eigenvalue real parts in [-3, -1]."""
    t = np.triu(rng.standard_normal((n, n)), 1) / np.sqrt(n)
    t[np.diag_indices(n)] = -rng.uniform(1.0, 3.0, n)
    for s in pairs:
        t[s + 1, s + 1] = t[s, s]
        t[s, s + 1] = rng.uniform(0.5, 2.0)
        t[s + 1, s] = -rng.uniform(0.5, 2.0)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return RealSchur(a=u @ t @ u.T, t=t, u=u)


def _one_trsyl_call(f1, f2, q):
    y, scale = linalg._trsyl(f1.t, f2.t, -(f1.u.T @ q @ f2.u))
    return f1.u @ (y / scale) @ f2.u.T


# (m, n): a leaf and its first split (64/65), a split with a block on the
# leaf boundary (128/129), odd sizes, and 1 x n / n x 1 shapes
KERNEL_SHAPES = [(64, 65), (65, 64), (128, 129), (129, 128), (97, 201),
                 (1, 200), (200, 1), (2, 150)]


def _kernel_case(m, n):
    rng = np.random.default_rng(m * 1000 + n)
    f1 = _quasi_triangular_factors(rng, m, _split_straddling_pairs(m) or
                                   ([m - 2] if m >= 2 else []))
    f2 = _quasi_triangular_factors(rng, n, _split_straddling_pairs(n) or
                                   ([n - 2] if n >= 2 else []))
    return f1, f2, rng.standard_normal((m, n))


@pytest.mark.parametrize("m, n", KERNEL_SHAPES)
def test_recursive_kernel_matches_trsyl_and_scipy(m, n):
    f1, f2, q = _kernel_case(m, n)
    for f in (f1, f2):
        # every 2x2 block the test placed is in the factor, and none is cut
        blocks = np.flatnonzero(np.diag(f.t, -1))
        assert set(_split_straddling_pairs(f.t.shape[0])) <= set(blocks)
    x = linalg._bartels_stewart(f1, f2, q)
    one_call = _one_trsyl_call(f1, f2, q)
    assert np.linalg.norm(x - one_call) <= 1e-14 * np.linalg.norm(one_call)
    ref = sla.solve_sylvester(f1.a, f2.a.T, -q)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    res = f1.a @ x + x @ f2.a.T + q
    assert np.linalg.norm(res) <= 1e-13 * np.linalg.norm(q)


def test_recursive_kernel_split_that_cuts_a_pair_fails(monkeypatch):
    # the test data put a 2x2 block on each split point: a split that
    # ignores T[k, k-1] cuts them and the comparison above no longer holds
    monkeypatch.setattr(linalg, "_split", lambda t: t.shape[0] // 2)
    for m, n in ((65, 64), (128, 129), (1, 200)):
        f1, f2, q = _kernel_case(m, n)
        x = linalg._bartels_stewart(f1, f2, q)
        one_call = _one_trsyl_call(f1, f2, q)
        assert np.linalg.norm(x - one_call) > 1e-3 * np.linalg.norm(one_call)


def test_recursive_kernel_scaled_leaf_falls_back_to_one_trsyl(monkeypatch):
    f1, f2, q = _kernel_case(129, 128)
    expected = linalg._bartels_stewart(f1, f2, q)
    shapes = []
    plain = linalg._trsyl

    def scaling_trsyl(t1, t2, c):
        # what trsyl returns when it guards against overflow: scale * Y
        shapes.append(c.shape)
        y, scale = plain(t1, t2, c)
        return 0.5 * y, 0.5 * scale

    monkeypatch.setattr(linalg, "_trsyl", scaling_trsyl)
    x = linalg._bartels_stewart(f1, f2, q)
    assert shapes[0] != (129, 128)          # the recursion ran first,
    assert shapes[-1] == (129, 128)         # then one whole-size call
    assert shapes.count((129, 128)) == 1
    assert np.linalg.norm(x - expected) <= 1e-14 * np.linalg.norm(expected)
    tol = DEFAULT_TOLERANCES
    x = solve_sylvester(f1, f2, q, tol)
    res = f1.a @ x + x @ f2.a.T + q
    assert np.linalg.norm(res) <= tol.lyap_residual * max(1.0, np.linalg.norm(q))


# ---------------------------------------------------------------------------
# PBH
# ---------------------------------------------------------------------------

def test_pbh_real_branch_matches_complex_sigma_min():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((9, 9))
    b = rng.standard_normal((9, 2))
    eigs = np.linalg.eigvals(a)
    assert np.iscomplexobj(eigs) and np.any(eigs.imag == 0.0)
    for lam in list(eigs[eigs.imag == 0.0]) + [complex(0.3), complex(-2.0)]:
        pencil = np.hstack([a - lam * np.eye(9), b]).astype(complex)
        ref = np.linalg.svd(pencil, compute_uv=False)[-1]
        assert linalg._pbh_sigma_min(a, b, lam) == pytest.approx(ref, rel=1e-12)


def test_pbh_flags_real_uncontrollable_mode():
    # modes 0.5 (real, unstable) and -1 +- 2j, so eigvals returns a complex
    # array and the real mode takes the real-arithmetic branch
    rng = np.random.default_rng(32)
    d = sla.block_diag([[0.5]], [[-1.0, 2.0], [-2.0, -1.0]], [[-3.0]])
    s = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
    a = s @ d @ np.linalg.inv(s)
    b0 = rng.standard_normal((4, 2))
    assert stabilizable(a, s @ b0)
    b0[0] = 0.0                       # the left eigenvector of 0.5 is e_0' S^-1
    modes = linalg._pbh_modes(a, s @ b0, DEFAULT_TOLERANCES)
    assert modes == pytest.approx(np.array([0.5]), abs=1e-10)
    assert not stabilizable(a, s @ b0)
    assert not detectable(a.T, (s @ b0).T)


# ---------------------------------------------------------------------------
# Riccati
# ---------------------------------------------------------------------------

def test_are_scalar_examples():
    sol = solve_are([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    assert sol.x == pytest.approx(np.array([[1.0]]))
    assert sol.closed_loop_abscissa == pytest.approx(-1.0)

    sol = solve_are([[1.0]], [[1.0]], [[np.sqrt(3.0)]], [[1.0]])
    assert sol.x == pytest.approx(np.array([[3.0]]))
    assert sol.closed_loop_abscissa == pytest.approx(-2.0)
    # the returned factors are those of the closed loop A - M X = 1 - 3
    assert sol.closed_loop.a == pytest.approx(np.array([[-2.0]]))


def test_are_matches_sign_iteration_oracle():
    rng = np.random.default_rng(17)
    a, b, c, r = random_are_instance(rng, 5)
    x = solve_are(a, b, c, r).x
    x_ref = are_sign_iteration(a, b, c, r)
    assert np.linalg.norm(x - x_ref, "fro") <= 1e-7 * max(1, np.linalg.norm(x_ref))


def test_are_residual_and_stability_randomized():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        a, b, c, r = random_are_instance(rng, n, unstable=bool(rng.integers(2)))
        sol = solve_are(a, b, c, r)
        q = c.T @ c
        m = b @ np.linalg.solve(r, b.T)
        res = a.T @ sol.x + sol.x @ a + q - sol.x @ m @ sol.x
        assert np.linalg.norm(res, "fro") <= 1e-8 * max(1, np.linalg.norm(q, "fro"))
        assert spectral_abscissa(a - m @ sol.x) < 0
        assert np.linalg.eigvalsh(sol.x).min() >= -1e-10


def test_are_residual_contract_rejects():
    rng = np.random.default_rng(23)
    a, b, c, r = random_are_instance(rng, 6)
    with pytest.raises(NumericalError, match="residual"):
        solve_are(a, b, c, r, tol=DEFAULT_TOLERANCES.with_(are_residual=1e-30))


def test_are_rejects_unstabilizable():
    # uncontrollable unstable mode
    a = np.diag([1.0, -1.0])
    b = np.array([[0.0], [1.0]])
    with pytest.raises(NotStabilizable):
        solve_are(a, b, np.eye(2), [[1.0]])


def test_are_detects_imaginary_axis_hamiltonian():
    # C = 0 with A having an imaginary-axis mode -> H eigenvalues on jR
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    b = np.zeros((2, 1))
    b[0, 0] = 1e-8
    with pytest.raises((HamiltonianImaginaryAxis, NotStabilizable)):
        solve_are(a, b, np.zeros((1, 2)), [[1.0]])


def test_eigenspace_route_matches_solve_are():
    rng = np.random.default_rng(31)
    a, b, c, r = random_are_instance(rng, 6)
    m = b @ np.linalg.solve(r, b.T)
    h = np.block([[a, -m], [-c.T @ c, -a.T]])
    sub = stable_eigenspace(h)
    x_sub = sub.z2 @ np.linalg.inv(sub.z1)
    x_dir = solve_are(a, b, c, r).x
    assert np.linalg.norm(x_sub - x_dir, "fro") <= 1e-7 * max(1, np.linalg.norm(x_dir))


# ---------------------------------------------------------------------------
# H2 norm
# ---------------------------------------------------------------------------

def test_h2_first_order():
    sys = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    assert h2_norm(sys) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)
    sys2 = StateSpace([[-1.0]], [[1.0]], [[2.0]], [[0.0]])
    assert h2_norm(sys2) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_h2_matches_quadrature():
    rng = np.random.default_rng(3)
    sys = StateSpace(random_stable_matrix(rng, 4),
                     rng.standard_normal((4, 2)),
                     rng.standard_normal((3, 4)), np.zeros((3, 2)))
    ref = h2_quadrature(sys)
    assert h2_norm(sys) == pytest.approx(ref, rel=1e-3)


def test_h2_rejects_feedthrough_and_unstable():
    with pytest.raises(NotStrictlyProper):
        h2_norm(StateSpace([[-1.0]], [[1.0]], [[1.0]], [[1.0]]))
    with pytest.raises(NotHurwitz):
        h2_norm(StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]]))


def test_h2_additive_over_stacked_outputs():
    rng = np.random.default_rng(9)
    a = random_stable_matrix(rng, 5)
    b = rng.standard_normal((5, 2))
    c1 = rng.standard_normal((2, 5))
    c2 = rng.standard_normal((3, 5))
    full = h2_norm(StateSpace(a, b, np.vstack([c1, c2]), np.zeros((5, 2)))) ** 2
    parts = (h2_norm(StateSpace(a, b, c1, np.zeros((2, 2)))) ** 2
             + h2_norm(StateSpace(a, b, c2, np.zeros((3, 2)))) ** 2)
    assert full == pytest.approx(parts, abs=1e-10 * max(1, full))


# ---------------------------------------------------------------------------
# H-infinity norm
# ---------------------------------------------------------------------------

def test_hinf_first_order_and_static():
    sys = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    assert hinf_norm(sys) == pytest.approx(1.0, rel=1e-6)
    assert hinf_norm(StateSpace.static([[3.0]])) == pytest.approx(3.0)


def test_hinf_second_order_resonance():
    # wn = 1, zeta = 0.1, gain 10: peak = 10 / (2 zeta sqrt(1 - zeta^2))
    wn, zeta, gain = 1.0, 0.1, 10.0
    a = np.array([[0.0, 1.0], [-wn ** 2, -2 * zeta * wn]])
    b = np.array([[0.0], [gain]])
    c = np.array([[1.0, 0.0]])
    sys = StateSpace(a, b, c, [[0.0]])
    ref = hinf_grid(sys, 0.5, 2.0, 1_000_000)
    val = hinf_norm(sys)
    assert val == pytest.approx(ref, rel=1e-4)
    assert val == pytest.approx(gain / (2 * zeta * np.sqrt(1 - zeta ** 2)), rel=1e-5)


def test_hinf_lower_bounds():
    rng = np.random.default_rng(41)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        sys = StateSpace(random_stable_matrix(rng, n),
                         rng.standard_normal((n, 2)),
                         rng.standard_normal((2, n)),
                         rng.standard_normal((2, 2)))
        val = hinf_norm(sys)
        assert val >= np.linalg.norm(sys.d, 2) - 1e-9
        assert val >= np.linalg.norm(sys.eval(0.0), 2) * (1 - 1e-6)


def _rotated(a, b, c, d, rng):
    """Same singular values of G(jw): orthogonal input and output rotations."""
    u = np.linalg.qr(rng.standard_normal((c.shape[0],) * 2))[0]
    v = np.linalg.qr(rng.standard_normal((b.shape[1],) * 2))[0]
    return StateSpace(a, b @ v, u @ c, u @ d @ v)


def _resonance(wn, zeta, gain):
    """gain wn^2 / (s^2 + 2 zeta wn s + wn^2) and its analytic peak."""
    a = np.array([[0.0, 1.0], [-wn ** 2, -2 * zeta * wn]])
    b = np.array([[0.0], [gain * wn ** 2]])
    c = np.array([[1.0, 0.0]])
    return (a, b, c), gain / (2 * zeta * np.sqrt(1 - zeta ** 2))


def test_hinf_lightly_damped_mimo():
    # two modes at zeta = 0.01; the pole-frequency start lands on the wn = 1
    # mode, the peak is the wn = 3 mode's
    (a1, b1, c1), peak1 = _resonance(1.0, 0.01, 1.0)
    (a2, b2, c2), peak2 = _resonance(3.0, 0.01, 1.2)
    sys = _rotated(sla.block_diag(a1, a2), sla.block_diag(b1, b2),
                   sla.block_diag(c1, c2), np.zeros((2, 2)),
                   np.random.default_rng(5))
    val = hinf_norm(sys)
    assert val == pytest.approx(max(peak1, peak2), rel=1e-6)
    assert val == pytest.approx(hinf_grid(sys, 0.5, 4.0, 40_000), rel=1e-4)


def test_hinf_supremum_at_infinity():
    # s / (s + a_i) per channel: |G(jw)| < 1 rises to sigma(D) = 1 as w -> inf
    rates = np.array([1.0, 2.0, 5.0])
    sys = _rotated(-np.diag(rates), np.eye(3), -np.diag(rates), np.eye(3),
                   np.random.default_rng(6))
    val = hinf_norm(sys)
    assert 0.0 <= val - 1.0 <= 0.5 * DEFAULT_TOLERANCES.hinf_rel + 1e-15
    assert hinf_grid(sys, 1e-3, 1e3, 10_000) < 1.0


def test_hinf_peak_above_feedthrough_start():
    # a realization of T12 from a random A1-A4 plant: the start bound is
    # sigma_max(D) = 1.5443 and the norm 1.6016 is at w ~ 1.  With the axis
    # test fixed at 1e-8 the crossings of the first round, whose Hamiltonian
    # holds (gamma^2 - D'D)^{-1} ~ 1 / (2 hinf_rel), were missed and the
    # feedthrough bound came back as the norm
    sys = StateSpace(
        [[3.341400408114274, -4.542441039717009],
         [4.694169752214077, -5.78628301022297]],
        [[-0.2812874181513504], [-0.6680463461089501]],
        [[-0.8652130762749417, 3.3229995166448827],
         [0.22578661322792176, -0.3526307943415954],
         [-9.885001156210745, 10.90779631254714]],
        [[0.0], [0.0], [1.5443239950052332]])
    ref = hinf_grid(sys, 1e-3, 60.0, 300_000)
    assert ref > 1.03 * np.linalg.norm(sys.d, 2)
    assert hinf_norm(sys) == pytest.approx(ref, rel=DEFAULT_TOLERANCES.hinf_rel)


def test_hinf_peak_at_dc():
    # symmetric A: sigma_max((jw I - A)^{-1}) = max 1 / |jw - lambda_i| peaks at w = 0
    q = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))[0]
    a = q @ np.diag([-0.5, -2.0, -3.0]) @ q.T
    sys = StateSpace(a, np.eye(3), np.eye(3), np.zeros((3, 3)))
    val = hinf_norm(sys)
    assert val == pytest.approx(2.0, rel=1e-6)
    assert val >= np.linalg.norm(sys.eval(0.0), 2)


@pytest.mark.parametrize("wn, zeta, gain, tol", [
    (1.0, 0.1, 10.0, STRICT_TOLERANCES),
    # at zeta = 1e-6 the gamma-Hamiltonian eigenvalues near the peak pass the
    # axis test although gamma is above the norm; the midpoint probe then
    # stays below gamma and the bracket is returned
    (3.0, 1e-6, 1.0, DEFAULT_TOLERANCES),
    (3.0, 1e-6, 1.0, STRICT_TOLERANCES),
], ids=["strict", "nearly_undamped", "nearly_undamped_strict"])
def test_hinf_resonance_to_hinf_rel(wn, zeta, gain, tol):
    (a, b, c), peak = _resonance(wn, zeta, gain)
    val = hinf_norm(StateSpace(a, b, c, [[0.0]]), tol)
    assert val == pytest.approx(peak, rel=tol.hinf_rel)


def test_hinf_round_bound_raises(monkeypatch):
    # s / ((s + 1)(s + 100)) peaks at 1/101 at w = 10 and the start bound is
    # |G(100j)| = 0.0071.  The fake Hamiltonian reports one crossing a round,
    # at the w > 10 where |G(jw)| = 1.001 gamma, so the bound rises by 0.1 %
    # a round and stays below the peak for all 30 rounds.
    def one_crossing(sys, gamma):
        g2 = (1.001 * gamma) ** 2
        # |G(jw)|^2 = u / ((1 + u)(1e4 + u)) = g2 at u = w^2, larger root
        p = 1.0 - 10001.0 * g2
        w = np.sqrt((p + np.sqrt(p * p - 4e4 * g2 * g2)) / (2 * g2))
        return np.array([[0.0, w], [-w, 0.0]])

    monkeypatch.setattr(linalg, "_hinf_hamiltonian", one_crossing)
    sys = StateSpace(np.array([[0.0, 1.0], [-100.0, -101.0]]),
                     np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]]),
                     np.zeros((1, 1)))
    with pytest.raises(NumericalError, match="rounds"):
        hinf_norm(sys)


# ---------------------------------------------------------------------------
# Stable eigenspace
# ---------------------------------------------------------------------------

def test_stable_eigenspace_scalar_hand_case():
    h = np.array([[0.0, -1.0], [-1.0, 0.0]])
    sub = stable_eigenspace(h)
    assert sub.eigenvalues == pytest.approx(np.array([-1.0]))
    assert np.abs(sub.z1) == pytest.approx(np.array([[1 / np.sqrt(2)]]))
    assert np.abs(sub.z2) == pytest.approx(np.array([[1 / np.sqrt(2)]]))
    assert np.sign(sub.z1[0, 0]) == np.sign(sub.z2[0, 0])


def test_stable_eigenspace_full_matches_dense_halfplane():
    rng = np.random.default_rng(29)
    a, b, c, r = random_are_instance(rng, 6)
    m = b @ np.linalg.solve(r, b.T)
    h = np.block([[a, -m], [-c.T @ c, -a.T]])
    sub = stable_eigenspace(h)
    dense = np.linalg.eigvals(h)
    stable_ref = np.sort_complex(dense[dense.real < 0])
    assert np.allclose(np.sort_complex(sub.eigenvalues), stable_ref, atol=1e-7)
    # residual contract
    z = np.vstack([sub.z1, sub.z2])
    res = np.linalg.norm(h @ z - z @ sub.lam, "fro")
    assert res <= 1e-8 * np.linalg.norm(h, "fro")
    # unit stacked columns
    assert np.linalg.norm(z, axis=0) == pytest.approx(np.ones(6))


def test_stable_eigenspace_bumps_split_pair():
    # 4x4 Hamiltonian whose smallest-magnitude stable eigenvalues are a
    # complex pair: A has a lightly damped resonance
    from hierh2 import build_hamiltonian
    a = np.array([[0.0, 1.0], [-1.0, -0.2]])
    # M = Q = 0.01 I
    hs = build_hamiltonian(a, 0.1 * np.eye(2), 0.1 * np.eye(2), np.eye(2))
    with pytest.warns(ConjugatePairSplitWarning):
        sub = hs.full_subspace().head(1)
    assert sub.k == 2
    assert sub.block_sizes == (2,)


def test_group_conjugates_keeps_one_member_per_pair():
    # -1 +- 2j is an exact pair; -0.5 - 1j and -2 + 0.5j are lone members
    # whose conjugates were cut off, and the Im < 0 one is conjugated
    from hierh2.linalg import _group_conjugates
    vals = np.array([-1 + 2j, -3.0 + 0j, -1 - 2j, -0.5 - 1j, -2 + 0.5j])
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    reps = _group_conjugates(vals, vecs)
    assert [(lam, pair) for lam, _, pair in reps] == [
        (-0.5 + 1j, True), (-2 + 0.5j, True), (-1 + 2j, True), (-3.0, False)]
    for (_, vec, _), ref in zip(reps, (vecs[:, 3].conj(), vecs[:, 4],
                                       vecs[:, 0], vecs[:, 1])):
        assert np.array_equal(vec, ref)


def test_stable_eigenspace_ordering_by_magnitude():
    rng = np.random.default_rng(101)
    a, b, c, r = random_are_instance(rng, 7)
    m = b @ np.linalg.solve(r, b.T)
    h = np.block([[a, -m], [-c.T @ c, -a.T]])
    sub = stable_eigenspace(h)
    mags = np.abs(sub.eigenvalues)
    # pairs are adjacent with equal magnitude; block-lead magnitudes ascend
    lead = []
    i = 0
    for size in sub.block_sizes:
        lead.append(mags[i])
        i += size
    assert all(lead[i] <= lead[i + 1] + 1e-12 for i in range(len(lead) - 1))


# ---------------------------------------------------------------------------
# Unstable eigenbases / sqrt
# ---------------------------------------------------------------------------

def test_unstable_spectrum_cases():
    vl, vr = unstable_eigenbases(-np.eye(3))
    assert vl.shape == vr.shape == (3, 0)

    # negated path-graph Laplacian: single zero mode, eigenvector 1/sqrt(n)
    lap = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    vl, vr = unstable_eigenbases(-lap)
    assert vl.shape == vr.shape == (3, 1)
    assert np.linalg.norm(lap @ vr) <= 1e-12
    v = vr[:, 0] / np.linalg.norm(vr[:, 0])
    assert np.abs(v) == pytest.approx(np.ones(3) / np.sqrt(3))

    vl, vr = unstable_eigenbases(np.diag([1.0, -1.0]))
    assert vl.shape == vr.shape == (2, 1)
    assert np.abs(vl[:, 0]) == pytest.approx(np.array([1.0, 0.0]))
    assert np.abs(vr[:, 0]) == pytest.approx(np.array([1.0, 0.0]))

    # eigenvalues 0.5 +- 2j and -1 behind a random similarity S: the pair
    # gives two real columns spanning its left and right invariant subspaces
    s = np.random.default_rng(41).standard_normal((3, 3))
    a = s @ np.array([[0.5, 2.0, 0.0], [-2.0, 0.5, 0.0], [0.0, 0.0, -1.0]]) \
        @ np.linalg.inv(s)
    vl, vr = unstable_eigenbases(a)
    assert vl.shape == vr.shape == (3, 2)
    for m, v in ((a.T, vl), (a, vr)):
        defect = m @ v - v @ (np.linalg.pinv(v) @ m @ v)
        assert np.linalg.norm(defect) <= 1e-12 * np.linalg.norm(a)
    assert np.sort_complex(np.linalg.eigvals(np.linalg.pinv(vr) @ a @ vr)) == \
        pytest.approx(np.array([0.5 - 2j, 0.5 + 2j]))
    # the left span annihilates the stable right eigenvector S e3
    assert np.linalg.norm(vl.T @ s[:, 2]) <= \
        1e-12 * np.linalg.norm(vl) * np.linalg.norm(s[:, 2])


def test_sqrt_psd():
    assert sqrt_psd(np.eye(3)) == pytest.approx(np.eye(3))
    assert sqrt_psd(np.diag([4.0, 9.0])) == pytest.approx(np.diag([2.0, 3.0]))
    rng = np.random.default_rng(77)
    g = rng.standard_normal((5, 5))
    m = g @ g.T
    s = sqrt_psd(m)
    assert np.linalg.norm(s @ s.T - m, "fro") <= 1e-9 * np.linalg.norm(m, "fro")
    with pytest.raises(NotPSD):
        sqrt_psd(np.diag([1.0, -1.0]))


def test_hinf_rejects_unstable():
    with pytest.raises(NotHurwitz):
        hinf_norm(StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]]))
