import numpy as np
import pytest

import scipy.linalg as sla

from hierh2 import (DEFAULT_TOLERANCES, StateSpace, h2_norm, hinf_norm,
                    solve_are, solve_lyapunov, spectral_abscissa, sqrt_psd,
                    stable_eigenspace, unstable_spectrum)
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
    a = np.array([[0.0, 1.0], [-1.0, -0.2]])
    m = 0.01 * np.eye(2)
    q = 0.01 * np.eye(2)
    h = np.block([[a, -m], [-q, -a.T]])
    with pytest.warns(ConjugatePairSplitWarning):
        sub = stable_eigenspace(h, k=1)
    assert sub.k == 2
    assert sub.block_sizes == (2,)


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
# Unstable spectrum / sqrt
# ---------------------------------------------------------------------------

def test_unstable_spectrum_cases():
    assert unstable_spectrum(-np.eye(3)).q == 0

    # negated path-graph Laplacian: single zero mode, eigenvector 1/sqrt(n)
    lap = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    spec = unstable_spectrum(-lap)
    assert spec.q == 1
    assert spec.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    v = spec.v_right[:, 0].real
    assert np.abs(v) == pytest.approx(np.ones(3) / np.sqrt(3))

    spec = unstable_spectrum(np.diag([1.0, -1.0]))
    assert spec.eigenvalues == pytest.approx(np.array([1.0]))
    assert np.abs(spec.v_left[:, 0]) == pytest.approx(np.array([1.0, 0.0]))
    assert np.abs(spec.v_right[:, 0]) == pytest.approx(np.array([1.0, 0.0]))


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
