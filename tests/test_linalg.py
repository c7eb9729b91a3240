import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.linalg as sla

from hierh2 import (DEFAULT_TOLERANCES, STRICT_TOLERANCES, GeneralizedPlant,
                    ProjectionPair, StateSpace, build_hamiltonian,
                    detectable, h2_norm, hinf_norm, linalg, solve_are,
                    solve_lyapunov, spectral_abscissa, sqrt_psd,
                    stabilizable, stable_eigenspace, unstable_eigenbases,
                    validate_assumptions)
from hierh2.errors import (DimensionMismatch, HamiltonianImaginaryAxis,
                           HypothesisFailure, NotHurwitz, NotPSD, NotStabilizable,
                           NotStrictlyProper, NumericalError,
                           ConjugatePairSplitWarning)
from hierh2.linalg import RealSchur, solve_sylvester, solve_sylvester_schur
from hierh2.projection import _projected_pbh_failure
from hierh2.synthesis import _check_hypotheses, synthesize_hierarchical

from conftest import random_are_instance, random_stable_matrix
from oracles import (are_sign_iteration, h2_quadrature, hinf_grid,
                     lyapunov_kron, riccati_ordered_schur)


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


@pytest.mark.parametrize("lyapunov", [False, True])
def test_schur_core_residual_is_the_original_coordinate_residual(lyapunov):
    # the contract is checked in Schur coordinates; the Frobenius norm is
    # invariant under the orthogonal change of basis, so for any Y the
    # core's residual equals that of X = U1 Y U2' in the original
    # coordinates to rounding, and the solved X meets the original contract
    rng = np.random.default_rng(23)
    a1 = _with_rotation(rng, [[[-1.0, 3.0], [-3.0, -1.0]], -2.0,
                              [[-0.5, 1.5], [-1.5, -0.5]], -4.0])
    f1 = RealSchur.of(a1)
    if lyapunov:
        f2 = f1
        q = rng.standard_normal((6, 4))
        q = q @ q.T
    else:
        f2 = RealSchur.of(_with_rotation(rng, [-0.7, [[-2.0, 5.0], [-5.0, -2.0]]]))
        q = rng.standard_normal((6, 3))
    q_hat = f1.u.T @ q @ f2.u
    assert np.linalg.norm(q_hat) == pytest.approx(np.linalg.norm(q), rel=1e-14)
    tol = DEFAULT_TOLERANCES
    y = solve_sylvester_schur(f1, f2, q_hat, tol)
    if lyapunov:
        assert np.array_equal(y, y.T)
    for pert in (0.0, 1e-3, 1.0):
        yp = y + pert * rng.standard_normal(y.shape)
        x = f1.u @ yp @ f2.u.T
        res_schur = np.linalg.norm(f1.t @ yp + yp @ f2.t.T + q_hat)
        res_orig = np.linalg.norm(f1.a @ x + x @ f2.a.T + q)
        scale = (np.linalg.norm(f1.a) + np.linalg.norm(f2.a)) \
            * np.linalg.norm(x) + np.linalg.norm(q)
        assert abs(res_schur - res_orig) <= 1e-13 * scale
        if pert == 0.0:
            assert res_orig <= tol.lyap_residual * max(1.0, np.linalg.norm(q))
    x = solve_sylvester(f1, f2, q, tol)
    assert np.linalg.norm(x - f1.u @ y @ f2.u.T) <= 1e-14 * np.linalg.norm(x)


def test_schur_core_contract_rejects():
    rng = np.random.default_rng(24)
    f1 = RealSchur.of(random_stable_matrix(rng, 7))
    f2 = RealSchur.of(random_stable_matrix(rng, 4))
    q_hat = rng.standard_normal((7, 4))
    with pytest.raises(NumericalError, match="Sylvester residual"):
        solve_sylvester_schur(f1, f2, q_hat,
                              DEFAULT_TOLERANCES.with_(lyap_residual=1e-30))
    with pytest.raises(DimensionMismatch):
        solve_sylvester_schur(f1, f2, q_hat.T)


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


@pytest.mark.parametrize("lyapunov", [False, True])
def test_solve_sylvester_checks_the_contract_in_original_coordinates(lyapunov):
    # factors with A - U T U' != 0, as rounding leaves them: the core meets
    # its contract in Schur coordinates, and solve_sylvester still returns
    # an X that meets ||A1 X + X A2' + Q||_F <= lyap_residual max(1, ||Q||_F)
    # after refining in the original coordinates, or raises
    rng = np.random.default_rng(25)
    n = 40
    exact = _quasi_triangular_factors(rng, n, [3, 20])

    def perturbed(rel):
        e = rng.standard_normal((n, n))
        e *= rel * np.linalg.norm(exact.a) / np.linalg.norm(e)
        return RealSchur(a=exact.a + e, t=exact.t, u=exact.u)

    tol = DEFAULT_TOLERANCES
    for rel, meets in ((1e-8, True), (5e-2, False)):
        f1 = perturbed(rel)
        f2 = f1 if lyapunov else perturbed(rel)
        q = rng.standard_normal((n, n))
        q = q @ q.T if lyapunov else q
        bound = tol.lyap_residual * max(1.0, np.linalg.norm(q))

        def res(x):
            return np.linalg.norm(f1.a @ x + x @ f2.a.T + q)

        y = solve_sylvester_schur(f1, f2, f1.u.T @ q @ f2.u, tol)
        assert res(f1.u @ y @ f2.u.T) > bound
        if meets:
            x = solve_sylvester(f1, f2, q, tol)
            assert res(x) <= bound
            if lyapunov:
                assert np.array_equal(x, x.T)
        else:
            with pytest.raises(NumericalError, match="Sylvester residual"):
                solve_sylvester(f1, f2, q, tol)


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
    scale = max(1.0, np.linalg.norm(a), np.linalg.norm(b))
    for lam in list(eigs[eigs.imag == 0.0]) + [complex(0.3), complex(-2.0)]:
        pencil = np.hstack([a - lam * np.eye(9), b]).astype(complex)
        ref = np.linalg.svd(pencil, compute_uv=False)[-1]
        # the one threshold pbh_rel max(1, ||A||_F, ||B||_F) just above and
        # just below the complex-arithmetic sigma_min
        flags = [linalg._pbh_rank_deficient(
            a, b, np.array([lam]),
            DEFAULT_TOLERANCES.with_(pbh_rel=ref * f / scale))[0]
            for f in (1.0 + 1e-12, 1.0 - 1e-12)]
        assert flags == [True, False]


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
    unstable = linalg._unstable_modes(np.linalg.eigvals(a), DEFAULT_TOLERANCES)
    modes = unstable[linalg._pbh_rank_deficient(a, s @ b0, unstable,
                                                DEFAULT_TOLERANCES)]
    assert modes == pytest.approx(np.array([0.5]), abs=1e-10)
    assert not stabilizable(a, s @ b0)
    assert not detectable(a.T, (s @ b0).T)


@pytest.mark.parametrize("shift", [0.3, 0.3 + 0.2j])
def test_sigma_min_certificate_brackets_the_svd(shift):
    # proven only above sigma_min: it passes just below and fails just
    # above, on a real Schur factor with 2 x 2 blocks, at a real and at a
    # complex shift
    rng = np.random.default_rng(33)
    t = sla.schur(rng.standard_normal((40, 40)), output="real")[0]
    assert np.count_nonzero(np.diag(t, -1)) > 0
    s = np.linalg.svd(t - shift * np.eye(40), compute_uv=False)[-1]
    assert linalg._sigma_min_exceeds(t, shift, 0.999 * s)
    assert not linalg._sigma_min_exceeds(t, shift, 1.001 * s)


def test_sigma_min_certificate_fails_at_an_eigenvalue():
    # at a real eigenvalue T - lambda I is singular; its rounding margin
    # keeps the test from passing even at c = 0
    rng = np.random.default_rng(34)
    t = sla.schur(rng.standard_normal((40, 40)), output="real")[0]
    sub = np.r_[np.diag(t, -1), 0.0]
    real = [j for j in range(40) if sub[j] == 0.0 and (j == 0 or sub[j - 1] == 0.0)]
    assert real
    assert not linalg._sigma_min_exceeds(t, t[real[0], real[0]], 0.0)


@pytest.mark.parametrize("planted", [False, True])
def test_loop_certificate_passes_only_what_the_rule_passes(planted):
    # a hidden mode stays an eigenvalue of A + B K whatever K is, so no
    # loop certifies it; a reachable one is certified by a stabilizing loop
    for seed in range(5):
        g = _planted_mode_plant(seed, 5, 2, seed % 2 == 1, False, planted)
        modes = linalg._unstable_modes(g.spectrum, DEFAULT_TOLERANCES)
        gain = (-g.b2.T @ solve_are(g.a, g.b2, np.eye(g.n), np.eye(g.n_u)).x
                if not planted else
                np.random.default_rng(seed).standard_normal((g.n_u, g.n)))
        t = RealSchur.of(g.a + g.b2 @ gain).t
        certified = linalg._pbh_certified(g.a, g.b2, t, gain, modes,
                                          DEFAULT_TOLERANCES)
        rejected = linalg._pbh_rank_deficient(g.a, g.b2, modes,
                                              DEFAULT_TOLERANCES).any()
        assert (certified, rejected) == (not planted, planted)


def test_loop_certificate_declines_a_pbh_rel_at_rounding_level():
    # near n eps the room above the threshold no longer covers the backward
    # errors, so the certificate leaves even a reachable mode to the rule
    g = _planted_mode_plant(0, 5, 2, False, False, False)
    modes = linalg._unstable_modes(g.spectrum, DEFAULT_TOLERANCES)
    gain = -g.b2.T @ solve_are(g.a, g.b2, np.eye(g.n), np.eye(g.n_u)).x
    t = RealSchur.of(g.a + g.b2 @ gain).t
    tiny = DEFAULT_TOLERANCES.with_(pbh_rel=1e-16)
    assert linalg._pbh_certified(g.a, g.b2, t, gain, modes, DEFAULT_TOLERANCES)
    assert not linalg._pbh_certified(g.a, g.b2, t, gain, modes, tiny)


def _planted_mode_plant(seed, n, m, pair, observe, planted):
    """Random plant A = S D S^-1 whose leading block of D is an unstable
    real mode or (``pair``) an unstable complex pair; the remaining block is
    Hurwitz.  With ``planted`` that mode is made uncontrollable through
    B2 = S R (or, with ``observe``, unobservable through C2 = R' S^-1) by
    zeroing the matching rows of R; otherwise R reaches it with a weight of
    at least 0.5.  The other channel is the identity.  B1, C1, D12 and D21
    satisfy A2 and A4 exactly.
    """
    rng = np.random.default_rng(seed)
    k = 2 if pair else 1
    alpha, beta = rng.uniform(0.1, 2.0), rng.uniform(0.5, 2.0)
    lead = np.array([[alpha, beta], [-beta, alpha]]) if pair else np.array([[alpha]])
    d = sla.block_diag(lead, random_stable_matrix(rng, n - k))
    q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    s = q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ q2      # cond(S) <= 4
    a = s @ d @ np.linalg.inv(s)
    reach = rng.standard_normal((n, m))
    reach[0, 0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    if planted:
        reach[:k] = 0.0
    b2, c2 = ((np.eye(n), reach.T @ np.linalg.inv(s)) if observe
              else (s @ reach, np.eye(n)))
    nu, ny = b2.shape[1], c2.shape[0]
    return GeneralizedPlant(
        a=a, b1=np.hstack([rng.standard_normal((n, n)), np.zeros((n, ny))]),
        b2=b2, c1=np.vstack([rng.standard_normal((n, n)), np.zeros((nu, n))]),
        c2=c2, d12=np.vstack([np.zeros((n, nu)), np.eye(nu)]),
        d21=np.hstack([np.zeros((ny, n)), np.eye(ny)]))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(3, 6),
       m=st.integers(1, 3), pair=st.booleans(), observe=st.booleans())
def test_property_pbh_checks_flag_a_planted_mode_together(seed, n, m, pair,
                                                          observe):
    # the public PBH tests, the synthesis hypothesis check and assumption A1
    # all go through the one rank test on the same modes: they flag the
    # planted mode together, and none flags the draw without it.  The
    # synthesis, which decides the hypotheses after it has run, from its
    # loop or by the rule, raises for the same draws with the rule's message
    for planted in (False, True):
        g = _planted_mode_plant(seed, n, m, pair, observe, planted)
        pbh_ok = stabilizable(g.a, g.b2) and detectable(g.a, g.c2)
        identity = ProjectionPair(np.eye(g.n_u), np.eye(g.n_y))
        try:
            _check_hypotheses(g, identity, DEFAULT_TOLERANCES)
            hyp_ok = True
        except HypothesisFailure as e:
            assert ("not detectable" if observe else "not stabilizable") in str(e)
            hyp_ok = False
        assert (pbh_ok, hyp_ok, validate_assumptions(g).a1) == (not planted,) * 3
        try:
            synthesize_hierarchical(g, identity)
            outcome = None
        except HypothesisFailure as e:
            outcome = str(e)
        assert outcome == _projected_pbh_failure(g, identity,
                                                 DEFAULT_TOLERANCES)


# ---------------------------------------------------------------------------
# Riccati
# ---------------------------------------------------------------------------

def test_failed_doubling_is_a_numerical_error(monkeypatch):
    # a doubling run that has not converged at its step cap is the solver's
    # own NumericalError; X is then read off the dense stable eigenspace of
    # H, and only when that fails too does the error reach the caller, which
    # treats it like any other numerical failure
    a, b, c, r = random_are_instance(np.random.default_rng(5), 5)
    hs = build_hamiltonian(a, b, c, r)
    x = linalg.riccati_from_hamiltonian(hs).x
    monkeypatch.setattr(linalg, "_DOUBLING_MAX_STEPS", 1)
    with pytest.raises(NumericalError, match="doubling did not converge"):
        linalg._doubling(hs.a, hs.m, hs.ctc)
    sol = linalg.riccati_from_hamiltonian(hs)
    assert sol.doubling_steps == 0
    assert np.linalg.norm(sol.x - x) <= 1e-12 * np.linalg.norm(x)
    with pytest.raises(NumericalError, match="invariant subspace residual"):
        linalg.riccati_from_hamiltonian(
            build_hamiltonian(a, b, c, r),
            DEFAULT_TOLERANCES.with_(subspace_residual=0.0))


def test_doubling_reshifts_off_an_eigenvalue_of_a(monkeypatch):
    # A = diag(2, 0), M = I, Q = 2I: the shift rule gives
    # gamma = sqrt((4 + 4) / 2) = 2, an eigenvalue of A, so the shift moves
    # once, to 2 max(gamma, ||A||_F) = 4; the two scalar equations give
    # X = diag(2 + sqrt(6), sqrt(2))
    shifts = []
    factor = linalg._shifted_factor

    def recording(a, gamma):
        shifts.append(gamma)
        return factor(a, gamma)

    monkeypatch.setattr(linalg, "_shifted_factor", recording)
    sol = linalg.riccati_from_hamiltonian(build_hamiltonian(
        np.diag([2.0, 0.0]), np.eye(2), np.sqrt(2.0) * np.eye(2), np.eye(2)))
    assert shifts == [2.0, 4.0]
    assert sol.x == pytest.approx(np.diag([2.0 + np.sqrt(6.0), np.sqrt(2.0)]))
    # a shift at an eigenvalue of H only makes the Cayley image singular:
    # A = 0, M = Q = 1 has H's eigenvalues at +-1 and gamma = 1, and the
    # first step lands on X = 1
    shifts.clear()
    sol = linalg.riccati_from_hamiltonian(
        build_hamiltonian([[0.0]], [[1.0]], [[1.0]], [[1.0]]))
    assert shifts == [1.0] and sol.doubling_steps == 1
    assert sol.x == pytest.approx(np.array([[1.0]]))


@pytest.mark.parametrize("imag_axis,path", [(0.4, "certificate"),
                                            (0.6, "rule"), (1.5, None)])
def test_axis_certificate_passes_only_what_the_rule_passes(imag_axis, path):
    # A = 0, M = Q = 1: X = 1 and A - M X = -1.  The rule passes |Re| = 1
    # above imag_axis; the certificate needs S = -(X A_c + A_c' X) = 2 above
    # c = 4 imag_axis, so it passes at 0.4 and declines at 0.6, where the
    # rule passes, and at 1.5, where the rule raises
    hs = build_hamiltonian([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    tol = DEFAULT_TOLERANCES.with_(imag_axis=imag_axis)
    if path is None:
        with pytest.raises(HamiltonianImaginaryAxis, match="imaginary axis"):
            linalg.riccati_from_hamiltonian(hs, tol)
    else:
        assert linalg.riccati_from_hamiltonian(hs, tol).axis_path == path


def test_axis_rule_decides_when_the_certificate_declines(monkeypatch):
    # the decoupled zero mode of test_imaginary_axis_eigenvalue_raises_on_
    # every_path: Q is singular there and the doubling converges to an X
    # with the eigenvalue 0, so the Lyapunov certificate declines and the
    # eigenvalues of A - M X find the mode on jR; the dense eigenspace of H
    # (np.linalg.eig, not eigvals) then confirms it and raises
    n = 6
    hs = build_hamiltonian(np.diag(-np.arange(n, dtype=float)),
                           np.eye(n)[:, 1:], np.eye(n)[1:], np.eye(n - 1))
    shapes = []
    eigvals = np.linalg.eigvals

    def spy(a):
        shapes.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    with pytest.raises(HamiltonianImaginaryAxis, match="imaginary axis"):
        linalg.riccati_from_hamiltonian(hs)
    assert shapes == [(n, n)]


def test_an_unstable_mode_hidden_from_q_is_solved():
    # the doubling reaches the stabilizing X when (Q, A) is detectable; with
    # the unstable mode of A = diag(1, -1) hidden from Q = diag(0, 1) it
    # stops at X = diag(0, sqrt(2) - 1), which leaves the mode in A - M X.
    # The rule refuses that X and the dense stable eigenspace of H gives
    # X = diag(2, sqrt(2) - 1), which the ordered Schur form gives
    hs = build_hamiltonian(np.diag([1.0, -1.0]), np.eye(2),
                           np.diag([0.0, 1.0]), np.eye(2))
    x, _ = linalg._doubling(hs.a, hs.m, hs.ctc)
    assert x == pytest.approx(np.diag([0.0, np.sqrt(2.0) - 1.0]))
    sol = linalg.riccati_from_hamiltonian(hs)
    assert sol.doubling_steps == 0
    assert sol.x == pytest.approx(np.diag([2.0, np.sqrt(2.0) - 1.0]))
    # the same kind of plant in a rotated basis, A = U diag(1, 0.5, -1, -2) U'
    # with C1 blind to the two unstable modes: the doubling breaks down
    u, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))
    hs = build_hamiltonian(u @ np.diag([1.0, 0.5, -1.0, -2.0]) @ u.T,
                           np.eye(4), np.diag([0.0, 0.0, 1.0, 1.0]) @ u.T,
                           np.eye(4))
    with pytest.raises(NumericalError, match="doubling broke down"):
        linalg._doubling(hs.a, hs.m, hs.ctc)
    sol = linalg.riccati_from_hamiltonian(hs)
    x_ref = riccati_ordered_schur(hs)
    assert sol.doubling_steps == 0
    assert np.linalg.norm(sol.x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_an_undamped_oscillator_is_solved(monkeypatch):
    # A = [[0, 1], [-1, 0]], M = Q = I: H has the eigenvalues +-1 +-i and
    # X = I.  The trace rule cancels to 0 here, tr(A^2) + tr(M Q) = -2 + 2,
    # and the floor lifts gamma to ||H||_F / (4 sqrt(2n)) = sqrt(2) / 4
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    hs = build_hamiltonian(a, np.eye(2), np.eye(2), np.eye(2))
    assert linalg._cayley_shift(hs.a, hs.m, hs.ctc) == \
        pytest.approx(np.sqrt(2.0) / 4.0)
    sol = linalg.riccati_from_hamiltonian(hs)
    assert sol.doubling_steps > 0
    assert sol.x == pytest.approx(np.eye(2))
    # without the floor gamma = 0: the first step leaves P = 0 unmoved and
    # the doubling stops at X = 0, whose A - M X = A has the eigenvalues
    # +-i; the rule refuses it and the dense eigenspace gives X = I
    monkeypatch.setattr(linalg, "_SHIFT_FLOOR", 0.0)
    assert linalg._cayley_shift(hs.a, hs.m, hs.ctc) == 0.0
    assert linalg._doubling(hs.a, hs.m, hs.ctc)[0] == pytest.approx(
        np.zeros((2, 2)))
    sol = linalg.riccati_from_hamiltonian(hs)
    assert sol.doubling_steps == 0 and sol.axis_path == "certificate"
    assert sol.x == pytest.approx(np.eye(2))


def _oracle_equations(g, pair):
    from hierh2.synthesis import control_hamiltonian, filter_hamiltonian
    return control_hamiltonian(g, pair), filter_hamiltonian(g, pair)


def _assert_matches_ordered_schur(hs):
    sol = linalg.riccati_from_hamiltonian(hs)
    x_ref = riccati_ordered_schur(hs)
    assert np.linalg.norm(sol.x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert sol.axis_path == "certificate" and sol.newton_steps == 0


@pytest.mark.parametrize("n", [24, 100, 400])
def test_doubling_matches_the_ordered_schur_oracle(n):
    # both equations, on the planted and on the identity pair of the
    # consensus plant; on every one the Lyapunov certificate decides
    from hierh2 import ExperimentConfig, WeightVectors, build_projection
    cfg = ExperimentConfig(seed=7)
    g = cfg.plant(n)
    planted = build_projection(cfg.planted_partition(g, n),
                               WeightVectors.ones(g.n_u, g.n_y))
    for pair in (planted, ProjectionPair.identity(g.n_u, g.n_y)):
        for hs in _oracle_equations(g, pair):
            _assert_matches_ordered_schur(hs)


@pytest.mark.parametrize("fixture", ["non_self_dual100", "directed200"])
def test_doubling_matches_the_ordered_schur_oracle_off_the_consensus_plant(
        fixture, request):
    # P_u != P_y and X != Y (non_self_dual100); a non-symmetric A with 128
    # complex modes (directed200); the certificate decides on each
    g, *_, pair = request.getfixturevalue(fixture)
    for p in (pair, ProjectionPair.identity(g.n_u, g.n_y)):
        for hs in _oracle_equations(g, p):
            _assert_matches_ordered_schur(hs)


def test_are_scalar_examples():
    sol = solve_are([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    assert sol.x == pytest.approx(np.array([[1.0]]))
    assert spectral_abscissa(sol.hs.a - sol.hs.m @ sol.x) == pytest.approx(-1.0)

    sol = solve_are([[1.0]], [[1.0]], [[np.sqrt(3.0)]], [[1.0]])
    assert sol.x == pytest.approx(np.array([[3.0]]))
    # the solution holds its equation: A - M X = 1 - 3
    assert (sol.hs.a - sol.hs.m @ sol.x) == pytest.approx(np.array([[-2.0]]))


def test_solve_are_decides_the_closed_loop():
    # the raw-matrix entry decides A - M X = -1 itself, against the same
    # -hurwitz_margin as every other stability decision; the Riccati solver
    # under it returns X without deciding
    args = ([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    solve_are(*args, tol=DEFAULT_TOLERANCES.with_(hurwitz_margin=0.5))
    with pytest.raises(NotHurwitz, match="Riccati closed loop not Hurwitz"):
        solve_are(*args, tol=DEFAULT_TOLERANCES.with_(hurwitz_margin=2.0))
    hs = build_hamiltonian(*args)
    sol = linalg.riccati_from_hamiltonian(
        hs, DEFAULT_TOLERANCES.with_(hurwitz_margin=2.0))
    assert sol.hs is hs and sol.x == pytest.approx(np.array([[1.0]]))


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


@pytest.mark.parametrize("lam,vec,is_pair,message", [
    # Im v parallel to Re v: the pair spans one real direction
    (-1 + 2j, (1 + 1j) * np.array([1.0, 2.0, 0.5, -1.0]), True,
     "degenerate conjugate-pair realification"),
    (-1 + 0j, np.zeros(4, complex), False, "zero eigenvector column"),
])
def test_realify_rejects_degenerate_eigenvectors(lam, vec, is_pair, message):
    with pytest.raises(NumericalError, match=message):
        linalg._realify_sorted([(lam, vec, is_pair)], 2)


def test_stable_eigenspace_rejects_a_perturbed_block(monkeypatch):
    # eigenvectors off by 1e-6 leave ||H Z - Z lam||_F far above
    # subspace_residual max(1, ||H Z||_F); the unperturbed block passes
    rng = np.random.default_rng(29)
    a, b, c, r = random_are_instance(rng, 6)
    m = b @ np.linalg.solve(r, b.T)
    h = np.block([[a, -m], [-c.T @ c, -a.T]])
    stable_eigenspace(h)
    eig = np.linalg.eig

    def perturbed(mat):
        vals, vecs = eig(mat)
        noise = np.random.default_rng(1).standard_normal(vecs.shape)
        return vals, vecs + 1e-6 * noise

    monkeypatch.setattr(np.linalg, "eig", perturbed)
    with pytest.raises(NumericalError, match="invariant subspace residual"):
        stable_eigenspace(h)


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
