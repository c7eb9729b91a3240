import numpy as np
import pytest
import scipy.linalg as sla

from hierh2 import (DEFAULT_TOLERANCES, StateSpace, approx_are,
                    build_hamiltonian, cauchy_coefficients, error_bound,
                    exact_error_norm, h2_norm, solve_are, solve_lyapunov,
                    spectral_abscissa, stability_test, stable_eigenspace)
from hierh2.linalg import riccati_from_hamiltonian, solve_sylvester, symmetrize
from hierh2.errors import (ArnoldiNoConvergence, HamiltonianImaginaryAxis,
                           IllConditionedR, SingularPencil, SingularR,
                           SingularZ1)

from conftest import identity_pair, random_are_instance
from oracles import smw_shift_invert_per_column


def hamiltonian_instance(rng, n, unstable=False):
    a, b, c, r = random_are_instance(rng, n, unstable=unstable)
    hs = build_hamiltonian(a, b, c, r)
    return hs, (a, b, c, r)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_scalar_hamiltonian():
    hs = build_hamiltonian([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    assert np.allclose(hs.h, [[0.0, -1.0], [-1.0, 0.0]])


def test_hamiltonian_symmetry_structure():
    rng = np.random.default_rng(2)
    hs, _ = hamiltonian_instance(rng, 5)
    n = hs.n
    j = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    jh = j @ hs.h
    assert np.linalg.norm(jh - jh.T, "fro") <= 1e-12 * np.linalg.norm(jh, "fro")


def test_hamiltonian_eigenvalues_mirror():
    rng = np.random.default_rng(3)
    hs, _ = hamiltonian_instance(rng, 5)
    vals = np.linalg.eigvals(hs.h)
    mirrored = -vals.conj()
    for v in vals:
        assert np.min(np.abs(mirrored - v)) <= 1e-7 * max(1, abs(v))


def test_build_rejects_singular_r():
    with pytest.raises(SingularR):
        build_hamiltonian(np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))


def test_build_rejects_ill_conditioned_r():
    # R is positive definite, so its Cholesky factor exists, but
    # cond(R) = 1e13 exceeds cond_max = 1e12
    r = np.diag([1.0, 1e-13])
    with pytest.raises(IllConditionedR):
        build_hamiltonian(np.eye(2), np.eye(2), np.eye(2), r)
    build_hamiltonian(np.eye(2), np.eye(2), np.eye(2), r,
                      DEFAULT_TOLERANCES.with_(cond_max=1e14))


@pytest.mark.parametrize("r_min,rejected", [(1e-13, True), (1e-11, False)])
def test_build_decides_cond_r_from_its_eigenvalues(monkeypatch, r_min,
                                                    rejected):
    # R1 = diag(1, r_min) has cond 1/r_min on either side of cond_max = 1e12;
    # the decision reads the eigenvalues of the factored R1, with no SVD
    def no_svd(*args, **kw):
        raise AssertionError("cond(R1) needs no SVD")

    monkeypatch.setattr(np.linalg, "cond", no_svd)
    args = (np.eye(2), np.eye(2), np.eye(2), np.diag([1.0, r_min]))
    if rejected:
        with pytest.raises(IllConditionedR, match=r"cond\(R1\)"):
            build_hamiltonian(*args)
    else:
        build_hamiltonian(*args)


def _cond_max_around(cond):
    """Tolerances with cond_max just below and just above `cond`."""
    return (DEFAULT_TOLERANCES.with_(cond_max=cond * (1.0 - 1e-6)),
            DEFAULT_TOLERANCES.with_(cond_max=cond * (1.0 + 1e-6)))


def test_riccati_rejects_z1_above_cond_max():
    hs, _ = hamiltonian_instance(np.random.default_rng(11), 6)
    m, q = symmetrize(hs.m), symmetrize(hs.ctc)
    h = np.block([[hs.a, -m], [-q, -hs.a.T]])
    # cond(Z1) is the same for every orthonormal basis of the subspace
    z = sla.schur(h, output="real", sort="lhp")[1]
    below, above = _cond_max_around(np.linalg.cond(z[:6, :6]))
    with pytest.raises(SingularZ1, match=r"cond\(Z1\)"):
        riccati_from_hamiltonian(hs, below)
    riccati_from_hamiltonian(hs, above)


def test_cauchy_coefficients_reject_z1_above_cond_max():
    hs, (_, b, _, _) = hamiltonian_instance(np.random.default_rng(12), 6)
    full = hs.full_subspace()
    below, above = _cond_max_around(np.linalg.cond(full.z1))
    with pytest.raises(SingularZ1, match=r"cond\(Z1\)"):
        cauchy_coefficients(full, b, below)
    cauchy_coefficients(full, b, above)


def test_approx_are_rejects_a_pencil_above_cond_max():
    hs, _ = hamiltonian_instance(np.random.default_rng(13), 6)
    below, above = _cond_max_around(
        np.linalg.cond(approx_are(hs, kappa=3).gram))
    with pytest.raises(SingularPencil, match="Z2k' Z1k"):
        approx_are(hs, kappa=3, tol=below)
    approx_are(hs, kappa=3, tol=above)


def test_cached_full_subspace_runs_the_acceptance_rule_of_each_tol():
    # one equation serves many calls (every row of a dense kappa sweep), so
    # a subspace accepted under a loose tol must not be handed to a call
    # under a stricter one without that tol's acceptance rule
    from hierh2 import ExperimentConfig, WeightVectors, build_projection
    from hierh2.errors import NumericalError
    from hierh2.synthesis import control_hamiltonian
    cfg = ExperimentConfig(seed=7)
    g = cfg.plant(24)
    pair = build_projection(cfg.planted_partition(g, 24),
                            WeightVectors.ones(g.n_u, g.n_y))
    strict = DEFAULT_TOLERANCES.with_(subspace_residual=1e-30)
    hs = control_hamiltonian(g, pair)
    first = approx_are(hs, 4)
    with pytest.raises(NumericalError, match="invariant subspace residual"):
        approx_are(hs, 4, tol=strict)
    # the tol that was accepted keeps its one decomposition
    assert hs.full_subspace() is first.subspace_full


def test_gain_solves_with_the_factor_of_r():
    rng = np.random.default_rng(4)
    hs, (a, b, c, r) = hamiltonian_instance(rng, 5)
    x = solve_are(a, b, c, r).x
    assert np.allclose(hs.gain(x), -np.linalg.solve(r, b.T @ x),
                       rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Truncated solutions
# ---------------------------------------------------------------------------

def test_full_kappa_recovers_exact():
    rng = np.random.default_rng(5)
    hs, (a, b, c, r) = hamiltonian_instance(rng, 6)
    x = solve_are(a, b, c, r).x
    b1 = rng.standard_normal((6, 2))
    sol = approx_are(hs, kappa=6)
    assert np.linalg.norm(sol.xbar - x, "fro") <= 1e-8 * max(1, np.linalg.norm(x))
    assert error_bound(sol, b1)[0] == pytest.approx(0.0, abs=1e-12)
    assert sol.e_kappa_norm == pytest.approx(0.0, abs=1e-10)
    assert sol.stabilizing


def test_scalar_truncation():
    hs = build_hamiltonian([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    sol = approx_are(hs, kappa=1)
    assert sol.xbar == pytest.approx(np.array([[1.0]]))


def test_truncation_error_decreases_with_kappa(consensus100, consensus100_partition):
    g, _ = consensus100
    from hierh2 import build_projection, WeightVectors
    pair = build_projection(consensus100_partition, WeightVectors.ones(g.n_u, g.n_y))
    r1 = pair.p_u @ g.d12.T @ g.d12 @ pair.p_u.T
    hs = build_hamiltonian(g.a, g.b2 @ pair.p_u.T, g.c1, r1)
    x = solve_are(g.a, g.b2 @ pair.p_u.T, g.c1, r1).x
    errs = []
    for kappa in range(1, 7):
        sol = approx_are(hs, kappa=kappa)
        errs.append(np.linalg.norm(x - sol.xbar, "fro"))
    assert all(errs[i + 1] <= errs[i] * (1 + 1e-9) for i in range(5))
    # coherency gap: the four regulated coherent modes are captured by
    # kappa = 4, after which the per-step improvement collapses
    step_into_4 = errs[2] - errs[3]
    step_after_4 = errs[3] - errs[4]
    assert step_into_4 > 10.0 * max(step_after_4, 1e-12)


def test_truncation_psd_ordering_and_residue():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        hs, (a, b, c, r) = hamiltonian_instance(rng, n)
        x = solve_are(a, b, c, r).x
        m = hs.m
        prev = None
        for kappa in range(1, n + 1):
            sol = approx_are(hs, kappa=kappa)
            if sol.kappa >= n:
                continue
            # truncation never overshoots: Xbar <= X
            gap = np.linalg.eigvalsh(x - sol.xbar).min()
            assert gap >= -1e-8
            # residue identity R(Xbar) = C1bar' C1bar
            resid = (a.T @ sol.xbar + sol.xbar @ a + c.T @ c
                     - sol.xbar @ m @ sol.xbar)
            cbar = sol.residue_factor
            assert np.linalg.norm(resid - cbar.T @ cbar, "fro") <= \
                1e-7 * max(1, np.linalg.norm(c.T @ c, "fro"))
            if prev is not None and prev[0] < sol.kappa:
                # observed chain ordering between successive kappas
                chain = np.linalg.eigvalsh(sol.xbar - prev[1]).min()
                assert chain >= -1e-7
            prev = (sol.kappa, sol.xbar)


# ---------------------------------------------------------------------------
# Error bound
# ---------------------------------------------------------------------------

def test_cauchy_scalar_example():
    hs = build_hamiltonian([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    full = hs.full_subspace()
    # normalize Z1 to 1: coefficients for B1 = 1 give C = [0.5]
    sol = approx_are(hs, kappa=1)
    c = cauchy_coefficients(full, np.array([[1.0]]))
    z1 = float(full.z1[0, 0])
    assert c[0, 0] * z1 ** 2 == pytest.approx(0.5)
    assert error_bound(sol, np.array([[1.0]]))[0] == pytest.approx(0.0, abs=1e-14)


def test_gramian_identity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        hs, (a, b, c, r) = hamiltonian_instance(rng, n)
        b1 = rng.standard_normal((n, rng.integers(1, n + 1)))
        full = hs.full_subspace()
        x = full.z2 @ np.linalg.inv(full.z1)
        coeffs = cauchy_coefficients(full, b1)
        lhs = full.z1 @ coeffs @ full.z1.T
        rhs = solve_lyapunov(a - hs.m @ x, b1)
        assert np.linalg.norm(lhs - rhs, "fro") <= 1e-8 * max(1, np.linalg.norm(rhs, "fro"))


def test_bound_holds_all_kappa():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        hs, (a, b, c, r) = hamiltonian_instance(rng, n)
        b1 = rng.standard_normal((n, rng.integers(1, n + 1)))
        x = solve_are(a, b, c, r).x
        for kappa in range(1, n + 1):
            sol = approx_are(hs, kappa=kappa)
            eps, bound = error_bound(sol, b1)
            err = exact_error_norm(x, sol.xbar, a, hs.m, b1)
            assert err <= bound + 1e-8


def test_epsilon_nonincreasing_in_kappa():
    rng = np.random.default_rng(17)
    hs, (a, b, c, r) = hamiltonian_instance(rng, 7)
    b1 = rng.standard_normal((7, 3))
    full = hs.full_subspace()
    coeffs = cauchy_coefficients(full, b1)
    assert np.diag(coeffs).min() >= -1e-10
    eps_prev = np.inf
    for kappa in range(1, 8):
        sol = approx_are(hs, kappa=kappa)
        eps = error_bound(sol, b1)[0]
        assert eps <= eps_prev + 1e-12
        eps_prev = eps


def test_cauchy_coefficients_use_the_sylvester_kernel(monkeypatch):
    # the eigenbasis Gramian is one call of the package's Sylvester kernel
    # on the Schur factors of Lambda, not a separate blockwise solver
    import hierh2.hamiltonian as ham
    calls = []

    def spy(f1, f2, q, tol=DEFAULT_TOLERANCES):
        calls.append((f1, f2))
        return solve_sylvester(f1, f2, q, tol)

    monkeypatch.setattr(ham, "solve_sylvester", spy)
    rng = np.random.default_rng(17)
    hs, _ = hamiltonian_instance(rng, 7)
    full = hs.full_subspace()
    assert 2 in full.block_sizes
    coeffs = ham.cauchy_coefficients(full, rng.standard_normal((7, 3)))
    assert len(calls) == 1
    f1, f2 = calls[0]
    assert f1 is f2 and np.array_equal(f1.a, full.lam)
    assert np.array_equal(coeffs, coeffs.T)


def test_exact_error_norm_cross_checks():
    rng = np.random.default_rng(19)
    hs, (a, b, c, r) = hamiltonian_instance(rng, 5)
    b1 = rng.standard_normal((5, 2))
    x = solve_are(a, b, c, r).x
    assert exact_error_norm(x, x, a, hs.m, b1) == pytest.approx(0.0, abs=1e-12)
    sol = approx_are(hs, kappa=2)
    err = exact_error_norm(x, sol.xbar, a, hs.m, b1)
    weighted = StateSpace(a - hs.m @ x, b1, x - sol.xbar, np.zeros((5, b1.shape[1])))
    assert err == pytest.approx(h2_norm(weighted), abs=1e-8 * max(1.0, err))


# ---------------------------------------------------------------------------
# Stability test
# ---------------------------------------------------------------------------

def test_stability_test_full_kappa_and_consistency():
    rng = np.random.default_rng(23)
    hs, (a, b, c, r) = hamiltonian_instance(rng, 5)
    sol = approx_are(hs, kappa=5)
    assert np.linalg.norm(sol.residue_factor, "fro") <= 1e-7
    assert stability_test(sol)


def test_stability_test_uncovered_marginal_mode():
    # A = diag(0, -2) with a strong penalty on the marginal mode: the slow
    # retained direction is the stable one, the kappa = 1 truncation leaves
    # the integrator unregulated, and the imaginary-axis PBH clause fires
    a = np.diag([0.0, -2.0])
    c1 = np.diag([5.0, 0.1])
    hs = build_hamiltonian(a, np.eye(2), c1, np.eye(2))
    sol = approx_are(hs, kappa=1)
    assert not sol.stabilizing
    acl = a - hs.m @ sol.xbar
    assert spectral_abscissa(acl) >= -1e-10


@pytest.mark.parametrize("n_s,p_in,seed", [(60, 0.6, 11), (200, 0.9, 13)])
def test_krylov_matches_dense(n_s, p_in, seed):
    from hierh2 import NetworkSpec, generate_consensus_network
    spec = NetworkSpec.even_blocks(n_s=n_s, n_blocks=4, p_in=p_in, p_out=0.02,
                                   a_lo=2.0, a_hi=3.0, seed=seed)
    g = generate_consensus_network(spec)
    from hierh2 import ClusterPartition, WeightVectors, build_projection
    part = ClusterPartition.from_subsystems(spec.planted_partition, g)
    pair = build_projection(part, WeightVectors.ones(g.n_u, g.n_y))
    r1 = pair.p_u @ g.d12.T @ g.d12 @ pair.p_u.T
    hs = build_hamiltonian(g.a, g.b2 @ pair.p_u.T, g.c1, r1)
    for kappa in (1, 3, 4, 6):
        dense = approx_are(hs, kappa=kappa, method="dense")
        kry = approx_are(hs, kappa=kappa, method="krylov")
        assert kry.e_kappa_norm is None
        with pytest.raises(ValueError):
            error_bound(kry, g.b1)
        assert np.linalg.norm(dense.xbar - kry.xbar, "fro") <= \
            1e-6 * max(1.0, np.linalg.norm(dense.xbar, "fro"))


@pytest.mark.filterwarnings("ignore::hierh2.errors.ConjugatePairSplitWarning")
def test_krylov_matches_dense_on_non_symmetric_plants(monkeypatch):
    # random stable non-symmetric A, n 6..29: the Hamiltonians have complex
    # pairs, and seeds 1 (n = 17) and 2 (n = 26) at kappa = 8 end the Ritz
    # set with one lone member of a pair
    import hierh2.linalg as la
    ritz_sets = []
    group = la._group_conjugates

    def spy(vals, vecs):
        ritz_sets.append(vals.copy())
        return group(vals, vecs)

    monkeypatch.setattr(la, "_group_conjugates", spy)
    kept_pairs = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 30))
        a, b, c, r = random_are_instance(rng, n)
        hs = build_hamiltonian(a, b, c, r)
        for kappa in (2, 4, 8):
            dense = approx_are(hs, kappa=kappa, method="dense")
            kry = approx_are(hs, kappa=kappa, method="krylov")
            assert kry.kappa == dense.kappa
            assert np.allclose(kry.lambda_kappa, dense.lambda_kappa,
                               rtol=1e-8, atol=0.0)
            assert np.linalg.norm(dense.xbar - kry.xbar, "fro") <= \
                1e-6 * max(1.0, np.linalg.norm(dense.xbar, "fro"))
            kept_pairs += int(np.count_nonzero(kry.lambda_kappa.imag > 0))
    lone = [v for vals in ritz_sets for v in vals
            if v.imag != 0 and v.conjugate() not in set(vals.tolist())]
    assert kept_pairs > 0
    assert len(lone) >= 2


def _consensus_hamiltonian():
    from hierh2 import ExperimentConfig
    g = ExperimentConfig(seed=7).plant(60)
    return build_hamiltonian(g.a, g.b2, g.c1, g.d12.T @ g.d12)


def test_krylov_reports_arpack_failure(monkeypatch):
    import scipy.sparse.linalg as spla

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.zeros(0),
                                       np.zeros((0, 0)))

    monkeypatch.setattr(spla, "eigs", no_convergence)
    with pytest.raises(ArnoldiNoConvergence, match="ARPACK") as info:
        approx_are(_consensus_hamiltonian(), kappa=4, method="krylov")
    assert isinstance(info.value.__cause__, spla.ArpackNoConvergence)


def test_krylov_reports_a_singular_shift():
    # the shift -0.02 max(1, sum|A_ij| / n) is -0.02 here, an eigenvalue
    # of A, so the sparse LU of A - sigma I is singular; the dense path
    # is unaffected
    a = np.diag([-0.02, -0.5, -1.0, -1.5])
    hs = build_hamiltonian(a, np.eye(4), np.eye(4), np.eye(4))
    approx_are(hs, kappa=1)
    with pytest.raises(ArnoldiNoConvergence, match="singular"):
        approx_are(hs, kappa=1, method="krylov")


@pytest.mark.parametrize("corrupt,cause", [("vectors", "block residual"),
                                           ("unstable only", "stable columns")])
def test_krylov_rejects_a_bad_ritz_set(monkeypatch, corrupt, cause):
    import scipy.sparse.linalg as spla
    eigs = spla.eigs

    def bad_ritz(*args, **kwargs):
        vals, vecs = eigs(*args, **kwargs)
        if corrupt == "vectors":
            noise = np.random.default_rng(1).standard_normal(vecs.shape)
            return vals, vecs + 1e-3 * noise
        keep = vals.real > 0
        return vals[keep], vecs[:, keep]

    monkeypatch.setattr(spla, "eigs", bad_ritz)
    with pytest.raises(ArnoldiNoConvergence, match=cause):
        approx_are(_consensus_hamiltonian(), kappa=4, method="krylov")


def test_krylov_block_residual_gate_fires_on_a_clean_run():
    # the run converges (the default gate passes it), but no residual is
    # below 1e-20 max(1, ||H Z||_F)
    hs = _consensus_hamiltonian()
    approx_are(hs, kappa=4, method="krylov")
    with pytest.raises(ArnoldiNoConvergence, match="block residual"):
        approx_are(hs, kappa=4, method="krylov",
                   tol=DEFAULT_TOLERANCES.with_(subspace_residual=1e-20))


@pytest.mark.parametrize("path", ["dense", "krylov", "riccati"])
def test_imaginary_axis_eigenvalue_raises_on_every_path(path):
    # A has a zero mode that B does not actuate and C1 does not observe, so
    # H has the eigenvalue 0 twice; every path raises the one axis error,
    # from the axis check itself (on the Riccati path, the check on the
    # eigenvalues of A - M X)
    n = 6
    a = np.diag(-np.arange(n, dtype=float))
    hs = build_hamiltonian(a, np.eye(n)[:, 1:], np.eye(n)[1:], np.eye(n - 1))
    run = {"dense": lambda: stable_eigenspace(hs.h),
           "krylov": lambda: approx_are(hs, kappa=1, method="krylov"),
           "riccati": lambda: riccati_from_hamiltonian(hs)}
    with pytest.raises(HamiltonianImaginaryAxis, match="imaginary axis"):
        run[path]()


def test_block_woodbury_matches_the_per_column_oracle(consensus100,
                                                     monkeypatch):
    # the identity pair gives r = n_u = 100 Woodbury columns; the block
    # set-up solves them in one call per LU factor, the oracle one by one
    import hierh2.hamiltonian
    g, _ = consensus100
    pair = identity_pair(g)
    hs = build_hamiltonian(g.a, g.b2 @ pair.p_u.T, g.c1,
                           pair.p_u @ g.d12.T @ g.d12 @ pair.p_u.T)
    assert hs.n_gain.shape[1] == 100
    block = approx_are(hs, kappa=4, method="krylov")
    monkeypatch.setattr(hierh2.hamiltonian, "_smw_shift_invert",
                        smw_shift_invert_per_column)
    per_column = approx_are(hs, kappa=4, method="krylov")
    assert np.linalg.norm(block.xbar - per_column.xbar) <= \
        1e-12 * np.linalg.norm(per_column.xbar)


def test_krylov_is_reproducible():
    hs = _consensus_hamiltonian()
    first = approx_are(hs, kappa=4, method="krylov")
    second = approx_are(hs, kappa=4, method="krylov")
    assert np.array_equal(first.xbar, second.xbar)


def test_stability_test_floor_is_relative():
    # consensus plant, n = 100, seed 7: kappa = 1 is certified on both
    # Riccati sides, while at kappa = 4 the sufficient test genuinely fails
    # (lambda_min(C1'C1 - C1bar'C1bar) is about -1.4e-2, or -1.4e-4
    # ||C1'C1||) although the closed loop is stable
    from hierh2 import (ExperimentConfig, WeightVectors, build_projection,
                        synthesize_hierarchical)
    cfg = ExperimentConfig(seed=7)
    g = cfg.plant()
    p = build_projection(cfg.planted_partition(g),
                         WeightVectors.ones(g.n_u, g.n_y))
    for kappa, certified in ((1, True), (4, False)):
        res = synthesize_hierarchical(g, p, are_backend="approx", kappa=kappa,
                                      method="krylov")
        assert res.closed_loop_abscissa < 0.0
        assert (res.x_solution.stabilizing
                and res.y_solution.stabilizing) is certified
    # with C1 scaled by 100 (||C1'C1||_2 = 1e6, ||C1||_F^2 = 1e8) the
    # kappa = 1 roundoff residue is about -3e-5: inside the relative floor
    # 1e-8 * 1e6, but outside 1e-12 * 1e6, which the Frobenius bound
    # 1e-12 * 1e8 would still accept
    c1 = 100.0 * g.c1
    hs = build_hamiltonian(g.a, g.b2, c1, g.d12.T @ g.d12)
    sol = approx_are(hs, kappa=1, method="krylov")
    assert sol.stabilizing
    tight = DEFAULT_TOLERANCES.with_(stability_test_floor=1e-12)
    assert not stability_test(sol, tight)
