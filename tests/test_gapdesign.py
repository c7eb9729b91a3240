import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from hierh2 import (DEFAULT_TOLERANCES, ClusterPartition, ExperimentConfig,
                    GeneralizedPlant, NetworkSpec, ProjectionPair, StateSpace,
                    WeightVectors, build_projection, design_clusters,
                    doubly_projected_controller, evaluate_partition,
                    gap_report, gapdesign, generate_consensus_network,
                    hinf_norm, model_matching_value, monotone_gap_sweep,
                    reference_youla_data, solve_are,
                    spectral_factors, structured_youla_data,
                    synthesize_hierarchical, synthesize_unconstrained,
                    weighted_kmeans, youla_data)
from hierh2.errors import DegenerateData, NumericalError

from conftest import random_h2_plant, random_partition
from oracles import hat_gap_weights, hat_spectral_factors, lyapunov_kron
from test_synthesis import scalar_plant

FREQS = np.logspace(-2, 2, 20)


# ---------------------------------------------------------------------------
# Spectral factors
# ---------------------------------------------------------------------------

def test_scalar_plant_hat_riccati_hand_value():
    # with the optimal gains F = L = -1 the two-state hat AREs solve by hand:
    # Xhat = diag(1, 0), Fhat = [0, -1], Yhat = ones, Lhat = [-1; 0], and the
    # unconstrained optimizer Q* is identically zero; the n-state factors
    # give the same Fhat and Lhat
    g = scalar_plant()
    yd = youla_data(g, f=[[-1.0]], l=[[-1.0]])
    sf = spectral_factors(yd, g.d12, g.d21)
    hat = hat_spectral_factors(yd, g.d12, g.d21)
    assert np.allclose(hat.xhat, [[1.0, 0.0], [0.0, 0.0]], atol=1e-9)
    assert np.allclose(hat.yhat, [[1.0, 1.0], [1.0, 1.0]], atol=1e-9)
    for fhat, lhat in ((sf.fhat, sf.lhat), (hat.fhat, hat.lhat)):
        assert np.allclose(fhat, [[0.0, -1.0]], atol=1e-9)
        assert np.allclose(lhat, [[-1.0], [0.0]], atol=1e-9)
    for w in FREQS:
        assert np.linalg.norm(hat.q_star.eval(1j * w)) <= 1e-9


def test_factorizations_agree():
    from hierh2 import series
    rng = np.random.default_rng(3)
    g = random_h2_plant(rng, 4, 2, 3)
    yd = reference_youla_data(g)
    hat = hat_spectral_factors(yd, g.d12, g.d21)
    sf = spectral_factors(yd, g.d12, g.d21)
    left = series(hat.wbar_r, hat.w_l)    # W_L Wbar_R
    right = series(hat.w_r, hat.wbar_l)   # Wbar_L W_R
    for w in FREQS:
        lv, rv = left.eval(1j * w), right.eval(1j * w)
        assert np.linalg.norm(lv - rv) <= 1e-7 * max(1.0, np.linalg.norm(rv))
        # Q* realization agrees with the product form
        assert np.linalg.norm(hat.q_star.eval(1j * w) + lv) <= 1e-7 * max(1.0, np.linalg.norm(lv))
        # the n-state weights realize the 2n-state ones
        for mine, ref in ((sf.wbar_l, hat.wbar_l), (sf.wbar_r, hat.wbar_r)):
            rv = ref.eval(1j * w)
            assert np.linalg.norm(mine.eval(1j * w) - rv) <= \
                1e-9 * max(1.0, np.linalg.norm(rv))


def test_factor_embeddings_match_lyapunov_oracle():
    # E_u E_u' = F_hat LYAP(A_F, I) F_hat' and E_y E_y' = L_hat' LYAP(A_L', I) L_hat
    # on the 2n-state closed loops of the hat construction
    rng = np.random.default_rng(4)
    g = random_h2_plant(rng, 4, 2, 3)
    yd = reference_youla_data(g)
    sf = spectral_factors(yd, g.d12, g.d21)
    hat = hat_spectral_factors(yd, g.d12, g.d21)
    eye = np.eye(hat.w_l.a.shape[0])
    for embed, gain, a in ((sf.embed_u, sf.fhat, hat.w_l.a),
                           (sf.embed_y, sf.lhat.T, hat.w_r.a.T)):
        ref = gain @ lyapunov_kron(a, eye) @ gain.T
        assert np.linalg.norm(embed @ embed.T - ref) <= \
            1e-9 * np.linalg.norm(ref)


def test_model_matching_value_equals_unconstrained_optimum():
    rng = np.random.default_rng(5)
    for _ in range(3):
        g = random_h2_plant(rng, 4, 2, 2)
        yd = reference_youla_data(g)
        hat = hat_spectral_factors(yd, g.d12, g.d21)
        j1 = model_matching_value(yd, hat.q_star)
        unc = synthesize_unconstrained(g)
        assert j1 == pytest.approx(unc.h2_value, rel=1e-6)
    # the structured Youla data that evaluate_partition builds: the
    # model-matching value checks the two-Riccati J1* it reports
    spec = NetworkSpec.even_blocks(n_s=24, n_blocks=3, p_in=0.8, p_out=0.05,
                                   a_lo=2.0, a_hi=3.0, seed=5)
    g_net = generate_consensus_network(spec)
    g_rand = random_h2_plant(rng, 5, 4, 4)
    cases = [
        (g_net, ClusterPartition.from_subsystems(spec.planted_partition, g_net)),
        (g_rand, ClusterPartition(input_sets=random_partition(rng, 4, 2),
                                  output_sets=random_partition(rng, 4, 2))),
    ]
    for g, part in cases:
        pair = build_projection(part, WeightVectors.ones(g.n_u, g.n_y))
        yd, _ = structured_youla_data(g, pair)
        hat = hat_spectral_factors(yd, g.d12, g.d21)
        report = evaluate_partition(g, part)
        assert model_matching_value(yd, hat.q_star) == pytest.approx(
            report.j1_star, rel=1e-9)


# ---------------------------------------------------------------------------
# Gap report
# ---------------------------------------------------------------------------

def test_identity_projections_close_the_gap():
    rng = np.random.default_rng(7)
    g = random_h2_plant(rng, 5, 3, 3)
    part = ClusterPartition.singletons(3)
    report = evaluate_partition(g, part)
    assert report.xi_u == pytest.approx(0.0, abs=1e-12)
    assert report.xi_y == pytest.approx(0.0, abs=1e-12)
    assert report.xi == pytest.approx(0.0, abs=1e-10)
    assert report.ratio == pytest.approx(1.0, abs=1e-6)
    assert report.bound_rhs >= report.j2_star - 1e-6


def test_gap_bound_holds_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        nu = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        g = random_h2_plant(rng, n, nu, ny)
        r = int(rng.integers(1, min(nu, ny) + 1))
        part = ClusterPartition(input_sets=random_partition(rng, nu, r),
                                output_sets=random_partition(rng, ny, r))
        report = evaluate_partition(g, part)
        assert report.j1_star <= report.j2_star + 1e-8
        assert report.j2_star ** 2 <= (report.j1_star ** 2
                                       + 2 * report.xi * report.j1_star
                                       + report.xi ** 2 + 1e-6)
        assert report.bound_rhs >= report.j2_star - 1e-6
        assert report.h2_equivalence == pytest.approx(report.j2_star, rel=1e-6)


def test_equivalence_check_records_and_warns(monkeypatch):
    # a coarse partition has J1* < J2*, so the unconstrained optimal
    # controller in place of the equivalence form must trip the check
    g = random_h2_plant(np.random.default_rng(23), 5, 3, 3)
    part = ClusterPartition(input_sets=((0, 1, 2),), output_sets=((0, 1, 2),))
    monkeypatch.setattr(gapdesign, "doubly_projected_controller",
                        lambda g, p, tol: synthesize_unconstrained(g).controller.expand())
    with pytest.warns(UserWarning, match="equivalence-form"):
        report = evaluate_partition(g, part)
    assert report.j2_star > report.j1_star * (1 + 1e-6)
    assert report.h2_equivalence == pytest.approx(report.j1_star, rel=1e-9)


def test_xi_formula_variants():
    rng = np.random.default_rng(13)
    g = random_h2_plant(rng, 4, 3, 3)
    sets = random_partition(rng, 3, 2)
    part = ClusterPartition(input_sets=sets, output_sets=sets)
    report = evaluate_partition(g, part)
    assert report.xi == pytest.approx(
        report.eps1 * report.xi_u + 2 * report.eps2 * report.xi_y)


def test_xi_u_monotone_under_refinement():
    rng = np.random.default_rng(17)
    g = random_h2_plant(rng, 5, 6, 6)
    hier_part = ClusterPartition(input_sets=random_partition(rng, 6, 2),
                                 output_sets=random_partition(rng, 6, 2))
    pair = build_projection(hier_part, WeightVectors.ones(6, 6))
    yd, _ = structured_youla_data(g, pair)
    sf = spectral_factors(yd, g.d12, g.d21)
    for _ in range(20):
        r = int(rng.integers(1, 6))
        coarse_sets = random_partition(rng, 6, r)
        # split one multi-element cluster
        big = max(range(r), key=lambda i: len(coarse_sets[i]))
        if len(coarse_sets[big]) < 2:
            continue
        items = list(coarse_sets[big])
        cut = rng.integers(1, len(items))
        fine_sets = (tuple(s for i, s in enumerate(coarse_sets) if i != big)
                     + (tuple(items[:cut]), tuple(items[cut:])))
        coarse = build_projection(
            ClusterPartition(input_sets=coarse_sets, output_sets=coarse_sets),
            WeightVectors.ones(6, 6))
        fine = build_projection(
            ClusterPartition(input_sets=fine_sets, output_sets=fine_sets),
            WeightVectors.ones(6, 6))
        rep_c = gap_report(yd, sf, coarse, g, verify_equivalence=False)
        rep_f = gap_report(yd, sf, fine, g, verify_equivalence=False)
        assert rep_f.xi_u <= rep_c.xi_u + 1e-10
        assert rep_c.h2_equivalence is None


def test_doubly_projected_equivalence_controller():
    rng = np.random.default_rng(19)
    for _ in range(5):
        g = random_h2_plant(rng, 4, 3, 3)
        sets = random_partition(rng, 3, 2)
        part = ClusterPartition(input_sets=sets, output_sets=sets)
        pair = build_projection(part, WeightVectors.ones(3, 3))
        hier = synthesize_hierarchical(g, pair)
        k_opt = hier.controller.expand()
        k_equiv = doubly_projected_controller(g, pair)
        for w in np.logspace(-2, 2, 10):
            ref = k_opt.eval(1j * w)
            assert np.linalg.norm(k_equiv.eval(1j * w) - ref) <= \
                1e-7 * max(1.0, np.linalg.norm(ref))


def test_equivalence_form_matches_j2_on_consensus_n200():
    # P_u'P_u D12'D12 P_u'P_u has rank r = 4 and rounding-level eigenvalues
    # (about 2e-15 at n = 200) on its null space; a pinv with the default
    # cutoff inverted them and gave 163.646 against J2* = 163.528
    from hierh2 import h2_norm, lft_lower
    cfg = ExperimentConfig(seed=7)
    g = cfg.plant(200)
    pair = build_projection(cfg.planted_partition(g, 200),
                            WeightVectors.ones(g.n_u, g.n_y))
    j2 = synthesize_hierarchical(g, pair).h2_value
    h2_equiv = h2_norm(lft_lower(g, doubly_projected_controller(g, pair)))
    assert h2_equiv == pytest.approx(j2, rel=1e-9)


# ---------------------------------------------------------------------------
# Weighted k-means and cluster design
# ---------------------------------------------------------------------------

def test_kmeans_separated_1d():
    x = np.array([[0.0], [0.1], [5.0], [5.1]])
    labels, centers, obj = weighted_kmeans(x, np.ones(4), 2, rng=0)
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]


def test_kmeans_weights_pull_centers():
    x = np.array([[0.0], [1.0]])
    labels, centers, _ = weighted_kmeans(np.vstack([x, [[0.4]]]),
                                         np.array([10.0, 10.0, 0.1]), 2, rng=1)
    assert len(set(labels[:2])) == 2


def test_kmeans_degenerate_rows():
    with pytest.raises(DegenerateData):
        weighted_kmeans(np.zeros((4, 2)), np.ones(4), 2, rng=0)


def test_design_clusters_recovers_planted_blocks(consensus100):
    g, spec = consensus100
    yd = reference_youla_data(g)
    sf = spectral_factors(yd, g.d12, g.d21)
    weights = WeightVectors.ones(g.n_u, g.n_y)
    planted = set(frozenset(b) for b in spec.planted_partition)
    hits = 0
    for seed in range(5):
        part = design_clusters(sf, weights, 4, rng=seed, restarts=10)
        if set(frozenset(s) for s in part.input_sets) == planted:
            hits += 1
    assert hits >= 4


def test_design_clusters_singleton_limit():
    rng = np.random.default_rng(23)
    g = random_h2_plant(rng, 4, 4, 4)
    yd = reference_youla_data(g)
    sf = spectral_factors(yd, g.d12, g.d21)
    part = design_clusters(sf, WeightVectors.ones(4, 4), 4, rng=0)
    assert all(len(s) == 1 for s in part.input_sets)
    report = evaluate_partition(g, part)
    assert report.xi_u == pytest.approx(0.0, abs=1e-10)
    assert report.ratio == pytest.approx(1.0, abs=1e-6)


def test_monotone_gap_sweep_small():
    rng = np.random.default_rng(29)
    g = random_h2_plant(rng, 4, 4, 4)
    yd = reference_youla_data(g)
    sf = spectral_factors(yd, g.d12, g.d21)
    rows = monotone_gap_sweep(g, sf, WeightVectors.ones(4, 4), [1, 2, 4], rng=3)
    ratios = [row.report.ratio for row in rows]
    assert ratios[0] >= max(ratios) - 1e-9          # r = 1 is the largest
    assert ratios[-1] == pytest.approx(1.0, abs=1e-6)  # singleton limit
    for row in rows:
        assert row.report.bound_rhs >= row.report.j2_star - 1e-6


def test_misaligned_partition_widens_the_gap():
    # on the same clustered instance, a random assignment of subsystems to
    # r = 4 clusters performs strictly worse than the planted alignment
    from hierh2 import NetworkSpec, generate_consensus_network
    spec = NetworkSpec.even_blocks(n_s=48, n_blocks=4, p_in=1.0, p_out=0.02,
                                   a_lo=3.0, a_hi=4.0, seed=7)
    g = generate_consensus_network(spec)
    aligned = ClusterPartition.from_subsystems(spec.planted_partition, g)
    rng = np.random.default_rng(3)
    sets = random_partition(rng, 48, 4)
    misaligned = ClusterPartition(input_sets=sets, output_sets=sets,
                                  subsystem_sets=sets)
    rep_a = evaluate_partition(g, aligned)
    rep_m = evaluate_partition(g, misaligned)
    assert rep_m.ratio > rep_a.ratio
    assert rep_m.bound_rhs >= rep_m.j2_star - 1e-6


# ---------------------------------------------------------------------------
# n-state factors against the 2n hat-Riccati oracle
# ---------------------------------------------------------------------------

def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def _assert_factors_match_oracle(yd, p, hier=None):
    g = yd.g
    tol = DEFAULT_TOLERANCES
    sf = spectral_factors(yd, g.d12, g.d21)
    hat = hat_spectral_factors(yd, g.d12, g.d21)
    for mine, ref in ((sf.fhat, hat.fhat), (sf.lhat, hat.lhat),
                      (sf.embed_u, hat.embed_u), (sf.embed_y, hat.embed_y)):
        assert mine.shape == ref.shape
        assert _rel(mine, ref) <= 1e-9
    report = gap_report(yd, sf, p, g, hier=hier, verify_equivalence=False)
    eps1, eps2 = hat_gap_weights(yd, hat)
    assert report.eps1 == pytest.approx(eps1, rel=tol.hinf_rel)
    assert report.eps2 == pytest.approx(eps2, rel=tol.hinf_rel)


def _non_identity_weight_plant(rng, n, nu, ny):
    """random_h2_plant with D12 -> D12 S and D21 -> T D21, so D12'D12 = S'S
    and D21 D21' = T T' are not identities while A4 still holds; S and T
    have singular values in [0.5, 2]."""
    g = random_h2_plant(rng, n, nu, ny)
    s, _ = np.linalg.qr(rng.standard_normal((nu, nu)))
    t, _ = np.linalg.qr(rng.standard_normal((ny, ny)))
    s, t = s * rng.uniform(0.5, 2.0, nu), t * rng.uniform(0.5, 2.0, ny)
    return GeneralizedPlant(a=g.a, b1=g.b1, b2=g.b2, c1=g.c1, c2=g.c2,
                            d12=g.d12 @ s, d21=t @ g.d21)


@pytest.mark.parametrize("n", [24, 100])
def test_n_state_factors_match_hat_oracle_consensus(n):
    cfg = ExperimentConfig(seed=7)
    g = cfg.plant(n)
    p = build_projection(cfg.planted_partition(g, n),
                         WeightVectors.ones(g.n_u, g.n_y))
    yd_struct, hier = structured_youla_data(g, p)
    _assert_factors_match_oracle(yd_struct, p, hier)
    _assert_factors_match_oracle(reference_youla_data(g), p, hier)


def test_n_state_factors_match_hat_oracle_small_plants():
    g = scalar_plant()
    one = ProjectionPair(np.eye(1), np.eye(1))
    _assert_factors_match_oracle(youla_data(g, f=[[-1.0]], l=[[-1.0]]), one)
    rng = np.random.default_rng(7)
    g = _non_identity_weight_plant(rng, 8, 3, 2)
    assert not np.allclose(g.d12.T @ g.d12, np.eye(3))
    assert not np.allclose(g.d21 @ g.d21.T, np.eye(2))
    part = ClusterPartition(input_sets=((0, 2), (1,)), output_sets=((0,), (1,)))
    p = build_projection(part, WeightVectors.ones(3, 2))
    yd, hier = structured_youla_data(g, p)
    _assert_factors_match_oracle(yd, p, hier)
    _assert_factors_match_oracle(reference_youla_data(g), p, hier)


def test_spectral_factors_rejects_foreign_weights():
    g = random_h2_plant(np.random.default_rng(2), 3, 2, 2)
    yd = reference_youla_data(g)
    with pytest.raises(ValueError):
        spectral_factors(yd, 2.0 * g.d12, g.d21)


def test_gap_layer_runs_in_n_state_blocks(monkeypatch):
    # every Riccati, Sylvester/Lyapunov, Schur and H-infinity call made by
    # spectral_factors and gap_report is on n x n state matrices; the only
    # 2n-sided object is the square root of Phi_y (not wrapped)
    from hierh2 import linalg, synthesis
    from hierh2.linalg import RealSchur
    cfg = ExperimentConfig(seed=7)
    g = cfg.plant(24)
    p = build_projection(cfg.planted_partition(g, 24),
                         WeightVectors.ones(g.n_u, g.n_y))
    yd = reference_youla_data(g)
    sides = {"riccati": [], "sylvester": [], "hinf": [], "schur": []}

    def record(kind, fn, side_of):
        def wrapper(*args, **kwargs):
            sides[kind].append(side_of(*args))
            return fn(*args, **kwargs)
        return wrapper

    wrapped = {
        "riccati_from_hamiltonian": ("riccati", lambda a, *_: a.shape[0]),
        "solve_sylvester": ("sylvester",
                            lambda f1, f2, *_: max(f1.a.shape[0], f2.a.shape[0])),
        "hinf_norm": ("hinf", lambda sys, *_: sys.a.shape[0]),
    }
    for name, (kind, side_of) in wrapped.items():
        wrapper = record(kind, getattr(linalg, name), side_of)
        for mod in (linalg, synthesis, gapdesign):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapper)
    schur_of = RealSchur.of.__func__
    monkeypatch.setattr(RealSchur, "of", classmethod(
        record("schur", schur_of, lambda cls, a: np.asarray(a).shape[0])))

    sf = spectral_factors(yd, g.d12, g.d21)
    gap_report(yd, sf, p, g, verify_equivalence=False)
    assert all(sides[kind] for kind in sides), sides
    assert max(max(v) for v in sides.values()) <= g.n, sides
    assert len(sides["riccati"]) == 4   # X, Y of the unconstrained pair and
    assert len(sides["hinf"]) == 4      # of the hierarchical synthesis


def _lqr_youla_data(seed, n, nu, ny):
    """Youla data of a random A1-A4 plant with LQR/Kalman gains under random
    SPD weights; None when a gain ARE or an ARE of the plant's own H2
    synthesis misses its residual bound."""
    rng = np.random.default_rng(seed)
    g = _non_identity_weight_plant(rng, n, nu, ny)

    def spd(k):
        w = rng.standard_normal((k, k))
        return w @ w.T + 0.5 * np.eye(k)

    r_u, r_y = spd(nu), spd(ny)
    try:
        x = solve_are(g.a, g.b2, np.linalg.cholesky(spd(n)).T, r_u).x
        y = solve_are(g.a.T, g.c2.T, np.linalg.cholesky(spd(n)).T, r_y).x
        synthesize_unconstrained(g)
    except NumericalError:
        return None
    f = -np.linalg.solve(r_u, g.b2.T @ x)
    l = -np.linalg.solve(r_y, g.c2 @ y).T
    return youla_data(g, f=f, l=l)


def test_large_x_riccati_meets_its_scaled_bound():
    # the LQR ARE of this draw has ||X||_2 = 3.1e5 and ||X M X||_F = 8.5e5;
    # its rounding-level residual (2.0e-5 after Newton) is far above
    # are_residual max(1, ||Q||_F) = 2.1e-7 but below the bound
    # are_residual max(1, ||Q||_F, ||X M X||_F) = 8.5e-3
    assert _lqr_youla_data(15, 6, 1, 1) is not None


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(2, 6),
       nu=st.integers(1, 3), ny=st.integers(1, 3))
# draws on which hinf_norm with a fixed crossing test at 1e-8 came back
# 0.01% to 10% low on one of the two realizations of a weight
@example(seed=3, n=2, nu=1, ny=1)
@example(seed=6, n=4, nu=1, ny=1)
@example(seed=44, n=3, nu=1, ny=2)
@example(seed=95, n=6, nu=2, ny=2)
@example(seed=6, n=6, nu=1, ny=1)
@example(seed=18, n=6, nu=1, ny=1)
@example(seed=144, n=4, nu=3, ny=1)
def test_property_n_state_factors_equal_hat_oracle(seed, n, nu, ny):
    yd = _lqr_youla_data(seed, n, nu, ny)
    assume(yd is not None)
    g = yd.g
    sf = spectral_factors(yd, g.d12, g.d21)
    hat = hat_spectral_factors(yd, g.d12, g.d21)
    assert _rel(sf.fhat, hat.fhat) <= 1e-9
    assert _rel(sf.lhat, hat.lhat) <= 1e-9
    assert _rel(sf.embed_u @ sf.embed_u.T, hat.embed_u @ hat.embed_u.T) <= 1e-9
    assert _rel(sf.embed_y @ sf.embed_y.T, hat.embed_y @ hat.embed_y.T) <= 1e-9
    hinf_rel = DEFAULT_TOLERANCES.hinf_rel
    for mine, ref in ((yd.t12, StateSpace(yd.a_hat, yd.b2_hat, yd.c1_hat, g.d12)),
                      (yd.t21, StateSpace(yd.a_hat, yd.b1_hat, yd.c2_hat, g.d21)),
                      (sf.wbar_l, hat.wbar_l), (sf.wbar_r, hat.wbar_r)):
        for w in FREQS:
            assert _rel(mine.eval(1j * w), ref.eval(1j * w)) <= 1e-9
        assert hinf_norm(mine) == pytest.approx(hinf_norm(ref), rel=hinf_rel)

