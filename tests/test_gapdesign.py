import numpy as np
import pytest

from hierh2 import (ClusterPartition, NetworkSpec, WeightVectors,
                    build_projection, design_clusters,
                    doubly_projected_controller, evaluate_partition,
                    gap_report, generate_consensus_network,
                    model_matching_value, monotone_gap_sweep,
                    reference_youla_data,
                    spectral_factors, structured_youla_data,
                    synthesize_hierarchical, synthesize_unconstrained,
                    weighted_kmeans, youla_data)
from hierh2.errors import DegenerateData

from conftest import random_h2_plant, random_partition
from test_synthesis import scalar_plant

FREQS = np.logspace(-2, 2, 20)


# ---------------------------------------------------------------------------
# Spectral factors
# ---------------------------------------------------------------------------

def test_scalar_plant_hat_riccati_hand_value():
    # with the optimal gains F = L = -1 the two-state hat AREs solve by hand:
    # Xhat = diag(1, 0), Fhat = [0, -1], Yhat = ones, Lhat = [-1; 0], and the
    # unconstrained optimizer Q* is identically zero
    g = scalar_plant()
    yd = youla_data(g, f=[[-1.0]], l=[[-1.0]])
    sf = spectral_factors(yd, g.d12, g.d21)
    assert np.allclose(sf.xhat, [[1.0, 0.0], [0.0, 0.0]], atol=1e-9)
    assert np.allclose(sf.fhat, [[0.0, -1.0]], atol=1e-9)
    assert np.allclose(sf.yhat, [[1.0, 1.0], [1.0, 1.0]], atol=1e-9)
    assert np.allclose(sf.lhat, [[-1.0], [0.0]], atol=1e-9)
    for w in FREQS:
        assert np.linalg.norm(sf.q_star.eval(1j * w)) <= 1e-9


def test_factorizations_agree():
    from hierh2 import series
    rng = np.random.default_rng(3)
    g = random_h2_plant(rng, 4, 2, 3)
    yd = reference_youla_data(g)
    sf = spectral_factors(yd, g.d12, g.d21)
    left = series(sf.wbar_r, sf.w_l)    # W_L Wbar_R
    right = series(sf.w_r, sf.wbar_l)   # Wbar_L W_R
    for w in FREQS:
        lv, rv = left.eval(1j * w), right.eval(1j * w)
        assert np.linalg.norm(lv - rv) <= 1e-7 * max(1.0, np.linalg.norm(rv))
        # Q* realization agrees with the product form
        assert np.linalg.norm(sf.q_star.eval(1j * w) + lv) <= 1e-7 * max(1.0, np.linalg.norm(lv))


def test_model_matching_value_equals_unconstrained_optimum():
    rng = np.random.default_rng(5)
    for _ in range(3):
        g = random_h2_plant(rng, 4, 2, 2)
        yd = reference_youla_data(g)
        sf = spectral_factors(yd, g.d12, g.d21)
        j1 = model_matching_value(yd, sf.q_star)
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
        sf = spectral_factors(yd, g.d12, g.d21)
        report = evaluate_partition(g, part)
        assert model_matching_value(yd, sf.q_star) == pytest.approx(
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


def test_xi_formula_variants():
    rng = np.random.default_rng(13)
    g = random_h2_plant(rng, 4, 3, 3)
    sets = random_partition(rng, 3, 2)
    part = ClusterPartition(input_sets=sets, output_sets=sets)
    printed = evaluate_partition(g, part, xi_formula="printed")
    symmetric = evaluate_partition(g, part, xi_formula="symmetric")
    assert printed.xi == pytest.approx(
        printed.eps1 * printed.xi_u + 2 * printed.eps2 * printed.xi_y)
    assert symmetric.xi == pytest.approx(
        symmetric.eps1 * symmetric.xi_u + symmetric.eps2 * symmetric.xi_y
        + min(symmetric.eps1, symmetric.eps2)
        * np.sqrt(symmetric.xi_u * symmetric.xi_y))


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
