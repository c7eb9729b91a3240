import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, reject, settings
from hypothesis import strategies as st

from hierh2 import (DEFAULT_TOLERANCES, ClusterPartition, ExperimentConfig,
                    GeneralizedPlant, NetworkSpec, StateSpace,
                    WeightVectors, build_projection, design_clusters,
                    doubly_projected_controller, evaluate_partition,
                    gap_report, gapdesign, generate_consensus_network,
                    hinf_norm, model_matching_value, monotone_gap_sweep,
                    reference_youla_data, solve_are, spectral_factors,
                    synthesize_hierarchical, synthesize_unconstrained,
                    weighted_kmeans, youla_data)
from hierh2.errors import (DegenerateData, IllConditionedR, InvalidInput,
                           NumericalError)

from conftest import identity_pair, random_h2_plant, random_partition
from oracles import (hat_gap_weights, hat_spectral_factors, lyapunov_kron,
                     youla_hat)
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
    yd = youla_data(g, identity_pair(g), [[-1.0]], [[-1.0]])
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
        yd = synthesize_hierarchical(g, pair).youla
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


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(2, 6),
       nu=st.integers(1, 3), ny=st.integers(1, 3), data=st.data())
def test_property_gap_bound_orders_j1_j2_bound(seed, n, nu, ny, data):
    """J1* <= J2* <= bound_rhs on random A1-A4 plants and partitions.

    Draws whose evaluation raises NumericalError are rejected: none of the
    25 derandomized draws is.  On nine of them every cluster holds one
    channel, so J1* = J2* = bound_rhs up to rounding; on one, J2* = 940 J1*.
    """
    r = data.draw(st.integers(1, min(nu, ny)), label="r")
    rng = np.random.default_rng(seed)
    g = random_h2_plant(rng, n, nu, ny)
    part = ClusterPartition(input_sets=random_partition(rng, nu, r),
                            output_sets=random_partition(rng, ny, r))
    try:
        report = evaluate_partition(g, part)
    except NumericalError:
        reject()
    slack = 1.0 + 1e-9
    assert report.j1_star <= report.j2_star * slack
    assert report.j2_star <= report.bound_rhs * slack


def test_equivalence_warning_threshold(monkeypatch):
    # the warning compares |h2_equivalence - J2*| with
    # _EQUIVALENCE_REL max(1, J2*): silent as shipped, raised below the
    # observed gap
    g = random_h2_plant(np.random.default_rng(3), 7, 3, 3)
    part = ClusterPartition(input_sets=((0, 2), (1,)), output_sets=((0,), (1, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = evaluate_partition(g, part)
    gap = abs(report.h2_equivalence - report.j2_star) / max(1.0, report.j2_star)
    assert 0.0 < gap <= gapdesign._EQUIVALENCE_REL
    monkeypatch.setattr(gapdesign, "_EQUIVALENCE_REL", gap / 2)
    with pytest.warns(UserWarning, match="equivalence-form"):
        evaluate_partition(g, part)


def test_equivalence_check_records_and_warns(monkeypatch):
    # a coarse partition has J1* < J2*, so the unconstrained optimal
    # controller in place of the equivalence form must trip the check
    g = random_h2_plant(np.random.default_rng(23), 5, 3, 3)
    part = ClusterPartition(input_sets=((0, 1, 2),), output_sets=((0, 1, 2),))
    monkeypatch.setattr(gapdesign, "doubly_projected_controller",
                        lambda g, p, tol: synthesize_unconstrained(g).youla)
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
    yd = synthesize_hierarchical(g, pair).youla
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
        rep_c = gap_report(synthesize_hierarchical(g, coarse), sf)
        rep_f = gap_report(synthesize_hierarchical(g, fine), sf)
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
        k_equiv = doubly_projected_controller(g, pair).controller.expand()
        for w in np.logspace(-2, 2, 10):
            ref = k_opt.eval(1j * w)
            assert np.linalg.norm(k_equiv.eval(1j * w) - ref) <= \
                1e-7 * max(1.0, np.linalg.norm(ref))


def test_non_self_dual_n100_equivalence_form_gives_j2(non_self_dual100):
    # the equivalence form solves its own pair of equations from its own
    # factors of the projected weights; on a plant whose two sides differ
    # it must still give J2*, and the gap pipeline must report it
    from hierh2 import h2_norm, lft_lower
    g, part, weights, pair = non_self_dual100
    hier = synthesize_hierarchical(g, pair)
    k_equiv = doubly_projected_controller(g, pair).controller.expand()
    assert h2_norm(lft_lower(g, k_equiv)) == pytest.approx(hier.h2_value,
                                                          rel=1e-9)
    report = evaluate_partition(g, part, weights)
    assert report.j2_star == hier.h2_value
    assert report.h2_equivalence == pytest.approx(hier.h2_value, rel=1e-9)
    assert report.j1_star <= report.j2_star <= report.bound_rhs


def test_directed_n200_equivalence_form_gives_j2(directed200):
    # the equivalence form and the gap bound on a non-symmetric A
    g, part, _ = directed200
    report = evaluate_partition(g, part)
    assert report.h2_equivalence == pytest.approx(report.j2_star, rel=1e-9)
    assert report.j1_star <= report.j2_star <= report.bound_rhs


@pytest.mark.parametrize("side", ["u", "y"])
def test_doubly_projected_controller_rejects_an_ill_conditioned_weight(side):
    # the equivalence form builds both equations with build_hamiltonian, so
    # a projected weight whose condition number on its range is above
    # cond_max (1e14 here) raises instead of being inverted silently
    g = random_h2_plant(np.random.default_rng(19), 4, 3, 3)
    scale = np.diag([1.0, 1.0, 1e-7])
    g = GeneralizedPlant(a=g.a, b1=g.b1, b2=g.b2, c1=g.c1, c2=g.c2,
                         d12=g.d12 @ scale if side == "u" else g.d12,
                         d21=scale @ g.d21 if side == "y" else g.d21)
    sets = ((0, 1), (2,))
    pair = build_projection(ClusterPartition(input_sets=sets, output_sets=sets),
                            WeightVectors.ones(3, 3))
    with pytest.raises(IllConditionedR, match=r"cond\(R1\)"):
        doubly_projected_controller(g, pair)


def test_equivalence_form_matches_j2_on_consensus_n200():
    # P_u'P_u D12'D12 P_u'P_u has rank r = 4 and rounding-level eigenvalues
    # (about 2e-15 at n = 200) on its null space; a pinv with the default
    # cutoff inverted them and gave 163.646 against J2* = 163.528
    from hierh2 import h2_norm, lft_lower
    cfg = ExperimentConfig(seed=7)
    g = cfg.plant(200)
    part = cfg.planted_partition(g, 200)
    pair = build_projection(part, WeightVectors.ones(g.n_u, g.n_y))
    j2 = synthesize_hierarchical(g, pair).h2_value
    k_equiv = doubly_projected_controller(g, pair).controller.expand()
    h2_equiv = h2_norm(lft_lower(g, k_equiv))
    assert h2_equiv == pytest.approx(j2, rel=1e-9)
    # the observer separation that evaluate_partition uses agrees with the
    # 2n closed-loop oracle
    report = evaluate_partition(g, part)
    assert report.h2_equivalence == pytest.approx(h2_equiv, rel=1e-9)


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


def _recording_wcss(monkeypatch):
    """The objective values Lloyd computes, in order."""
    seen = []
    wcss = gapdesign._wcss

    def recording(*args):
        seen.append(wcss(*args))
        return seen[-1]

    monkeypatch.setattr(gapdesign, "_wcss", recording)
    return seen


def _check_clustering(x, r, labels, objectives):
    """Every cluster non-empty, the labels a partition of the rows, and the
    objective non-increasing across the iterations."""
    sets = gapdesign._labels_to_sets(labels, r)
    assert all(sets)
    assert sorted(i for s in sets for i in s) == list(range(x.shape[0]))
    assert objectives and all(b <= a for a, b in zip(objectives, objectives[1:]))


def test_lloyd_repairs_a_cluster_that_starts_empty(monkeypatch):
    # a seed centre far from every row gets no row in the first assignment;
    # the row farthest from the centre of the highest-inertia cluster moves
    # into it
    rng = np.random.default_rng(4)
    x = np.vstack([rng.normal(c, 0.1, (5, 2)) for c in (0.0, 3.0, 6.0)])
    w = rng.uniform(0.5, 2.0, 15)
    seeds = np.array([[0.0, 0.0], [3.0, 3.0], [100.0, 100.0]])
    d2 = ((x[:, None, :] - seeds[None, :, :]) ** 2).sum(axis=2)
    assert not np.any(np.argmin(d2, axis=1) == 2)
    monkeypatch.setattr(gapdesign, "_kmeanspp_seed", lambda *a: seeds.copy())
    objectives = _recording_wcss(monkeypatch)
    labels, _, obj = weighted_kmeans(x, w, 3, rng=0, restarts=1)
    _check_clustering(x, 3, labels, objectives)
    assert obj == objectives[-1]
    assert set(gapdesign._labels_to_sets(labels, 3)[2]) <= set(range(10, 15))


class _CountingRng:
    """A generator that counts its uniform draws (``integers``)."""

    def __init__(self, seed):
        self.rng, self.uniform_draws = np.random.default_rng(seed), 0

    def choice(self, *args, **kw):
        return self.rng.choice(*args, **kw)

    def integers(self, *args, **kw):
        self.uniform_draws += 1
        return self.rng.integers(*args, **kw)


@pytest.mark.parametrize("seed", range(4))
def test_kmeanspp_seed_with_no_score_mass_left(monkeypatch, seed):
    # three distinct rows for four clusters: once each is a centre, no
    # score mass is left off the chosen points, and the fourth centre is a
    # uniform draw, a duplicate whose cluster Lloyd then repairs
    x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 2.0], [1.0, 2.0],
                  [-1.0, 3.0]])
    w = np.array([1.0, 2.0, 0.5, 1.0, 1.5])
    rng = _CountingRng(seed)
    objectives = _recording_wcss(monkeypatch)
    labels, _, _ = gapdesign._lloyd(x, w, 4, rng)
    assert rng.uniform_draws == 1
    _check_clustering(x, 4, labels, objectives)


@pytest.mark.parametrize("seed", range(3))
def test_lloyd_returns_a_fixed_point_of_the_assignment_step(monkeypatch,
                                                            seed):
    # Lloyd runs to its stopping rule: the labels it returns are the
    # nearest-centre labels of the centres it returns, each centre the
    # weighted mean of its cluster
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(300, 2))
    w = rng.uniform(0.5, 2.0, 300)
    objectives = _recording_wcss(monkeypatch)
    labels, centers, obj = weighted_kmeans(x, w, 5, rng=seed, restarts=1)
    _check_clustering(x, 5, labels, objectives)
    assert len(objectives) > 2 and obj == objectives[-1]
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(labels, np.argmin(d2, axis=1))
    for cl in range(5):
        sel = labels == cl
        assert np.allclose(centers[cl], w[sel] @ x[sel] / w[sel].sum(),
                           rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_kmeans_rows_of_zero_weight_carry_no_mass(seed):
    x = np.arange(4.0)[:, None]
    # two rows of positive weight cannot make three clusters
    with pytest.raises(DegenerateData, match="positive weight"):
        weighted_kmeans(x, [1.0, 1.0, 0.0, 0.0], 3, rng=seed, restarts=1)
    # three can: each is a cluster, and the row of weight 0 joins the
    # nearest centre
    labels, centers, obj = weighted_kmeans(x, [1.0, 1.0, 1.0, 0.0], 3,
                                           rng=seed, restarts=1)
    assert sorted(labels[:3]) == [0, 1, 2] and labels[3] == labels[2]
    assert np.array_equal(np.sort(centers[:, 0]), [0.0, 1.0, 2.0])
    assert obj == 0.0


def test_lloyd_repairs_a_cluster_of_zero_weight_rows(monkeypatch):
    # a seed centre on the row of weight 0 gets only that row; the cluster
    # has no mass, so the farthest row of positive weight in the
    # highest-inertia cluster moves into it, and no centre is 0/0
    x = np.array([[0.0], [1.0], [2.0], [10.0]])
    w = np.array([1.0, 1.0, 1.0, 0.0])
    seeds = np.array([[0.0], [1.0], [10.0]])
    monkeypatch.setattr(gapdesign, "_kmeanspp_seed", lambda *a: seeds.copy())
    objectives = _recording_wcss(monkeypatch)
    labels, centers, obj = weighted_kmeans(x, w, 3, rng=0, restarts=1)
    _check_clustering(x, 3, labels, objectives)
    assert labels.tolist() == [0, 1, 2, 2]
    assert centers[:, 0].tolist() == [0.0, 1.0, 2.0] and obj == 0.0


def test_kmeans_rejects_a_negative_weight():
    with pytest.raises(InvalidInput, match="weights >= 0"):
        weighted_kmeans(np.arange(3.0)[:, None], [1.0, -1.0, 1.0], 2, rng=0)


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
    rows = monotone_gap_sweep(sf, WeightVectors.ones(4, 4), [1, 2, 4], rng=3)
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


def _assert_factors_match_oracle(yd, hier):
    """Factors of `yd` against the oracle, with the gap weights of `hier`'s
    projections evaluated on `yd`."""
    g = yd.g
    tol = DEFAULT_TOLERANCES
    sf = spectral_factors(yd, g.d12, g.d21)
    hat = hat_spectral_factors(yd, g.d12, g.d21)
    for mine, ref in ((sf.fhat, hat.fhat), (sf.lhat, hat.lhat),
                      (sf.embed_u, hat.embed_u), (sf.embed_y, hat.embed_y)):
        assert mine.shape == ref.shape
        assert _rel(mine, ref) <= 1e-9
    report = gap_report(dataclasses.replace(hier, youla=yd), sf)
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
    hier = synthesize_hierarchical(g, p)
    _assert_factors_match_oracle(hier.youla, hier)
    _assert_factors_match_oracle(reference_youla_data(g), hier)


def test_n_state_factors_match_hat_oracle_small_plants():
    g = scalar_plant()
    _assert_factors_match_oracle(
        youla_data(g, identity_pair(g), [[-1.0]], [[-1.0]]),
        synthesize_unconstrained(g))
    rng = np.random.default_rng(7)
    g = _non_identity_weight_plant(rng, 8, 3, 2)
    assert not np.allclose(g.d12.T @ g.d12, np.eye(3))
    assert not np.allclose(g.d21 @ g.d21.T, np.eye(2))
    part = ClusterPartition(input_sets=((0, 2), (1,)), output_sets=((0,), (1,)))
    p = build_projection(part, WeightVectors.ones(3, 2))
    hier = synthesize_hierarchical(g, p)
    _assert_factors_match_oracle(hier.youla, hier)
    _assert_factors_match_oracle(reference_youla_data(g), hier)


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
        "riccati_from_hamiltonian": ("riccati", lambda hs, *_: hs.n),
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
    gap_report(synthesize_hierarchical(g, p), sf)
    assert all(sides[kind] for kind in sides), sides
    assert max(max(v) for v in sides.values()) <= g.n, sides
    assert len(sides["riccati"]) == 4   # X, Y of the unconstrained pair and
    assert len(sides["hinf"]) == 4      # of the hierarchical synthesis


def test_each_loop_factor_is_made_once(monkeypatch):
    # counts of scipy.linalg.schur calls by form: every n x n factor is the
    # closed loop of one Riccati solve (two in reference_youla_data; three
    # pairs in evaluate_partition: unconstrained, hierarchical and the
    # equivalence form), no 2n closed loop is factored, and the Riccati
    # solves, made by doubling on n x n blocks, make no 2n Schur form
    from collections import Counter

    import scipy.linalg
    cfg = ExperimentConfig(seed=7)
    g = cfg.plant(24)
    part = cfg.planted_partition(g, 24)
    calls = Counter()
    schur = scipy.linalg.schur

    def counting(a, *args, **kwargs):
        form = "ordered" if kwargs.get("sort") is not None else "unsorted"
        calls[form, np.shape(a)[0]] += 1
        return schur(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counting)
    reference_youla_data(g)
    assert calls == {("unsorted", g.n): 2}
    calls.clear()
    evaluate_partition(g, part)
    assert calls == {("unsorted", g.n): 6}


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
    return youla_data(g, identity_pair(g), f, l)


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
    yh = youla_hat(yd)
    for mine, ref in ((yd.t12, StateSpace(yh.a_hat, yh.b2_hat, yh.c1_hat, g.d12)),
                      (yd.t21, StateSpace(yh.a_hat, yh.b1_hat, yh.c2_hat, g.d21)),
                      (sf.wbar_l, hat.wbar_l), (sf.wbar_r, hat.wbar_r)):
        for w in FREQS:
            assert _rel(mine.eval(1j * w), ref.eval(1j * w)) <= 1e-9
        assert hinf_norm(mine) == pytest.approx(hinf_norm(ref), rel=hinf_rel)

