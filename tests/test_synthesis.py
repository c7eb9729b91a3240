import numpy as np
import pytest

from hierh2 import (DEFAULT_TOLERANCES, ClusterPartition, ExperimentConfig,
                    GeneralizedPlant, NetworkSpec, ProjectionPair, StateSpace,
                    WeightVectors, add, build_projection, communication_links,
                    generate_consensus_network, h2_norm, lft_controller,
                    lft_lower, spectral_abscissa, synthesize_hierarchical,
                    synthesize_unconstrained, youla_data)
from hierh2.errors import (ApproxNotStabilizing, HypothesisFailure,
                           NotHurwitz, NotStabilizingGains)
from hierh2.projection import random_stable_statespace

from conftest import random_h2_plant, random_partition

FREQS = np.logspace(-2, 2, 15)


def scalar_plant():
    """Scalar integrator with stacked performance/disturbance channels so the
    cross-term assumptions hold; the design data reduce to
    A=0, B1=B2=C1=C2=1, D12=D21=1 in the non-trivial blocks."""
    return GeneralizedPlant(
        a=[[0.0]], b1=[[1.0, 0.0]], b2=[[1.0]],
        c1=[[1.0], [0.0]], c2=[[1.0]],
        d12=[[0.0], [1.0]], d21=[[0.0, 1.0]])


# ---------------------------------------------------------------------------
# Youla parameterization
# ---------------------------------------------------------------------------

def test_scalar_plant_hat_matrices_by_hand():
    g = scalar_plant()
    yd = youla_data(g, f=[[-1.0]], l=[[-1.0]])
    assert np.allclose(yd.a_hat, [[-1.0, 1.0], [0.0, -1.0]])
    assert np.allclose(yd.b1_hat, [[1.0, 0.0], [1.0, -1.0]])
    assert np.allclose(yd.b2_hat, [[1.0], [0.0]])
    assert np.allclose(yd.c1_hat, [[1.0, 0.0], [-1.0, 1.0]])
    assert np.allclose(yd.c2_hat, [[0.0, 1.0]])


def test_closed_loop_parameterization_identity():
    rng = np.random.default_rng(1)
    g = random_h2_plant(rng, 4, 2, 3)
    yd = youla_data(g)
    for _ in range(5):
        q = random_stable_statespace(rng, 2, g.n_u, g.n_y)
        k = lft_controller(yd, q)
        closed = lft_lower(g, k)
        model = add(yd.t11, StateSpace(
            *_series_triple(yd.t21, q, yd.t12)))
        for w in FREQS:
            lhs = closed.eval(1j * w)
            rhs = model.eval(1j * w)
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1, np.linalg.norm(rhs))


def _series_triple(first, mid, last):
    from hierh2 import series
    sys = series(first, mid, last)
    return sys.a, sys.b, sys.c, sys.d


def test_zero_parameter_gives_t11():
    rng = np.random.default_rng(2)
    g = random_h2_plant(rng, 3, 2, 2)
    yd = youla_data(g)
    k0 = lft_controller(yd, StateSpace.zero(g.n_u, g.n_y))
    closed = lft_lower(g, k0)
    for w in FREQS:
        assert np.linalg.norm(closed.eval(1j * w) - yd.t11.eval(1j * w)) <= 1e-9


def test_t22_vanishes():
    rng = np.random.default_rng(3)
    g = random_h2_plant(rng, 4, 2, 2)
    yd = youla_data(g)
    for w in FREQS:
        assert np.linalg.norm(yd.t22.eval(1j * w)) <= 1e-10


def test_rejects_nonstabilizing_gains():
    g = scalar_plant()
    with pytest.raises(NotStabilizingGains):
        youla_data(g, f=[[1.0]], l=[[-1.0]])


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def test_scalar_unconstrained_example():
    g = scalar_plant()
    res = synthesize_unconstrained(g)
    assert res.x == pytest.approx(np.array([[1.0]]))
    assert res.y == pytest.approx(np.array([[1.0]]))
    assert res.f2 == pytest.approx(np.array([[-1.0]]))
    assert res.l2 == pytest.approx(np.array([[-1.0]]))
    # K~ state matrix A + B2 F2 + L2 C2 = -2
    assert res.controller.k_tilde.a == pytest.approx(np.array([[-2.0]]))
    assert np.isfinite(res.h2_value)
    assert res.h2_value > 0


def test_zero_state_penalty_gives_zero_feedback():
    rng = np.random.default_rng(5)
    n, nu, ny = 4, 2, 2
    a = rng.standard_normal((n, n)) - 3.0 * np.eye(n)  # stable
    b2 = rng.standard_normal((n, nu))
    c2 = rng.standard_normal((ny, n))
    g = GeneralizedPlant(
        a=a, b1=np.hstack([rng.standard_normal((n, 2)), np.zeros((n, ny))]),
        b2=b2,
        c1=np.zeros((nu, n)), c2=c2,
        d12=np.eye(nu), d21=np.hstack([np.zeros((ny, 2)), np.eye(ny)]))
    res = synthesize_unconstrained(g)
    assert np.linalg.norm(res.f2) <= 1e-9
    assert res.h2_value == pytest.approx(0.0, abs=1e-9)


def test_identity_projection_collapse():
    rng = np.random.default_rng(7)
    g = random_h2_plant(rng, 5, 3, 3)
    part = ClusterPartition.singletons(3)
    pair = build_projection(part, WeightVectors.ones(3, 3))
    hier = synthesize_hierarchical(g, pair)
    unc = synthesize_unconstrained(g)
    assert hier.h2_value == pytest.approx(unc.h2_value, rel=1e-8)
    assert np.allclose(hier.x, unc.x, atol=1e-10)


def test_reformulation_consistency_projected_plant():
    rng = np.random.default_rng(9)
    g = random_h2_plant(rng, 5, 4, 4)
    sets = random_partition(rng, 4, 2)
    part = ClusterPartition(input_sets=sets, output_sets=sets)
    pair = build_projection(part, WeightVectors.ones(4, 4))
    hier = synthesize_hierarchical(g, pair)
    g_bar = GeneralizedPlant(
        a=g.a, b1=g.b1, b2=g.b2 @ pair.p_u.T, c1=g.c1,
        c2=pair.p_y @ g.c2, d12=g.d12 @ pair.p_u.T, d21=pair.p_y @ g.d21)
    unc_bar = synthesize_unconstrained(g_bar)
    assert hier.h2_value == pytest.approx(unc_bar.h2_value, rel=1e-8)


def test_hierarchical_closed_loop_stable_and_suboptimal():
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = random_h2_plant(rng, 5, 4, 4)
        r = int(rng.integers(1, 4))
        sets_u = random_partition(rng, 4, r)
        sets_y = random_partition(rng, 4, r)
        part = ClusterPartition(input_sets=sets_u, output_sets=sets_y)
        pair = build_projection(part, WeightVectors.ones(4, 4))
        hier = synthesize_hierarchical(g, pair)
        unc = synthesize_unconstrained(g)
        assert spectral_abscissa(lft_lower(g, hier.controller.expand()).a) < 0
        assert hier.h2_value >= unc.h2_value - 1e-8


def test_first_order_stationarity_probe():
    rng = np.random.default_rng(13)
    g = random_h2_plant(rng, 4, 3, 3)
    sets = random_partition(rng, 3, 2)
    part = ClusterPartition(input_sets=sets, output_sets=sets)
    pair = build_projection(part, WeightVectors.ones(3, 3))
    res = synthesize_hierarchical(g, pair)
    k_opt = res.controller.expand()
    for _ in range(50):
        dk_tilde = random_stable_statespace(rng, 2, pair.r, pair.r)
        scale = 1e-4 / max(1.0, np.linalg.norm(dk_tilde.c @ dk_tilde.b))
        dk = StateSpace(dk_tilde.a, dk_tilde.b @ pair.p_y * scale,
                        pair.p_u.T @ dk_tilde.c, np.zeros((3, 3)))
        perturbed = lft_lower(g, add(k_opt, dk))
        assert h2_norm(perturbed) >= res.h2_value - 1e-6


def test_hypothesis_failures_raise():
    rng = np.random.default_rng(15)
    g = random_h2_plant(rng, 4, 2, 2)
    bad = GeneralizedPlant(a=g.a, b1=g.b1, b2=g.b2, c1=g.c1, c2=g.c2,
                           d12=g.d12 * 0.0, d21=g.d21)
    pair = ProjectionPair(np.eye(2), np.eye(2))
    with pytest.raises(HypothesisFailure):
        synthesize_hierarchical(bad, pair)


def test_projected_pbh_failures_raise():
    # the unstable mode at +1 is reached only through input 1 and seen only
    # through output 1; a projection that keeps channel 0 alone hides it
    g = GeneralizedPlant(
        a=np.diag([-1.0, 1.0]), b1=np.hstack([np.eye(2), np.zeros((2, 2))]),
        b2=np.eye(2), c1=np.vstack([np.eye(2), np.zeros((2, 2))]),
        c2=np.eye(2), d12=np.vstack([np.zeros((2, 2)), np.eye(2)]),
        d21=np.hstack([np.zeros((2, 2)), np.eye(2)]))
    keep0 = np.array([[1.0, 0.0]])
    synthesize_hierarchical(g, ProjectionPair(np.eye(2), np.eye(2)))
    with pytest.raises(HypothesisFailure, match="not stabilizable"):
        synthesize_hierarchical(g, ProjectionPair(keep0, np.eye(2)))
    with pytest.raises(HypothesisFailure, match="not detectable"):
        synthesize_hierarchical(g, ProjectionPair(np.eye(2), keep0))


def test_consensus_ratio_near_one(consensus100, consensus100_partition):
    g, _ = consensus100
    pair = build_projection(consensus100_partition,
                            WeightVectors.ones(g.n_u, g.n_y))
    hier = synthesize_hierarchical(g, pair)
    unc = synthesize_unconstrained(g)
    assert spectral_abscissa(lft_lower(g, hier.controller.expand()).a) < 0
    ratio = hier.h2_value / unc.h2_value
    assert 1.0 - 1e-9 <= ratio <= 1.05


def test_communication_links():
    part4 = ClusterPartition(
        input_sets=((0, 1), (2, 3)), output_sets=((0, 1), (2, 3)),
        subsystem_sets=((0, 1), (2, 3)))
    links = communication_links(part4)
    assert links.hierarchical == 5
    assert links.dense == 6

    part1 = ClusterPartition(input_sets=((0, 1, 2, 3),),
                             output_sets=((0, 1, 2, 3),),
                             subsystem_sets=((0, 1, 2, 3),))
    assert communication_links(part1).hierarchical == 4

    big = ClusterPartition(
        input_sets=tuple((i,) for i in range(500)),
        output_sets=tuple((i,) for i in range(500)),
        subsystem_sets=tuple((i,) for i in range(500)))
    # 500 subsystems in r = 4 clusters
    sets = tuple(tuple(range(i * 125, (i + 1) * 125)) for i in range(4))
    big4 = ClusterPartition(input_sets=sets, output_sets=sets,
                            subsystem_sets=sets)
    assert communication_links(big4).hierarchical == 506
    assert communication_links(big4).dense == 124750


def test_paper_scale_anchor_qualitative():
    # 500-node regime: finite cost, stable loop, ratio near one with the
    # planted 4-block clustering (the published scalar value itself depends
    # on an unpublished network sample)
    spec = NetworkSpec.even_blocks(n_s=500, n_blocks=4, p_in=0.8, p_out=0.002,
                                   a_lo=2.0, a_hi=3.0, seed=7)
    g = generate_consensus_network(spec)
    part = ClusterPartition.from_subsystems(spec.planted_partition, g)
    pair = build_projection(part, WeightVectors.ones(g.n_u, g.n_y))
    hier = synthesize_hierarchical(g, pair)
    unc = synthesize_unconstrained(g)
    assert np.isfinite(hier.h2_value)
    assert hier.h2_value >= unc.h2_value - 1e-6
    assert hier.h2_value / unc.h2_value <= 1.05


def _diagonal_truncation_plant(poles, weights):
    """Decoupled scalar modes with B1 = C1 = diag(weights) on the process
    and state channels and unit B2, C2, D12, D21."""
    n = len(poles)
    w = np.diag(weights)
    return GeneralizedPlant(
        a=np.diag(poles),
        b1=np.hstack([w, np.zeros((n, n))]),
        b2=np.eye(n),
        c1=np.vstack([w, np.zeros((n, n))]),
        c2=np.eye(n),
        d12=np.vstack([np.zeros((n, n)), np.eye(n)]),
        d21=np.hstack([np.zeros((n, n)), np.eye(n)]))


def test_approx_backend_raises_when_truncation_drops_unstable_mode():
    # diagonal instance where the smallest-magnitude retained mode is the
    # stable one: kappa = 1 leaves the unstable mode unregulated
    g = _diagonal_truncation_plant([0.3, -2.0], [5.0, 0.1])
    pair = ProjectionPair(np.eye(2), np.eye(2))
    with pytest.raises(ApproxNotStabilizing, match="control loop"):
        synthesize_hierarchical(g, pair, are_backend="approx", kappa=1)
    # full truncation order recovers the exact design
    res = synthesize_hierarchical(g, pair, are_backend="approx", kappa=2)
    assert spectral_abscissa(lft_lower(g, res.controller.expand()).a) < 0


def test_approx_backend_raises_on_padded_truncation_instance():
    # the two-mode instance above plus 250 well-damped, weakly weighted
    # modes whose Hamiltonian eigenvalues (|lambda| >= 6) lie beyond the
    # unstable mode's (about 5): kappa = 1 still keeps only the stable
    # mode at -2
    n_pad = 250
    poles = [0.3, -2.0] + list(np.linspace(-6.0, -12.0, n_pad))
    g = _diagonal_truncation_plant(poles, [5.0, 0.1] + [0.01] * n_pad)
    pair = ProjectionPair(np.eye(g.n_u), np.eye(g.n_y))
    with pytest.raises(ApproxNotStabilizing, match="control loop"):
        synthesize_hierarchical(g, pair, are_backend="approx", kappa=1)


@pytest.mark.parametrize("n_s", [60, 260])
def test_h2_value_matches_closed_loop_oracle(n_s):
    cfg = ExperimentConfig(seed=7)
    g = cfg.plant(n_s)
    pair = build_projection(cfg.planted_partition(g, n_s),
                            WeightVectors.ones(g.n_u, g.n_y))
    res = synthesize_hierarchical(g, pair)
    oracle = h2_norm(lft_lower(g, res.controller.expand()))
    assert res.h2_value == pytest.approx(oracle, rel=1e-9)
    # the closed loop has a repeated eigenvalue, which a dense eigensolve of
    # the 2n matrix resolves only to about sqrt(machine epsilon)
    assert res.closed_loop_abscissa == pytest.approx(
        spectral_abscissa(lft_lower(g, res.controller.expand()).a), rel=1e-6)


def test_exact_synthesis_reuses_riccati_closed_loops():
    cfg = ExperimentConfig(seed=7)
    g = cfg.plant(24)
    pair = build_projection(cfg.planted_partition(g, 24),
                            WeightVectors.ones(g.n_u, g.n_y))
    res = synthesize_hierarchical(g, pair)
    assert res.closed_loop_abscissa == max(
        res.x_solution.closed_loop_abscissa, res.y_solution.closed_loop_abscissa)
    # the Riccati factors are those of the control and the filter block
    ctrl = g.a + g.b2 @ res.p_u_t_f2()
    filt = g.a + res.l2_p_y() @ g.c2
    assert np.allclose(res.x_solution.closed_loop.a, ctrl, atol=1e-10)
    assert np.allclose(res.y_solution.closed_loop.a.T, filt, atol=1e-10)
    # the reused factors still decide stability
    with pytest.raises(NotHurwitz, match="control loop"):
        synthesize_hierarchical(g, pair, tol=DEFAULT_TOLERANCES.with_(
            hurwitz_margin=1e6))
