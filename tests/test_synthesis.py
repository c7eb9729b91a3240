import sys

import numpy as np
import pytest

from hierh2 import (DEFAULT_TOLERANCES, ClusterPartition, ExperimentConfig,
                    GeneralizedPlant, NetworkSpec, ProjectionPair, StateSpace,
                    WeightVectors, add, build_projection, communication_links,
                    generate_consensus_network, h2_norm, lft_lower, spectral_abscissa, synthesize_hierarchical,
                    synthesize_unconstrained, validate_assumptions,
                    youla_data)
from hierh2.errors import (ApproxNotStabilizing, DimensionMismatch,
                           HypothesisFailure, InvalidInput,
                           NotStabilizingGains, NumericalError, ToolkitError)
from hierh2 import hamiltonian, linalg, projection, synthesis
from hierh2.gapdesign import reference_youla_data
from hierh2.projection import _projected_pbh_failure, random_stable_statespace

from conftest import (identity_pair, random_h2_plant, random_partition,
                      random_stable_matrix, zero_sum_weights)
from oracles import lft_controller, youla_hat

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

def h2_youla_data(g):
    """Youla data of the unconstrained H2 gains."""
    base = synthesize_unconstrained(g)
    return youla_data(g, identity_pair(g), base.youla.f, base.youla.l)


def test_scalar_plant_hat_matrices_by_hand():
    g = scalar_plant()
    hat = youla_hat(youla_data(g, identity_pair(g), [[-1.0]], [[-1.0]]))
    assert np.allclose(hat.a_hat, [[-1.0, 1.0], [0.0, -1.0]])
    assert np.allclose(hat.b1_hat, [[1.0, 0.0], [1.0, -1.0]])
    assert np.allclose(hat.b2_hat, [[1.0], [0.0]])
    assert np.allclose(hat.c1_hat, [[1.0, 0.0], [-1.0, 1.0]])
    assert np.allclose(hat.c2_hat, [[0.0, 1.0]])


def test_youla_data_is_n_state():
    # every array the library keeps has side <= n; the 2n realization of T
    # is the test oracle's
    rng = np.random.default_rng(1)
    g = random_h2_plant(rng, 4, 2, 3)
    yd = h2_youla_data(g)
    arrays = [v for v in vars(yd).values() if isinstance(v, np.ndarray)]
    arrays += [m for loop in (yd.f_loop, yd.l_loop)
               for m in (loop.a, loop.t, loop.u)]
    assert max(max(a.shape) for a in arrays) <= g.n


def test_closed_loop_parameterization_identity():
    rng = np.random.default_rng(1)
    g = random_h2_plant(rng, 4, 2, 3)
    yd = h2_youla_data(g)
    for _ in range(5):
        q = random_stable_statespace(rng, 2, g.n_u, g.n_y)
        k = lft_controller(yd, q)
        closed = lft_lower(g, k)
        model = add(youla_hat(yd).t11, StateSpace(
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
    yd = h2_youla_data(g)
    k0 = lft_controller(yd, StateSpace.zero(g.n_u, g.n_y))
    closed = lft_lower(g, k0)
    t11 = youla_hat(yd).t11
    for w in FREQS:
        assert np.linalg.norm(closed.eval(1j * w) - t11.eval(1j * w)) <= 1e-9


def test_t22_vanishes():
    rng = np.random.default_rng(3)
    g = random_h2_plant(rng, 4, 2, 2)
    t22 = youla_hat(h2_youla_data(g)).t22
    for w in FREQS:
        assert np.linalg.norm(t22.eval(1j * w)) <= 1e-10


def test_rejects_nonstabilizing_gains():
    g = scalar_plant()
    with pytest.raises(NotStabilizingGains):
        youla_data(g, identity_pair(g), [[1.0]], [[-1.0]])


def test_youla_data_rejects_a_pair_or_gains_foreign_to_the_plant():
    g = scalar_plant()
    one = np.eye(1)
    youla_data(g, identity_pair(g), [[-1.0]], [[-1.0]])
    for pair, f2, l2 in (
            (ProjectionPair(np.eye(2), one), [[-1.0], [0.0]], [[-1.0]]),
            (ProjectionPair(one, np.eye(2)), [[-1.0]], [[-1.0, 0.0]]),
            (ProjectionPair(one, one), [[-1.0, 0.0]], [[-1.0]]),
            (ProjectionPair(one, one), [[-1.0]], [[-1.0], [0.0]]),
            (ProjectionPair(one, one), [[-1.0], [0.0]], [[-1.0]])):
        with pytest.raises(HypothesisFailure):
            youla_data(g, pair, f2, l2)


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


def test_relative_cross_terms_fail_a4():
    # cross terms of 1e-6 relative to ||D12|| ||C1|| (or ||B1|| ||D21||) on
    # a plant scaled down by 1e-9, so each is far below 1e-12 in absolute
    # terms: both A4 checks must still reject them
    rng = np.random.default_rng(16)
    g = random_h2_plant(rng, 4, 2, 2)
    pair = ProjectionPair(np.eye(2), np.eye(2))
    c1 = 1e-9 * g.c1
    b1 = 1e-9 * g.b1
    fro = np.linalg.norm
    leak_u = 1e-6 * fro(c1) * g.d12 @ rng.standard_normal((2, 4)) / 4.0
    leak_y = 1e-6 * fro(b1) * rng.standard_normal((4, 2)) @ g.d21 / 4.0
    good = GeneralizedPlant(a=g.a, b1=b1, b2=g.b2, c1=c1, c2=g.c2,
                            d12=g.d12, d21=g.d21)
    assert validate_assumptions(good).a4
    synthesize_hierarchical(good, pair)
    for bad in (GeneralizedPlant(a=g.a, b1=b1, b2=g.b2, c1=c1 + leak_u,
                                 c2=g.c2, d12=g.d12, d21=g.d21),
                GeneralizedPlant(a=g.a, b1=b1 + leak_y, b2=g.b2, c1=c1,
                                 c2=g.c2, d12=g.d12, d21=g.d21)):
        rel_u = fro(bad.d12.T @ bad.c1) / (fro(bad.d12) * fro(bad.c1))
        rel_y = fro(bad.b1 @ bad.d21.T) / (fro(bad.b1) * fro(bad.d21))
        assert 1e-7 <= max(rel_u, rel_y) <= 1e-5
        assert max(fro(bad.d12.T @ bad.c1), fro(bad.b1 @ bad.d21.T)) < 1e-12
        assert not validate_assumptions(bad).a4
        with pytest.raises(HypothesisFailure, match="A4"):
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
    # the approx backend cannot stabilize the hidden mode either; its
    # failure runs the rule, which names the hypothesis
    approx = dict(are_backend="approx", kappa=1, method="dense")
    with pytest.raises(HypothesisFailure, match="not stabilizable"):
        synthesize_hierarchical(g, ProjectionPair(keep0, np.eye(2)), **approx)
    with pytest.raises(HypothesisFailure, match="not detectable"):
        synthesize_hierarchical(g, ProjectionPair(np.eye(2), keep0), **approx)


def _consensus24():
    spec = NetworkSpec.even_blocks(n_s=24, n_blocks=4, p_in=0.8, p_out=0.01,
                                   a_lo=2.0, a_hi=3.0, seed=7)
    g = generate_consensus_network(spec)
    part = ClusterPartition.from_subsystems(spec.planted_partition, g)
    return g, part, build_projection(part, WeightVectors.ones(g.n_u, g.n_y))


def _pbh_sigma_min_over_scale(g, pair):
    """sigma_min of each side's PBH pencil at the unstable modes, relative
    to the rule's scale max(1, ||A||_F, ||B||_F): a pbh_rel above it fails
    that side."""
    modes = linalg._unstable_modes(g.spectrum, DEFAULT_TOLERANCES)
    ratios = []
    for a, b in ((g.a, g.b2 @ pair.p_u.T), (g.a.T, (pair.p_y @ g.c2).T)):
        scale = max(1.0, np.linalg.norm(a), np.linalg.norm(b))
        ratios.append(min(np.linalg.svd(
            np.hstack([a - lam * np.eye(g.n), b]), compute_uv=False)[-1]
            for lam in modes) / scale)
    return ratios


def _spy_rule(monkeypatch):
    calls = []
    rule = projection._pbh_rank_deficient

    def counting(*args):
        calls.append(args[0].shape)
        return rule(*args)

    monkeypatch.setattr(projection, "_pbh_rank_deficient", counting)
    return calls


def test_rule_rejects_a_pair_the_synthesis_stabilizes():
    # pbh_rel above the control pencil's sigma_min: the synthesis still
    # succeeds (pbh_rel plays no part in it), so only the rule can reject
    # the pair, and it must, after the synthesis
    g, _, pair = _consensus24()
    ratio_u, _ = _pbh_sigma_min_over_scale(g, pair)
    assert synthesize_hierarchical(g, pair).pbh_path == "certificate"
    tight = DEFAULT_TOLERANCES.with_(pbh_rel=2.0 * ratio_u)
    with pytest.raises(HypothesisFailure,
                       match=r"^\(A, B2 P_u\^T\) is not stabilizable$"):
        synthesize_hierarchical(g, pair, tol=tight)


def test_pbh_rel_beyond_the_certificate_runs_the_rule(monkeypatch):
    # pbh_rel between the loop's bound and sigma_min: the certificate
    # cannot pass a side, the rule passes both, and the result is the one
    # the default tolerances give
    g, _, pair = _consensus24()
    base = synthesize_hierarchical(g, pair)
    between = DEFAULT_TOLERANCES.with_(
        pbh_rel=0.75 * min(_pbh_sigma_min_over_scale(g, pair)))
    calls = _spy_rule(monkeypatch)
    res = synthesize_hierarchical(g, pair, tol=between)
    assert res.pbh_path == "rule" and len(calls) == 2
    assert res.h2_value == base.h2_value
    assert np.array_equal(res.x, base.x) and np.array_equal(res.y, base.y)


@pytest.mark.parametrize("backend", [dict(are_backend="exact"),
                                     dict(are_backend="approx", kappa=4,
                                          method="krylov")],
                         ids=["exact", "approx-krylov"])
def test_consensus_syntheses_run_no_pbh_svd(monkeypatch, consensus100,
                                            consensus100_partition, backend):
    g, _ = consensus100
    pair = build_projection(consensus100_partition,
                            WeightVectors.ones(g.n_u, g.n_y))
    calls = _spy_rule(monkeypatch)
    res = synthesize_hierarchical(g, pair, **backend)
    assert res.pbh_path == "certificate" and calls == []


@pytest.mark.parametrize("backend", [
    dict(are_backend="exact"),
    dict(are_backend="approx", kappa=4, method="krylov"),
    dict(are_backend="approx", kappa=4, method="dense")],
    ids=["exact", "approx-krylov", "approx-dense"])
def test_hidden_consensus_mode_fails_the_rule_from_the_synthesis_error(backend):
    g, part, _ = _consensus24()
    hidden = build_projection(part, zero_sum_weights(part))
    failure = _projected_pbh_failure(g, hidden, DEFAULT_TOLERANCES)
    assert failure == "(A, B2 P_u^T) is not stabilizable"
    with pytest.raises(HypothesisFailure) as info:
        synthesize_hierarchical(g, hidden, **backend)
    assert str(info.value) == failure
    assert isinstance(info.value.__cause__, ToolkitError)


def test_failing_pair_outranks_every_later_error():
    # a pair the rule rejects is rejected with the rule's message whether
    # A2 fails too or the backend name is invalid, as when the rule ran first
    g = GeneralizedPlant(
        a=np.diag([-1.0, 1.0]), b1=np.hstack([np.eye(2), np.zeros((2, 2))]),
        b2=np.eye(2), c1=np.vstack([np.eye(2), np.zeros((2, 2))]),
        c2=np.eye(2), d12=np.vstack([np.zeros((2, 2)), np.eye(2)]),
        d21=np.hstack([np.zeros((2, 2)), np.eye(2)]))
    keep0 = ProjectionPair(np.array([[1.0, 0.0]]), np.eye(2))
    no_a2 = GeneralizedPlant(a=g.a, b1=g.b1, b2=g.b2, c1=g.c1, c2=g.c2,
                             d12=0.0 * g.d12, d21=g.d21)
    with pytest.raises(HypothesisFailure, match="A2"):
        synthesize_hierarchical(no_a2, ProjectionPair(np.eye(2), np.eye(2)))
    with pytest.raises(HypothesisFailure, match="not stabilizable"):
        synthesize_hierarchical(no_a2, keep0)
    with pytest.raises(HypothesisFailure, match="not stabilizable"):
        synthesize_hierarchical(g, keep0, are_backend="bogus")
    with pytest.raises(InvalidInput):
        synthesize_hierarchical(g, ProjectionPair(np.eye(2), np.eye(2)),
                                are_backend="bogus")


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


def _diagonal_truncation_plant(poles, weights, b1_weights=None):
    """Decoupled scalar modes with C1 = diag(weights) and B1 = diag(b1_weights)
    (default: `weights`) on the state and process channels and unit B2, C2,
    D12, D21."""
    n = len(poles)
    w = np.diag(weights)
    w1 = w if b1_weights is None else np.diag(b1_weights)
    return GeneralizedPlant(
        a=np.diag(poles),
        b1=np.hstack([w1, np.zeros((n, n))]),
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


def test_approx_backend_names_the_filter_loop():
    # the mirror instance: the control Hamiltonian's smallest retained mode
    # is the unstable one, the filter's is the stable one, so at kappa = 1
    # only the filter loop A + L C2 keeps the unstable mode
    g = _diagonal_truncation_plant([0.3, -2.0], [0.1, 5.0],
                                   b1_weights=[5.0, 0.1])
    pair = ProjectionPair(np.eye(2), np.eye(2))
    with pytest.raises(ApproxNotStabilizing, match="filter loop"):
        synthesize_hierarchical(g, pair, are_backend="approx", kappa=1)


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


@pytest.mark.parametrize("n_s, backends", [
    pytest.param(60, ("exact",), id="60"),
    # approx kappa = 4 Krylov is the benchmark's route, with rank r = 4 < n
    # gain factors
    pytest.param(260, ("exact", "approx"), id="260")])
def test_h2_value_matches_closed_loop_oracle(n_s, backends):
    cfg = ExperimentConfig(seed=7)
    g = cfg.plant(n_s)
    pair = build_projection(cfg.planted_partition(g, n_s),
                            WeightVectors.ones(g.n_u, g.n_y))
    for backend in backends:
        res = synthesize_hierarchical(g, pair, are_backend=backend, kappa=4,
                                      method="krylov")
        closed = lft_lower(g, res.controller.expand())
        assert res.h2_value == pytest.approx(h2_norm(closed), rel=1e-9)
        # the closed loop has a repeated eigenvalue, which a dense
        # eigensolve of the 2n matrix resolves only to about
        # sqrt(machine epsilon)
        assert res.closed_loop_abscissa == pytest.approx(
            spectral_abscissa(closed.a), rel=1e-6)


def _weighted_plant(seed, n=8, nu=4, ny=4):
    """A plant of random_h2_plant's form with non-identity D12'D12 and
    D21 D21' (A2 and A4 still hold exactly)."""
    rng = np.random.default_rng(seed)
    g = random_h2_plant(rng, n, nu, ny)
    m_u = rng.standard_normal((nu, nu)) + 3.0 * np.eye(nu)
    m_y = rng.standard_normal((ny, ny)) + 3.0 * np.eye(ny)
    d12 = np.vstack([np.zeros((n, nu)), m_u])
    d21 = np.hstack([np.zeros((ny, n)), m_y])
    return GeneralizedPlant(a=g.a, b1=g.b1, b2=g.b2, c1=g.c1, c2=g.c2,
                            d12=d12, d21=d21), rng


def test_h2_value_matches_closed_loop_oracle_weighted_plant():
    # non-unit projection weights and non-identity D12'D12, D21 D21': every
    # gain factor of the Schur-coordinate chain carries a non-trivial term
    g, rng = _weighted_plant(31)
    assert not np.allclose(g.d12.T @ g.d12, np.eye(4))
    assert not np.allclose(g.d21 @ g.d21.T, np.eye(4))
    part = ClusterPartition(input_sets=((0, 2), (1, 3)),
                            output_sets=((0, 1), (2, 3)))
    weights = WeightVectors(rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 4))
    pair = build_projection(part, weights)
    results = [synthesize_unconstrained(g), synthesize_hierarchical(g, pair),
               synthesize_hierarchical(g, pair, are_backend="approx",
                                       kappa=g.n, method="dense")]
    for res in results:
        oracle = h2_norm(lft_lower(g, res.controller.expand()))
        assert res.h2_value == pytest.approx(oracle, rel=1e-9)
    # the synthesis keeps its gains factored
    assert results[1].youla.f2 is results[1].f2
    assert np.allclose(results[1].youla.f, pair.p_u.T @ results[1].f2)


def test_h2_chain_of_random_gains_on_an_a4_plant():
    # the chain reads no cross term (A4 is its precondition): on an A4
    # plant with a stable A and non-identity weights D12'D12, D21 D21', the
    # value is the closed-loop H2 norm for random factored gains that are
    # not the optimal ones, and for the same gains unprojected
    rng = np.random.default_rng(33)
    n, nu, ny = 6, 3, 3
    base = random_h2_plant(rng, n, nu, ny)
    m_u = rng.standard_normal((nu, nu)) + 3.0 * np.eye(nu)
    m_y = rng.standard_normal((ny, ny)) + 3.0 * np.eye(ny)
    g = GeneralizedPlant(
        a=random_stable_matrix(rng, n), b1=base.b1, b2=base.b2, c1=base.c1,
        c2=base.c2, d12=base.d12 @ m_u, d21=m_y @ base.d21)
    assert validate_assumptions(g).a4
    pair = build_projection(
        ClusterPartition(input_sets=((0, 2), (1,)), output_sets=((0,), (1, 2))),
        WeightVectors(rng.uniform(0.5, 2.0, nu), rng.uniform(0.5, 2.0, ny)))
    f2 = 0.01 * rng.standard_normal((2, n))
    l2 = 0.01 * rng.standard_normal((n, 2))
    factored = youla_data(g, pair, f2, l2)
    full = youla_data(g, identity_pair(g), factored.f, factored.l)
    oracle = h2_norm(lft_lower(g, factored.controller.expand()))
    for yd in (factored, full):
        value = synthesis._observer_closed_loop_h2(yd, DEFAULT_TOLERANCES)
        assert value == pytest.approx(oracle, rel=1e-9)


def test_h2_chain_residual_contract_can_fail(monkeypatch):
    # lyap_residual = 1e-30 is below rounding: the Schur-coordinate core of
    # the synthesis Gramian chain must refuse its solves
    cfg = ExperimentConfig(seed=7)
    g = cfg.plant(24)
    pair = build_projection(cfg.planted_partition(g, 24),
                            WeightVectors.ones(g.n_u, g.n_y))
    core = _count_calls(monkeypatch, linalg, "solve_sylvester_schur")
    with pytest.raises(NumericalError, match="Sylvester residual"):
        synthesize_hierarchical(g, pair, tol=DEFAULT_TOLERANCES.with_(
            lyap_residual=1e-30))
    assert core["calls"] == 1
    synthesize_hierarchical(g, pair)
    assert core["calls"] == 4


def test_singular_weight_fails_a2():
    rng = np.random.default_rng(8)
    g = random_h2_plant(rng, 3, 2, 2)
    bad = GeneralizedPlant(a=g.a, b1=g.b1, b2=g.b2, c1=g.c1, c2=g.c2,
                           d12=np.zeros_like(g.d12), d21=g.d21)
    with pytest.raises(HypothesisFailure, match="A2"):
        synthesize_unconstrained(bad)


def _without(g, side):
    """`g` with no control input (B2, D12 with zero columns) or with no
    measurement (C2, D21 with zero rows)."""
    if side == "controls":
        return GeneralizedPlant(a=g.a, b1=g.b1, b2=np.zeros((g.n, 0)),
                                c1=g.c1, c2=g.c2, d12=np.zeros((g.p1, 0)),
                                d21=g.d21)
    return GeneralizedPlant(a=g.a, b1=g.b1, b2=g.b2, c1=g.c1,
                            c2=np.zeros((0, g.n)), d12=g.d12,
                            d21=np.zeros((0, g.m1)))


@pytest.mark.parametrize("side", ["controls", "measurements"])
def test_an_empty_weight_fails_a2(side):
    # a stable A, so that the PBH rule passes the identity pair and the
    # synthesis fails on A2 itself; validate_assumptions decides A2 by the
    # same predicate, and a Riccati equation with no input is refused
    rng = np.random.default_rng(9)
    g = random_h2_plant(rng, 4, 2, 2)
    g = GeneralizedPlant(a=random_stable_matrix(rng, 4), b1=g.b1, b2=g.b2,
                         c1=g.c1, c2=g.c2, d12=g.d12, d21=g.d21)
    bad = _without(g, side)
    assert None in bad.weight_minima
    assert not validate_assumptions(bad).a2
    with pytest.raises(HypothesisFailure, match="A2"):
        synthesize_unconstrained(bad)
    with pytest.raises(DimensionMismatch, match="no columns"):
        reference_youla_data(bad)
    hs_args = ((bad.a, bad.b2, bad.c1, np.eye(0)) if side == "controls"
               else (bad.a.T, bad.c2.T, bad.b1.T, np.eye(0)))
    with pytest.raises(DimensionMismatch, match="no columns"):
        hamiltonian.build_hamiltonian(*hs_args)


def test_a2_a4_facts_computed_once_per_plant(monkeypatch):
    g, _ = _weighted_plant(32)
    pair = ProjectionPair(np.eye(4), np.eye(4))
    d12_gram = g.d12.T @ g.d12
    calls = {"eigvalsh": 0, "cross": 0}
    eigvalsh = np.linalg.eigvalsh

    def counting(m, *args, **kw):
        if np.shape(m) == d12_gram.shape and np.array_equal(m, d12_gram):
            calls["eigvalsh"] += 1
        return eigvalsh(m, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for _ in range(2):
        synthesize_hierarchical(g, pair)
    report = validate_assumptions(g)
    assert calls["eigvalsh"] == 1
    assert report.a2 and report.a4
    assert report.details["lambda_min_D12tD12"] == g.weight_minima[0]
    assert report.details["norm_D12tC1"] == g.cross_term_norms[0]


def test_non_self_dual_n100_values_match_the_closed_loop_oracle(
        non_self_dual100):
    # the control and the filter equation differ here (X != Y, P_u != P_y),
    # so the observer separation on the two loop factors checks that each
    # side is built from its own data and its own closed loop
    g, _, _, pair = non_self_dual100
    assert np.linalg.norm(pair.p_u - pair.p_y) > 0.1
    hier = synthesize_hierarchical(g, pair)
    unc = synthesize_unconstrained(g)
    assert np.linalg.norm(hier.x - hier.y) > 0.1 * np.linalg.norm(hier.x)
    for res in (hier, unc):
        oracle = h2_norm(lft_lower(g, res.controller.expand()))
        assert res.h2_value == pytest.approx(oracle, rel=1e-9)
    assert unc.h2_value < hier.h2_value


@pytest.mark.parametrize("backend", [
    {}, {"are_backend": "approx", "kappa": 4, "method": "krylov"},
    {"are_backend": "approx", "kappa": 4, "method": "dense"}],
    ids=["exact", "krylov-4", "dense-4"])
def test_directed_n200_values_match_the_closed_loop_oracle(directed200,
                                                           backend):
    # a non-symmetric A, with complex modes and left eigenvectors that are
    # not the right ones: the Schur-coordinate chain against the 2n-state
    # closed loop of lft_lower
    g, _, pair = directed200
    res = synthesize_hierarchical(g, pair, **backend)
    oracle = h2_norm(lft_lower(g, res.controller.expand()))
    assert res.h2_value == pytest.approx(oracle, rel=1e-9)


def test_exact_synthesis_factors_each_loop_once_in_youla_data(monkeypatch):
    from collections import Counter

    import scipy.linalg
    cfg = ExperimentConfig(seed=7)
    g = cfg.plant(24)
    pair = build_projection(cfg.planted_partition(g, 24),
                            WeightVectors.ones(g.n_u, g.n_y))
    # scipy.linalg.schur calls by form and by whether youla_data made them
    calls, inside = Counter(), []
    schur, make = scipy.linalg.schur, synthesis.youla_data

    def counting(a, *args, **kwargs):
        form = "ordered" if kwargs.get("sort") is not None else "unsorted"
        calls[form, np.shape(a)[0], bool(inside)] += 1
        return schur(a, *args, **kwargs)

    def in_youla_data(*args, **kwargs):
        inside.append(True)
        try:
            return make(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(scipy.linalg, "schur", counting)
    monkeypatch.setattr(synthesis, "youla_data", in_youla_data)
    res = synthesize_hierarchical(g, pair)
    # the two Riccati solves, made by doubling, make no Schur form at all;
    # each loop is factored once, in youla_data
    assert calls == {("unsorted", g.n, True): 2}
    # the loops are those of the gains of the two solutions
    f2 = res.x_solution.hs.gain(res.x)
    l2 = res.y_solution.hs.gain(res.y).T
    assert np.array_equal(res.f2, f2) and np.array_equal(res.l2, l2)
    assert np.array_equal(res.youla.f_loop.a,
                          g.a + (g.b2 @ pair.p_u.T) @ f2)
    assert np.array_equal(res.youla.l_loop.a, g.a + l2 @ (pair.p_y @ g.c2))
    assert res.closed_loop_abscissa == max(res.youla.f_loop.abscissa,
                                           res.youla.l_loop.abscissa)
    # youla_data decides, against the same -hurwitz_margin as every other
    # stability decision, and the exact backend raises its error as it is
    with pytest.raises(NotStabilizingGains,
                       match="the control loop A \\+ B2 F not Hurwitz"):
        synthesize_hierarchical(g, pair, tol=DEFAULT_TOLERANCES.with_(
            hurwitz_margin=1e6))


def _count_calls(monkeypatch, module, name):
    """Wrap `module.name` in every hierh2 namespace that binds it and return
    the call counter."""
    fn = getattr(module, name)
    counter = {"calls": 0}

    def wrapper(*args, **kwargs):
        counter["calls"] += 1
        return fn(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "hierh2" and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, wrapper)
    return counter


@pytest.mark.parametrize("method", ["dense", "krylov"])
def test_approx_synthesis_computes_certificates_on_read(monkeypatch, method):
    cfg = ExperimentConfig(n_s=60, seed=7)
    g = cfg.plant()
    pair = build_projection(cfg.planted_partition(g),
                            WeightVectors.ones(g.n_u, g.n_y))
    tests = _count_calls(monkeypatch, hamiltonian, "stability_test")
    residues = _count_calls(monkeypatch, hamiltonian, "_residue_factor")
    res = synthesize_hierarchical(g, pair, are_backend="approx", kappa=4,
                                  method=method)
    assert tests["calls"] == residues["calls"] == 0
    first = [sol.stabilizing for sol in (res.x_solution, res.y_solution)]
    assert tests["calls"] == residues["calls"] == 2
    again = [sol.stabilizing for sol in (res.x_solution, res.y_solution)]
    assert again == first and tests["calls"] == 2
    for sol in (res.x_solution, res.y_solution):
        assert sol.stabilizing is hamiltonian.stability_test(sol, sol.tol)
        assert (sol.e_kappa_norm is None) is (method == "krylov")


def test_exact_synthesis_solves_from_the_hamiltonian_record(monkeypatch):
    cfg = ExperimentConfig(n_s=60, seed=7)
    g = cfg.plant()
    pair = build_projection(cfg.planted_partition(g),
                            WeightVectors.ones(g.n_u, g.n_y))
    riccati = _count_calls(monkeypatch, linalg, "riccati_from_hamiltonian")
    raw = _count_calls(monkeypatch, linalg, "solve_are")
    synthesize_hierarchical(g, pair)
    assert riccati["calls"] == 2 and raw["calls"] == 0
