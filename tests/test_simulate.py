import re

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from hierh2 import (ClusterPartition, ExperimentConfig, GeneralizedPlant,
                    NetworkSpec, StateSpace, WeightVectors, build_projection,
                    communication_links, generate_consensus_network,
                    lft_lower, privacy_audit, run_hier_simulation,
                    solve_lyapunov, synthesize_hierarchical)
from hierh2.errors import (InvalidInput, NumericalError, PreconditionError,
                           ToolkitError, UnstableClosedLoop)
from hierh2.simulate import _BLOCK, _STAGED_MATCH_RTOL, _rk4_transition
from hierh2.synthesis import HierarchicalController

from conftest import random_h2_plant, random_partition
from oracles import per_sample_simulation


def line_graph_plant():
    """Example topology: four subsystems on a line, scalar states, outputs
    everywhere but control only on the first three."""
    lap = np.array([
        [1.0, -1.0, 0.0, 0.0],
        [-1.0, 2.0, -1.0, 0.0],
        [0.0, -1.0, 2.0, -1.0],
        [0.0, 0.0, -1.0, 1.0],
    ])
    a = -lap - 0.1 * np.eye(4)
    b2 = np.zeros((4, 3))
    b2[0, 0] = b2[1, 1] = b2[2, 2] = 1.0
    from hierh2 import Subsystem
    subsystems = (
        Subsystem(states=(0,), inputs=(0,), outputs=(0,)),
        Subsystem(states=(1,), inputs=(1,), outputs=(1,)),
        Subsystem(states=(2,), inputs=(2,), outputs=(2,)),
        Subsystem(states=(3,), inputs=(), outputs=(3,)),
    )
    return GeneralizedPlant(
        a=a,
        b1=np.hstack([np.eye(4), np.zeros((4, 4))]),
        b2=b2,
        c1=np.vstack([np.eye(4), np.zeros((3, 4))]),
        c2=np.eye(4),
        d12=np.vstack([np.zeros((4, 3)), np.eye(3)]),
        d21=np.hstack([np.zeros((4, 4)), np.eye(4)]),
        subsystems=subsystems)


def line_graph_partition():
    return ClusterPartition(
        input_sets=((0, 1), (2,)),
        output_sets=((0, 1), (2, 3)),
        subsystem_sets=((0, 1), (2, 3)))


def test_static_controller_three_step_identity():
    g = line_graph_plant()
    part = line_graph_partition()
    pair = build_projection(part, WeightVectors.ones(3, 4))
    k_tilde = StateSpace.static([[-0.2, 0.1], [0.0, -0.3]])
    controller = HierarchicalController(p_u=pair.p_u, k_tilde=k_tilde,
                                        p_y=pair.p_y)
    res = run_hier_simulation(g, controller, horizon=2.0,
                              disturbance=("noise", 3, 1.0), partition=part)
    gain = pair.p_u.T @ k_tilde.d @ pair.p_y
    for i in range(len(res.times)):
        assert np.allclose(res.u[i], gain @ res.y[i], atol=1e-12)
    assert res.staged_vs_monolithic <= 1e-9
    assert privacy_audit(res.trace)
    assert res.trace.links_used == communication_links(part).hierarchical


def test_zero_disturbance_zero_state():
    g = line_graph_plant()
    part = line_graph_partition()
    pair = build_projection(part, WeightVectors.ones(3, 4))
    res = synthesize_hierarchical(g, pair)
    controller = res.controller
    k = controller.expand()
    closed = lft_lower(g, k)
    # array disturbance of zeros with the right sample count
    absc = float(np.max(np.abs(np.linalg.eigvals(closed.a))))
    dt = 0.05 / absc
    steps = int(np.ceil(1.0 / dt))
    w = np.zeros((steps + 1, g.m1))
    sim = run_hier_simulation(g, controller, horizon=1.0, dt=dt,
                              disturbance=("array", w), partition=part)
    assert np.allclose(sim.x, 0.0)
    assert np.allclose(sim.u, 0.0)
    assert np.allclose(sim.z, 0.0)


def test_dynamic_controller_staged_equals_monolithic():
    g = line_graph_plant()
    part = line_graph_partition()
    pair = build_projection(part, WeightVectors.ones(3, 4))
    res = synthesize_hierarchical(g, pair)
    sim = run_hier_simulation(g, res.controller, horizon=3.0,
                              disturbance=("noise", 11, 0.5), partition=part)
    assert sim.staged_vs_monolithic <= 1e-9
    assert privacy_audit(sim.trace)


def test_impulse_energy_matches_gramian():
    spec = NetworkSpec.even_blocks(n_s=24, n_blocks=3, p_in=0.8, p_out=0.05,
                                   a_lo=2.0, a_hi=3.0, seed=5)
    g = generate_consensus_network(spec)
    part = ClusterPartition.from_subsystems(spec.planted_partition, g)
    pair = build_projection(part, WeightVectors.ones(g.n_u, g.n_y))
    res = synthesize_hierarchical(g, pair)
    closed = lft_lower(g, res.controller.expand())
    # impulse on disturbance channel 0: energy of z equals the (0,0) entry
    # of B' Phi_o B for the observability Gramian of the closed loop
    phi_o = solve_lyapunov(closed.a.T, closed.c.T)
    energy_ref = float((closed.b.T @ phi_o @ closed.b)[0, 0])
    slowest = -max(np.real(np.linalg.eigvals(closed.a)))
    horizon = 14.0 / slowest
    sim = run_hier_simulation(g, res.controller, horizon=horizon,
                              disturbance=("impulse", 0), partition=part)
    dt = sim.times[1] - sim.times[0]
    energy = np.trapezoid(np.einsum("ij,ij->i", sim.z, sim.z), dx=dt)
    assert energy == pytest.approx(energy_ref, rel=2e-2)
    assert sim.staged_vs_monolithic <= 1e-9


def test_unstable_closed_loop_rejected():
    g = line_graph_plant()
    unstable = GeneralizedPlant(
        a=g.a + 2.0 * np.eye(4), b1=g.b1, b2=g.b2, c1=g.c1, c2=g.c2,
        d12=g.d12, d21=g.d21, subsystems=g.subsystems)
    part = line_graph_partition()
    pair = build_projection(part, WeightVectors.ones(3, 4))
    controller = HierarchicalController(
        p_u=pair.p_u, k_tilde=StateSpace.zero(2, 2), p_y=pair.p_y)
    with pytest.raises(UnstableClosedLoop):
        run_hier_simulation(unstable, controller, horizon=1.0,
                            disturbance=("impulse", 0), partition=part)


def test_dt_limit_enforced():
    g = line_graph_plant()
    part = line_graph_partition()
    pair = build_projection(part, WeightVectors.ones(3, 4))
    res = synthesize_hierarchical(g, pair)
    with pytest.raises(PreconditionError):
        run_hier_simulation(g, res.controller, horizon=1.0, dt=10.0,
                            disturbance=("impulse", 0), partition=part)


def test_staged_monolithic_mismatch_is_a_numerical_error(monkeypatch):
    # perturb only the monolithic oracle's B: the staged loop is unchanged,
    # so the two trajectories part and the per-sample check must fire
    import hierh2.simulate
    g = line_graph_plant()
    part = line_graph_partition()
    pair = build_projection(part, WeightVectors.ones(3, 4))
    res = synthesize_hierarchical(g, pair)

    def skewed(plant, k):
        closed = lft_lower(plant, k)
        return StateSpace(closed.a, closed.b + 1e-3, closed.c, closed.d)

    monkeypatch.setattr(hierh2.simulate, "lft_lower", skewed)
    with pytest.raises(NumericalError, match="diverged"):
        run_hier_simulation(g, res.controller, horizon=1.0,
                            disturbance=("noise", 3, 1.0), partition=part)


def test_divergence_guard_trips():
    # a Hurwitz loop driven by a held disturbance of 1e9 leaves the guard
    # (1e6 times the unit initial scale) within the first step
    g = line_graph_plant()
    part = line_graph_partition()
    pair = build_projection(part, WeightVectors.ones(3, 4))
    res = synthesize_hierarchical(g, pair)
    closed = lft_lower(g, res.controller.expand())
    dt = 0.05 / float(np.max(np.abs(np.linalg.eigvals(closed.a))))
    steps = int(np.ceil(1.0 / dt))
    w = np.full((steps + 1, g.m1), 1e9)
    with pytest.raises(UnstableClosedLoop, match="trajectory norm"):
        run_hier_simulation(g, res.controller, horizon=1.0, dt=dt,
                            disturbance=("array", w), partition=part)


@pytest.mark.parametrize("leak", ["p_y", "p_u"])
def test_audits_catch_a_leaky_projection(leak):
    # coordinator 0 reads output 23 (p_y) or writes input 23 (p_u), both in
    # another cluster: the link count rises by one, and a read also fails
    # the privacy audit
    cfg = ExperimentConfig(seed=7)
    g = cfg.plant(24)
    part = cfg.planted_partition(g, 24)
    assert 23 not in part.output_sets[0] and 23 not in part.input_sets[0]
    pair = build_projection(part, WeightVectors.ones(g.n_u, g.n_y))
    ctrl = synthesize_hierarchical(g, pair).controller
    hier_links = communication_links(part).hierarchical
    sim = run_hier_simulation(g, ctrl, horizon=0.2, partition=part)
    assert privacy_audit(sim.trace)
    assert sim.trace.links_used == hier_links
    # every sample uses each subsystem link twice (its output is read, its
    # input written) and each coordinator link once
    for key, count in sim.trace.link_usage.items():
        assert count == (2 if key[0] == "sub" else 1) * len(sim.times), key

    proj = {"p_u": ctrl.p_u.copy(), "p_y": ctrl.p_y.copy()}
    proj[leak][0, 23] += 1e-3
    leaky = HierarchicalController(p_u=proj["p_u"], k_tilde=ctrl.k_tilde,
                                   p_y=proj["p_y"])
    sim = run_hier_simulation(g, leaky, horizon=0.2, partition=part)
    assert sim.staged_vs_monolithic <= 1e-9
    assert sim.trace.links_used == hier_links + 1
    assert privacy_audit(sim.trace) is (leak == "p_u")
    log = sim.trace.coordinator_logs[0]
    seen = log.raw_outputs_seen if leak == "p_y" else log.inputs_written
    assert 23 in seen


def test_privacy_audit_without_a_partition_reads_none():
    # without a partition no cluster is declared, so there is nothing to
    # audit against: the audit reads None, not a vacuous True, even for a
    # coordinator that reads output 23 of another cluster
    cfg = ExperimentConfig(seed=7)
    g = cfg.plant(24)
    part = cfg.planted_partition(g, 24)
    pair = build_projection(part, WeightVectors.ones(g.n_u, g.n_y))
    ctrl = synthesize_hierarchical(g, pair).controller
    p_y = ctrl.p_y.copy()
    p_y[0, 23] += 1e-3
    leaky = HierarchicalController(p_u=ctrl.p_u, k_tilde=ctrl.k_tilde,
                                   p_y=p_y)
    sim = run_hier_simulation(g, leaky, horizon=0.2)
    assert all(log.cluster_outputs is None
               for log in sim.trace.coordinator_logs)
    assert privacy_audit(sim.trace) is None
    sim = run_hier_simulation(g, leaky, horizon=0.2, partition=part)
    assert privacy_audit(sim.trace) is False


def test_audits_catch_a_missing_link():
    # zero both weights of one subsystem inside a cluster: its coordinator
    # neither reads its output nor writes its input, so one link goes
    # unused and links_used falls below the hierarchical count that
    # criterion 09 asserts, while privacy_audit still passes
    cfg = ExperimentConfig(seed=7)
    g = cfg.plant(24)
    part = cfg.planted_partition(g, 24)
    sub = part.subsystem_sets[0][0]
    assert len(part.subsystem_sets[0]) > 1
    w_u, w_y = np.ones(g.n_u), np.ones(g.n_y)
    w_u[list(g.subsystems[sub].inputs)] = 0.0
    w_y[list(g.subsystems[sub].outputs)] = 0.0
    pair = build_projection(part, WeightVectors(w_u, w_y))
    ctrl = synthesize_hierarchical(g, pair).controller
    sim = run_hier_simulation(g, ctrl, horizon=0.2, partition=part)
    assert sim.staged_vs_monolithic <= 1e-9
    assert privacy_audit(sim.trace)
    assert sim.trace.links_used == communication_links(part).hierarchical - 1
    log = sim.trace.coordinator_logs[0]
    assert not set(g.subsystems[sub].outputs) & set(log.raw_outputs_seen)
    assert not set(g.subsystems[sub].inputs) & set(log.inputs_written)


def _rel_dev(a, ref):
    """Largest entry of |a - ref|, relative to max(1, largest |ref|)."""
    return float(np.max(np.abs(a - ref), initial=0.0)) / max(
        1.0, float(np.max(np.abs(ref), initial=0.0)))


def _line_graph_loop():
    g = line_graph_plant()
    part = line_graph_partition()
    pair = build_projection(part, WeightVectors.ones(3, 4))
    ctrl = synthesize_hierarchical(g, pair).controller
    closed = lft_lower(g, ctrl.expand())
    dt = 0.05 / float(np.max(np.abs(np.linalg.eigvals(closed.a))))
    return g, part, ctrl, closed, dt


def _horizon(steps, dt):
    """A horizon that run_hier_simulation splits into exactly ``steps``."""
    return 0.0 if steps == 0 else (steps - 0.5) * dt


@pytest.mark.parametrize("kind", ["impulse", "noise", "array"])
@pytest.mark.parametrize("steps", [0, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   3 * _BLOCK + 5])
def test_blocked_run_matches_the_per_sample_oracle(kind, steps):
    # held products formed per block, z per finished block and the
    # monolithic loop stepped by its transition matrix give the signals of
    # the per-sample route on either side of every block boundary
    g, part, ctrl, closed, dt = _line_graph_loop()
    disturbance = {
        "impulse": ("impulse", 2),
        "noise": ("noise", 5, 0.5),
        "array": ("array", np.random.default_rng(9).standard_normal(
            (steps + 1, g.m1))),
    }[kind]
    sim = run_hier_simulation(g, ctrl, horizon=_horizon(steps, dt), dt=dt,
                              disturbance=disturbance, partition=part)
    ref = per_sample_simulation(g, ctrl, _horizon(steps, dt), dt, disturbance)
    assert len(sim.times) == steps + 1
    for mine, theirs in ((sim.x, ref.x), (sim.xk, ref.xk), (sim.z, ref.z),
                         (sim.u, ref.u)):
        assert _rel_dev(mine, theirs) <= 1e-12
    phi, gamma = _rk4_transition(closed.a, closed.b, dt)
    v_mono = np.empty_like(ref.v_mono)
    v_mono[0] = ref.v_mono[0]
    for k in range(steps):
        v_mono[k + 1] = phi @ v_mono[k] + gamma @ ref.w[k]
    assert _rel_dev(v_mono, ref.v_mono) <= 1e-12
    assert sim.staged_vs_monolithic <= 1e-12


def test_skewed_closed_loop_a_is_a_numerical_error(monkeypatch):
    # perturb only the monolithic loop's A, from which its transition
    # matrix is built; the loop stays Hurwitz and the staged run is
    # unchanged, so the per-sample check must fire
    import hierh2.simulate
    g, part, ctrl, _, _ = _line_graph_loop()

    def skewed(plant, k):
        closed = lft_lower(plant, k)
        return StateSpace(closed.a + 1e-3 * np.eye(closed.n_states),
                          closed.b, closed.c, closed.d)

    monkeypatch.setattr(hierh2.simulate, "lft_lower", skewed)
    with pytest.raises(NumericalError, match="diverged"):
        run_hier_simulation(g, ctrl, horizon=1.0,
                            disturbance=("noise", 3, 1.0), partition=part)


def test_divergence_guard_fires_at_a_sample_past_the_first_block():
    # the disturbance stays zero until it jumps to 1e9 over the step into
    # sample j > _BLOCK: the state is zero up to t_{j-1}, so the guard must
    # fire at t_j, from inside the second block, and not before
    g, part, ctrl, _, dt = _line_graph_loop()
    steps, j = 2 * _BLOCK, _BLOCK + 7
    times = np.arange(steps + 1) * dt
    assert f"{times[j - 1]:.3f}" != f"{times[j]:.3f}"
    w = np.zeros((steps + 1, g.m1))
    w[j - 1:] = 1e9
    with pytest.raises(UnstableClosedLoop,
                       match=re.escape(f"at t={times[j]:.3f}") + "$"):
        run_hier_simulation(g, ctrl, horizon=_horizon(steps, dt), dt=dt,
                            disturbance=("array", w), partition=part)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_disturbance_array_is_rejected(bad):
    # a NaN sample would otherwise give NaN states and a deviation of 0.0
    g, part, ctrl, _, dt = _line_graph_loop()
    steps = 20
    w = np.zeros((steps + 1, g.m1))
    w[5, 0] = bad
    with pytest.raises(InvalidInput, match="finite"):
        run_hier_simulation(g, ctrl, horizon=_horizon(steps, dt), dt=dt,
                            disturbance=("array", w), partition=part)


def test_a_nan_state_fails_the_divergence_guard(monkeypatch):
    # NaN > guard is False, so the guard is written as not (norm <= guard)
    import hierh2.simulate
    g, part, ctrl, _, dt = _line_graph_loop()
    rk4 = hierh2.simulate._rk4

    calls = []

    def poisoned(field, v, k1, step):
        calls.append(step)
        if len(calls) == 6:
            return np.full_like(v, np.nan)
        return rk4(field, v, k1, step)

    monkeypatch.setattr(hierh2.simulate, "_rk4", poisoned)
    with pytest.raises(UnstableClosedLoop, match="trajectory norm"):
        run_hier_simulation(g, ctrl, horizon=_horizon(20, dt), dt=dt,
                            disturbance=("noise", 3, 1.0), partition=part)


def test_a_nan_deviation_fails_the_staged_match(monkeypatch):
    # a NaN in the monolithic run only: the deviation must carry the NaN
    # through the running maximum and fail the 1e-9 test
    import hierh2.simulate
    g, part, ctrl, _, dt = _line_graph_loop()

    def poisoned(a, b, step):
        phi, gamma = _rk4_transition(a, b, step)
        phi[0, 0] = np.nan
        return phi, gamma

    monkeypatch.setattr(hierh2.simulate, "_rk4_transition", poisoned)
    with pytest.raises(NumericalError, match="diverged: nan"):
        run_hier_simulation(g, ctrl, horizon=_horizon(20, dt), dt=dt,
                            disturbance=("noise", 3, 1.0), partition=part)


@pytest.mark.parametrize("kind", ["impulse", "noise"])
def test_non_self_dual_consensus_run_matches_the_per_sample_oracle(kind):
    # c1_scale != b1_scale and distinct non-uniform weights on the inputs
    # and the outputs, so P_u != P_y: a broadcast map built from the read
    # side, (P_y C2)^T in place of B2 P_u^T, shows here, while it passes
    # on the self-dual consensus instances (P_u = P_y, B2 = C2^T)
    spec = NetworkSpec.even_blocks(n_s=100, n_blocks=4, p_in=0.8, p_out=0.01,
                                   a_lo=2.0, a_hi=3.0, seed=7)
    g = generate_consensus_network(spec, c1_scale=10.0, b1_scale=3.0)
    part = ClusterPartition.from_subsystems(spec.planted_partition, g)
    rng = np.random.default_rng(3)
    weights = WeightVectors(rng.uniform(0.5, 2.0, g.n_u),
                            rng.uniform(0.5, 2.0, g.n_y))
    pair = build_projection(part, weights)
    assert np.linalg.norm(pair.p_u - pair.p_y) > 0.1
    ctrl = synthesize_hierarchical(g, pair).controller
    closed = lft_lower(g, ctrl.expand())
    dt = 0.05 / float(np.max(np.abs(np.linalg.eigvals(closed.a))))
    disturbance = {"impulse": ("impulse", 5), "noise": ("noise", 4, 1.0)}[kind]
    horizon = _horizon(40, dt)
    sim = run_hier_simulation(g, ctrl, horizon=horizon, dt=dt,
                              disturbance=disturbance, partition=part)
    ref = per_sample_simulation(g, ctrl, horizon, dt, disturbance)
    assert sim.staged_vs_monolithic <= 1e-12
    for mine, theirs in ((sim.x, ref.x), (sim.xk, ref.xk), (sim.z, ref.z),
                         (sim.u, ref.u)):
        assert _rel_dev(mine, theirs) <= 1e-12


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(2, 6),
       nu=st.integers(1, 3), ny=st.integers(1, 3), data=st.data())
def test_property_staged_run_equals_monolithic_run(seed, n, nu, ny, data):
    """On random A1-A4 plants and partitions, the staged run equals the
    monolithic loop stepped per sample through its field, within the
    tolerance of the run's own check, at step counts across several
    blocks.  Draws whose synthesis raises are rejected."""
    r = data.draw(st.integers(1, min(nu, ny)), label="r")
    steps = data.draw(st.integers(0, 3 * _BLOCK + 5), label="steps")
    rng = np.random.default_rng(seed)
    g = random_h2_plant(rng, n, nu, ny)
    part = ClusterPartition(input_sets=random_partition(rng, nu, r),
                            output_sets=random_partition(rng, ny, r))
    pair = build_projection(part, WeightVectors.ones(nu, ny))
    try:
        ctrl = synthesize_hierarchical(g, pair).controller
    except ToolkitError:
        reject()
    closed = lft_lower(g, ctrl.expand())
    dt = 0.05 / float(np.max(np.abs(np.linalg.eigvals(closed.a))))
    disturbance = ("noise", seed % 1000, 1.0)
    sim = run_hier_simulation(g, ctrl, horizon=_horizon(steps, dt), dt=dt,
                              disturbance=disturbance, partition=part)
    assert sim.staged_vs_monolithic <= _STAGED_MATCH_RTOL
    ref = per_sample_simulation(g, ctrl, _horizon(steps, dt), dt, disturbance)
    dev = np.linalg.norm(np.hstack([sim.x, sim.xk]) - ref.v_mono, axis=1)
    scale = np.maximum(1.0, np.linalg.norm(ref.v_mono, axis=1))
    assert np.max(dev / scale) <= _STAGED_MATCH_RTOL


def test_directed_n200_staged_run_equals_monolithic_run(directed200):
    # the staged schedule against the monolithic loop on a non-symmetric A
    g, part, pair = directed200
    ctrl = synthesize_hierarchical(g, pair).controller
    sim = run_hier_simulation(g, ctrl, horizon=0.2,
                              disturbance=("noise", 7, 1.0), partition=part)
    assert len(sim.times) > 2 * _BLOCK
    assert sim.staged_vs_monolithic <= 1e-9
