import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierh2 import (ClusterPartition, GeneralizedPlant, StateSpace, Subsystem,
                    WeightVectors, build_projection, feasible_weights,
                    subspace_member, verify_qi)
from hierh2.errors import ZeroClusterWeight
from hierh2.projection import _TEST_FREQS, random_stable_statespace

from conftest import random_h2_plant, random_partition


def example1_partition():
    """Four subsystems on a line, two clusters; subsystem 4 has no input."""
    return ClusterPartition(
        input_sets=((0, 1), (2,)),
        output_sets=((0, 1), (2, 3)),
        subsystem_sets=((0, 1), (2, 3)))


def test_build_projection_line_graph_example():
    part = example1_partition()
    w = WeightVectors.ones(3, 4)
    pair = build_projection(part, w)
    s2 = 1 / np.sqrt(2)
    assert np.allclose(pair.p_u, [[s2, s2, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(pair.p_y, [[s2, s2, 0.0, 0.0], [0.0, 0.0, s2, s2]])


def test_build_projection_singletons_identity():
    part = ClusterPartition.singletons(4)
    pair = build_projection(part, WeightVectors.ones(4, 4))
    assert np.allclose(pair.p_u, np.eye(4))
    assert np.allclose(pair.p_y, np.eye(4))


def test_build_projection_rejects_zero_cluster_weight():
    part = example1_partition()
    w = WeightVectors(np.array([0.0, 0.0, 1.0]), np.ones(4))
    with pytest.raises(ZeroClusterWeight):
        build_projection(part, w)


def test_projection_row_orthonormality():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n_u = int(rng.integers(3, 9))
        r = int(rng.integers(1, n_u + 1))
        sets = random_partition(rng, n_u, r)
        part = ClusterPartition(input_sets=sets, output_sets=sets)
        w = WeightVectors(rng.standard_normal(n_u) + 2.0,
                          rng.standard_normal(n_u) + 2.0)
        pair = build_projection(part, w)
        assert np.linalg.norm(pair.p_u @ pair.p_u.T - np.eye(r), "fro") <= 1e-12
        assert np.linalg.norm(pair.p_y @ pair.p_y.T - np.eye(r), "fro") <= 1e-12
        proj = pair.p_u.T @ pair.p_u
        assert np.linalg.norm(proj @ proj - proj, "fro") <= 1e-12
        assert np.linalg.norm(proj - proj.T, "fro") <= 1e-12


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def test_member_static_gain_round_trip():
    part = example1_partition()
    pair = build_projection(part, WeightVectors.ones(3, 4))
    g_tilde = np.array([[1.5, -2.0], [0.3, 0.8]])
    k = StateSpace.static(pair.p_u.T @ g_tilde @ pair.p_y)
    ok, k_tilde = subspace_member(k, pair)
    assert ok
    assert np.allclose(k_tilde.d, g_tilde, atol=1e-12)


def test_member_example1_pattern():
    # the constrained pattern P_u^T [s1 s2; s3 s4] P_y on the line-graph
    # clustering: inputs 1,2 share cluster 1, input 3 is alone in cluster 2
    part = example1_partition()
    pair = build_projection(part, WeightVectors.ones(3, 4))
    s1, s2, s3, s4 = 2.0, -1.0, 0.5, 3.0
    r2 = np.sqrt(2)
    pattern = np.array([
        [s1 / 2, s1 / 2, s2 / 2, s2 / 2],
        [s1 / 2, s1 / 2, s2 / 2, s2 / 2],
        [s3 / r2, s3 / r2, s4 / r2, s4 / r2],
    ])
    ok, k_tilde = subspace_member(StateSpace.static(pattern), pair)
    assert ok
    assert np.allclose(k_tilde.d, [[s1, s2], [s3, s4]], atol=1e-12)


def test_member_rejects_dense_gain():
    rng = np.random.default_rng(13)
    part = example1_partition()
    pair = build_projection(part, WeightVectors.ones(3, 4))
    ok, _ = subspace_member(StateSpace.static(rng.standard_normal((3, 4))), pair)
    assert not ok


def test_member_dynamic_round_trip_randomized():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n_u, n_y = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        r = int(rng.integers(1, min(n_u, n_y) + 1))
        part = ClusterPartition(input_sets=random_partition(rng, n_u, r),
                                output_sets=random_partition(rng, n_y, r))
        w = WeightVectors(rng.uniform(0.5, 2.0, n_u), rng.uniform(0.5, 2.0, n_y))
        pair = build_projection(part, w)
        k_tilde = random_stable_statespace(rng, int(rng.integers(1, 4)), r, r)
        k = StateSpace(k_tilde.a, k_tilde.b @ pair.p_y,
                       pair.p_u.T @ k_tilde.c, pair.p_u.T @ k_tilde.d @ pair.p_y)
        ok, rec = subspace_member(k, pair)
        assert ok
        for w_test in (0.1, 1.0, 10.0):
            ref = k_tilde.eval(1j * w_test)
            assert np.linalg.norm(rec.eval(1j * w_test) - ref) <= 1e-9 * max(1, np.linalg.norm(ref))


# ---------------------------------------------------------------------------
# Quadratic invariance
# ---------------------------------------------------------------------------

def test_qi_holds_structurally():
    rng = np.random.default_rng(33)
    for trial in range(10):
        n, n_u, n_y = 4, int(rng.integers(2, 5)), int(rng.integers(2, 5))
        r = int(rng.integers(1, min(n_u, n_y) + 1))
        part = ClusterPartition(input_sets=random_partition(rng, n_u, r),
                                output_sets=random_partition(rng, n_y, r))
        pair = build_projection(part, WeightVectors(
            rng.uniform(0.5, 2.0, n_u), rng.uniform(0.5, 2.0, n_y)))
        g22 = random_stable_statespace(rng, n, n_y, n_u)
        assert verify_qi(g22, pair, samples=5, rng=rng)


def test_qi_test_discriminates():
    rng = np.random.default_rng(35)
    part = example1_partition()
    pair = build_projection(part, WeightVectors.ones(3, 4))
    dense_k = random_stable_statespace(rng, 3, 3, 4, strictly_proper=False)
    ok, _ = subspace_member(dense_k, pair)
    assert not ok


def test_qi_trivial_for_singletons():
    rng = np.random.default_rng(37)
    part = ClusterPartition.singletons(3)
    pair = build_projection(part, WeightVectors.ones(3, 3))
    g22 = random_stable_statespace(rng, 4, 3, 3)
    assert verify_qi(g22, pair, samples=5, rng=rng)


def _block_diagonal_plant(rng, n_s):
    """Random plant of n_s subsystems with 1-2 states, inputs and outputs
    each: A couples every state, B2 and C2 are block diagonal."""
    subsystems, counts = [], np.zeros(3, int)
    for _ in range(n_s):
        sizes = rng.integers(1, 3, size=3)
        subsystems.append(Subsystem(*(tuple(range(c, c + k))
                                      for c, k in zip(counts, sizes))))
        counts += sizes
    n, nu, ny = (int(c) for c in counts)
    b2, c2 = np.zeros((n, nu)), np.zeros((ny, n))
    for sub in subsystems:
        b2[np.ix_(sub.states, sub.inputs)] = rng.standard_normal(
            (len(sub.states), len(sub.inputs)))
        c2[np.ix_(sub.outputs, sub.states)] = rng.standard_normal(
            (len(sub.outputs), len(sub.states)))
    return GeneralizedPlant(
        a=rng.standard_normal((n, n)),
        b1=np.hstack([np.eye(n), np.zeros((n, ny))]), b2=b2,
        c1=np.vstack([np.eye(n), np.zeros((nu, n))]), c2=c2,
        d12=np.vstack([np.zeros((n, nu)), np.eye(nu)]),
        d21=np.hstack([np.zeros((ny, n)), np.eye(ny)]),
        subsystems=tuple(subsystems))


def _random_clustering(seed, n_s, data):
    """A random block-diagonal plant, a random subsystem partition of it
    and the projection pair of random non-zero weights."""
    rng = np.random.default_rng(seed)
    g = _block_diagonal_plant(rng, n_s)
    r = data.draw(st.integers(1, n_s), label="r")
    part = ClusterPartition.from_subsystems(
        random_partition(rng, n_s, r), g)
    weights = WeightVectors(rng.standard_normal(g.n_u),
                            rng.standard_normal(g.n_y))
    return rng, g, build_projection(part, weights)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n_s=st.integers(2, 6), data=st.data())
def test_property_qi_holds_on_block_diagonal_plants(seed, n_s, data):
    rng, g, pair = _random_clustering(seed, n_s, data)
    assert verify_qi(g.g22(), pair, samples=3, rng=rng)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n_s=st.integers(2, 6), data=st.data())
def test_property_member_round_trip(seed, n_s, data):
    """P_u^T K~ P_y is a member, and the K~ that subspace_member extracts
    gives P_u^T K~ P_y back at every test frequency."""
    rng, g, pair = _random_clustering(seed, n_s, data)
    k_tilde = random_stable_statespace(rng, int(rng.integers(1, 4)), pair.r,
                                       pair.r, strictly_proper=False)
    k = StateSpace(k_tilde.a, k_tilde.b @ pair.p_y, pair.p_u.T @ k_tilde.c,
                   pair.p_u.T @ k_tilde.d @ pair.p_y)
    ok, rec = subspace_member(k, pair)
    assert ok
    assert len(_TEST_FREQS) == 20
    for w in _TEST_FREQS:
        ref = k.eval(1j * w)
        back = pair.p_u.T @ rec.eval(1j * w) @ pair.p_y
        assert np.linalg.norm(back - ref) <= 1e-9 * max(1.0, np.linalg.norm(ref))


# ---------------------------------------------------------------------------
# Weight feasibility
# ---------------------------------------------------------------------------

def test_feasible_weights_hurwitz_returns_ones():
    rng = np.random.default_rng(39)
    g = random_h2_plant(rng, 4, 3, 3)  # stable by construction
    part = ClusterPartition(input_sets=random_partition(rng, 3, 2),
                            output_sets=random_partition(rng, 3, 2))
    w = feasible_weights(g, part, rng=rng)
    assert np.allclose(w.w_u, 1.0)
    assert np.allclose(w.w_y, 1.0)


def test_feasible_weights_consensus_ones(consensus100, consensus100_partition):
    g, _ = consensus100
    w = feasible_weights(g, consensus100_partition, rng=0)
    assert np.allclose(w.w_u, 1.0)
    assert np.allclose(w.w_y, 1.0)


def test_feasible_weights_unstable_diagonal():
    # A = diag(1, -1), B2 = e1: the unstable left eigenvector is e1 and any
    # weight grouping input 1 with non-zero coefficient works
    a = np.diag([1.0, -1.0])
    b2 = np.array([[1.0], [0.0]])
    g = GeneralizedPlant(
        a=a, b1=np.hstack([np.eye(2), np.zeros((2, 2))]), b2=b2,
        c1=np.vstack([np.eye(2), np.zeros((1, 2))]), c2=np.eye(2),
        d12=np.vstack([np.zeros((2, 1)), np.eye(1)]),
        d21=np.hstack([np.zeros((2, 2)), np.eye(2)]))
    part = ClusterPartition(input_sets=((0,),), output_sets=((0, 1),))
    w = feasible_weights(g, part, rng=5)
    assert np.linalg.norm(w.w_u) > 0
    pair = build_projection(part, w)
    from hierh2 import stabilizable, detectable
    assert stabilizable(g.a, g.b2 @ pair.p_u.T)
    assert detectable(g.a, pair.p_y @ g.c2)


def test_feasible_weights_complex_unstable_pair():
    # eigenvalues 0.5 +- 2j and -1; B2 = [b, -b] and C2 = [c; -c], so the
    # all-ones weights cancel both channels and the weights must come from
    # the pulled-back spans B2' V_L and C2 V_R of the unstable pair
    rng = np.random.default_rng(43)
    s = rng.standard_normal((3, 3))
    a = s @ np.array([[0.5, 2.0, 0.0], [-2.0, 0.5, 0.0], [0.0, 0.0, -1.0]]) \
        @ np.linalg.inv(s)
    b, c = rng.standard_normal((3, 1)), rng.standard_normal((1, 3))
    g = GeneralizedPlant(
        a=a, b1=np.hstack([np.eye(3), np.zeros((3, 2))]), b2=np.hstack([b, -b]),
        c1=np.vstack([np.eye(3), np.zeros((2, 3))]), c2=np.vstack([c, -c]),
        d12=np.vstack([np.zeros((3, 2)), np.eye(2)]),
        d21=np.hstack([np.zeros((2, 3)), np.eye(2)]))
    part = ClusterPartition(input_sets=((0, 1),), output_sets=((0, 1),))
    from hierh2 import stabilizable, detectable
    ones = build_projection(part, WeightVectors.ones(2, 2))
    assert not stabilizable(g.a, g.b2 @ ones.p_u.T)
    assert not detectable(g.a, ones.p_y @ g.c2)
    w = feasible_weights(g, part, rng=3)
    pair = build_projection(part, w)
    assert stabilizable(g.a, g.b2 @ pair.p_u.T)
    assert detectable(g.a, pair.p_y @ g.c2)


def test_no_feasible_weights_for_incompatible_partition():
    # two unstable modes but a single actuated state: no weights can make
    # the projected pair stabilizable
    from hierh2.errors import NoFeasibleWeights
    from conftest import random_h2_plant
    a = np.diag([1.0, 2.0])
    g = GeneralizedPlant(
        a=a, b1=np.hstack([np.eye(2), np.zeros((2, 2))]),
        b2=np.array([[1.0], [0.0]]),
        c1=np.vstack([np.eye(2), np.zeros((1, 2))]), c2=np.eye(2),
        d12=np.vstack([np.zeros((2, 1)), np.eye(1)]),
        d21=np.hstack([np.zeros((2, 2)), np.eye(2)]))
    part = ClusterPartition(input_sets=((0,),), output_sets=((0, 1),))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NoFeasibleWeights):
            feasible_weights(g, part, max_tries=10, rng=1)
    # a failed candidate is not a warning: only the error reports it
    assert not [w for w in caught if issubclass(w.category, UserWarning)
                and w.filename.endswith("projection.py")]
