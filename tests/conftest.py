import numpy as np
import pytest

from hierh2 import (ClusterPartition, GeneralizedPlant, NetworkSpec,
                    ProjectionPair, WeightVectors, generate_consensus_network)


def identity_pair(g):
    """The projection pair of an unprojected loop on the plant `g`."""
    return ProjectionPair.identity(g.n_u, g.n_y)


def random_stable_matrix(rng, n, margin=0.3):
    a = rng.standard_normal((n, n))
    shift = max(np.real(np.linalg.eigvals(a)).max(), 0.0)
    return a - (shift + margin + rng.uniform(0.0, 1.0)) * np.eye(n)


def random_are_instance(rng, n, m=None, p=None, unstable=False):
    """(A, B, C, R) with (A, B) stabilizable and C'C > 0 generically."""
    m = m or rng.integers(1, n + 1)
    p = p or rng.integers(1, n + 1)
    a = rng.standard_normal((n, n))
    if not unstable:
        a = random_stable_matrix(rng, n)
    b = rng.standard_normal((n, m))
    c = rng.standard_normal((p, n))
    w = rng.standard_normal((m, m))
    r = w @ w.T + m * np.eye(m)
    return a, b, c, r


def random_h2_plant(rng, n, nu, ny, q=None):
    """Generalized plant satisfying A1-A4 by construction.

    Disturbance w = [process; measurement], performance z = [state; control]:
    B1 = [B1a, 0], D21 = [0, I], C1 = [C1a; 0], D12 = [0; I].
    """
    q = q or n
    a = rng.standard_normal((n, n)) - 0.5 * np.eye(n)
    b1a = rng.standard_normal((n, q))
    c1a = rng.standard_normal((q, n))
    b2 = rng.standard_normal((n, nu))
    c2 = rng.standard_normal((ny, n))
    b1 = np.hstack([b1a, np.zeros((n, ny))])
    d21 = np.hstack([np.zeros((ny, q)), np.eye(ny)])
    c1 = np.vstack([c1a, np.zeros((nu, n))])
    d12 = np.vstack([np.zeros((q, nu)), np.eye(nu)])
    return GeneralizedPlant(a=a, b1=b1, b2=b2, c1=c1, c2=c2, d12=d12, d21=d21)


def random_partition(rng, n_items, r):
    """Random partition of 0..n_items-1 into r non-empty sets."""
    perm = rng.permutation(n_items)
    cuts = np.sort(rng.choice(np.arange(1, n_items), size=r - 1, replace=False)) \
        if r > 1 else np.array([], int)
    pieces = np.split(perm, cuts)
    return tuple(tuple(sorted(int(i) for i in piece)) for piece in pieces)


def zero_sum_weights(part):
    """Weights summing to zero within every cluster of `part`, so that P_u
    and P_y hide the consensus mode, whose eigenvector is constant."""
    def one(sets):
        w = np.zeros(sum(len(s) for s in sets))
        for s in sets:
            w[list(s)] = np.arange(len(s)) - (len(s) - 1) / 2.0
        return w
    return WeightVectors(one(part.input_sets), one(part.output_sets))


def square_partition(rng, n, r):
    sets = random_partition(rng, n, r)
    return ClusterPartition(input_sets=sets, output_sets=sets,
                            subsystem_sets=sets)


@pytest.fixture(scope="session")
def consensus100():
    """The canonical 4-block desk-scale instance (n_s=100, seed 7).

    Intra-block coupling is strong enough that the four coherent regulated
    modes sit below the uncontrolled bulk in closed-loop magnitude, which is
    the regime the truncated designs rely on.
    """
    spec = NetworkSpec.even_blocks(n_s=100, n_blocks=4, p_in=0.8, p_out=0.01,
                                   a_lo=2.0, a_hi=3.0, seed=7)
    return generate_consensus_network(spec), spec


@pytest.fixture(scope="session")
def consensus100_partition(consensus100):
    g, spec = consensus100
    return ClusterPartition.from_subsystems(spec.planted_partition, g)


@pytest.fixture(scope="session")
def non_self_dual100():
    """(g, partition, weights, pair) at n_s = 100 on which the control and
    the filter equation differ: c1_scale 10 against b1_scale 3, and
    distinct random input and output weights, so that P_u != P_y.  On the
    self-dual consensus instances X = Y and P_u = P_y, so a slip between
    the two sides cannot show."""
    from hierh2 import WeightVectors, build_projection
    spec = NetworkSpec.even_blocks(n_s=100, n_blocks=4, p_in=0.8, p_out=0.01,
                                   a_lo=2.0, a_hi=3.0, seed=7)
    g = generate_consensus_network(spec, c1_scale=10.0, b1_scale=3.0)
    part = ClusterPartition.from_subsystems(spec.planted_partition, g)
    rng = np.random.default_rng(3)
    weights = WeightVectors(rng.uniform(0.5, 2.0, g.n_u),
                            rng.uniform(0.5, 2.0, g.n_y))
    return g, part, weights, build_projection(part, weights)


@pytest.fixture(scope="session")
def directed200():
    """(g, partition, pair) at n_s = 200 with a non-symmetric A: the
    consensus graph of ``ExperimentConfig(seed=7)`` with each directed edge
    weight scaled by 1 + U(-0.6, 0.6) (seed 1) and A the negated row-sum
    Laplacian, so that 128 modes are complex and ||A - A'||/||A|| = 0.11;
    b1_scale 3, the planted partition and unit weights.  Every other plant
    above n = 29 has a symmetric A."""
    from hierh2 import ExperimentConfig, build_projection
    cfg = ExperimentConfig(seed=7, b1_scale=3.0)
    sym = cfg.plant(200)
    w = sym.a - np.diag(np.diag(sym.a))
    w = w * (1.0 + np.random.default_rng(1).uniform(-0.6, 0.6, w.shape))
    g = GeneralizedPlant(a=w - np.diag(w.sum(axis=1)), b1=sym.b1, b2=sym.b2,
                         c1=sym.c1, c2=sym.c2, d12=sym.d12, d21=sym.d21,
                         subsystems=sym.subsystems)
    part = cfg.planted_partition(g, 200)
    return g, part, build_projection(part, WeightVectors.ones(g.n_u, g.n_y))
