import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy.linalg as sla

from hierh2 import (ExperimentConfig, GeneralizedPlant, NetworkSpec,
                    StateSpace, add, feasible_weights,
                    generate_consensus_network, lft_lower, neg, series,
                    sweep_kappa, synthesize_hierarchical, transpose_dual,
                    validate_assumptions)
from hierh2.errors import DimensionMismatch, DisconnectedIntraBlockWarning
from hierh2.projection import random_stable_statespace

from conftest import random_h2_plant
from oracles import freqresp_formula, lft_generic

FREQS = np.logspace(-2, 2, 20)


def freq_close(g, h, rtol=1e-9, freqs=FREQS):
    for w in freqs:
        gv, hv = g.eval(1j * w), h.eval(1j * w)
        scale = max(1.0, np.linalg.norm(hv))
        if np.linalg.norm(gv - hv) > rtol * scale:
            return False
    return True


# ---------------------------------------------------------------------------
# One spectrum of A per plant
# ---------------------------------------------------------------------------

def test_plant_is_frozen_and_caches_its_spectrum():
    g = random_h2_plant(np.random.default_rng(3), 5, 2, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.a = np.eye(5)
    assert "spectrum" not in vars(g)          # nothing computed at set-up
    assert np.array_equal(g.spectrum, np.linalg.eigvals(g.a))
    assert g.spectrum is g.spectrum


def _count_eigensolves_of(a, monkeypatch) -> Counter:
    """Counts of np.linalg.eigvals and scipy.linalg.eig calls on A or A'."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(m, *args, **kw):
            m = np.asarray(m)
            if m.shape == a.shape and (np.array_equal(m, a)
                                       or np.array_equal(m, a.T)):
                counts[name] += 1
            return fn(m, *args, **kw)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(sla, "eig", counting("eig", sla.eig))
    return counts


def test_one_eigendecomposition_of_a_per_plant(monkeypatch):
    cfg = ExperimentConfig(n_s=60, seed=7)
    counts = _count_eigensolves_of(cfg.plant().a, monkeypatch)
    for method in ("dense", "krylov"):
        counts.clear()
        rows = sweep_kappa(dataclasses.replace(cfg, method=method))
        assert [row["status"] for row in rows] == ["ok"] * 7
        # the plant's spectrum, then the residue stability_test on both
        # sides of the kappa = 1 row (the only row where its inequality
        # holds), which sees a Hamiltonian and no plant
        assert counts == {"eigvals": 3}
    counts.clear()
    validate_assumptions(cfg.plant())
    assert sum(counts.values()) <= 1
    counts.clear()
    g = cfg.plant()
    feasible_weights(g, cfg.planted_partition(g), rng=0)
    # the spectrum, and the one geev call of unstable_eigenbases
    assert counts["eigvals"] <= 1 and counts["eig"] == 1


# ---------------------------------------------------------------------------
# LFT
# ---------------------------------------------------------------------------

def test_lft_zero_g12_returns_g11(consensus100):
    rng = np.random.default_rng(1)
    g = random_h2_plant(rng, 4, 2, 3)
    g0 = GeneralizedPlant(a=g.a, b1=g.b1, b2=g.b2, c1=np.zeros_like(g.c1),
                          c2=g.c2, d12=np.zeros_like(g.d12), d21=g.d21)
    k = random_stable_statespace(rng, 3, g.n_u, g.n_y)
    closed = lft_lower(g0, k)
    g11 = StateSpace(g0.a, g0.b1, g0.c1, np.zeros((g0.p1, g0.m1)))
    assert freq_close(closed, g11, rtol=1e-10)


def test_lft_zero_controller_returns_g11():
    rng = np.random.default_rng(2)
    g = random_h2_plant(rng, 4, 2, 3)
    k = StateSpace.zero(g.n_u, g.n_y)
    closed = lft_lower(g, k)
    g11 = StateSpace(g.a, g.b1, g.c1, np.zeros((g.p1, g.m1)))
    assert freq_close(closed, g11, rtol=1e-10)


def test_lft_matches_pointwise_formula():
    rng = np.random.default_rng(3)
    g = random_h2_plant(rng, 4, 2, 3)
    k = random_stable_statespace(rng, 3, g.n_u, g.n_y, strictly_proper=False)
    closed = lft_lower(g, k)
    for w in FREQS:
        s = 1j * w
        g11 = freqresp_formula(g.a, g.b1, g.c1, np.zeros((g.p1, g.m1)), w)
        g12 = freqresp_formula(g.a, g.b2, g.c1, g.d12, w)
        g21 = freqresp_formula(g.a, g.b1, g.c2, g.d21, w)
        g22 = freqresp_formula(g.a, g.b2, g.c2, np.zeros((g.n_y, g.n_u)), w)
        kv = k.eval(s)
        ref = g11 + g12 @ kv @ np.linalg.solve(np.eye(g.n_y) - g22 @ kv, g21)
        assert np.linalg.norm(closed.eval(s) - ref) <= 1e-9 * max(1, np.linalg.norm(ref))


def test_lft_equals_the_generic_lft(directed200):
    # lft_lower forms the loop from the plant's blocks; the generic LFT of
    # the stacked four-block plant gives the same matrices, bit for bit for
    # a synthesized controller (D_K = 0) and to rounding for a proper one
    g, _, pair = directed200
    k = synthesize_hierarchical(g, pair).controller.expand()
    closed, ref = lft_lower(g, k), lft_generic(g, k)
    for m in "abcd":
        assert np.array_equal(getattr(closed, m), getattr(ref, m)), m
    rng = np.random.default_rng(5)
    g = random_h2_plant(rng, 5, 2, 3)
    k = random_stable_statespace(rng, 3, g.n_u, g.n_y, strictly_proper=False)
    assert np.all(k.d != 0)
    closed, ref = lft_lower(g, k), lft_generic(g, k)
    for m in "abcd":
        diff = np.linalg.norm(getattr(closed, m) - getattr(ref, m))
        assert diff <= 1e-14 * np.linalg.norm(getattr(ref, m)), m


def test_lft_dimension_errors():
    rng = np.random.default_rng(4)
    g = random_h2_plant(rng, 3, 2, 2)
    with pytest.raises(DimensionMismatch):
        lft_lower(g, StateSpace.zero(3, 2))


# ---------------------------------------------------------------------------
# Interconnection algebra
# ---------------------------------------------------------------------------

def test_series_identity_and_add_inverse():
    rng = np.random.default_rng(5)
    g = random_stable_statespace(rng, 3, 2, 2, strictly_proper=False)
    ident = StateSpace.static(np.eye(2))
    assert freq_close(series(g, ident), g, rtol=1e-12)
    assert freq_close(series(ident, g), g, rtol=1e-12)
    zero = add(g, neg(g))
    for w in FREQS:
        assert np.linalg.norm(zero.eval(1j * w)) <= 1e-12


def test_series_matches_pointwise_product():
    rng = np.random.default_rng(6)
    g = random_stable_statespace(rng, 3, 4, 2, strictly_proper=False)
    h = random_stable_statespace(rng, 2, 3, 4, strictly_proper=False)
    prod = series(g, h)  # h(s) g(s)
    for w in FREQS:
        ref = h.eval(1j * w) @ g.eval(1j * w)
        assert np.linalg.norm(prod.eval(1j * w) - ref) <= 1e-9 * max(1, np.linalg.norm(ref))


def test_transpose_dual():
    rng = np.random.default_rng(7)
    g = random_stable_statespace(rng, 3, 2, 4, strictly_proper=False)
    gd = transpose_dual(g)
    for w in FREQS:
        assert np.allclose(gd.eval(1j * w), g.eval(1j * w).T)


# ---------------------------------------------------------------------------
# Assumption validation
# ---------------------------------------------------------------------------

def test_consensus_plant_passes_all_assumptions(consensus100):
    g, _ = consensus100
    report = validate_assumptions(g)
    assert report.a1 and report.a2 and report.a3 and report.a4
    assert report.all_ok


def test_zero_d12_fails_a2():
    rng = np.random.default_rng(8)
    g = random_h2_plant(rng, 3, 2, 2)
    bad = GeneralizedPlant(a=g.a, b1=g.b1, b2=g.b2, c1=g.c1, c2=g.c2,
                           d12=np.zeros_like(g.d12), d21=g.d21)
    report = validate_assumptions(bad)
    assert not report.a2
    assert report.a4  # zero cross terms still hold


def test_uncontrolled_unstable_mode_fails_a1():
    a = np.diag([1.0, -1.0])
    b2 = np.array([[0.0], [1.0]])
    g = GeneralizedPlant(
        a=a, b1=np.hstack([np.eye(2), np.zeros((2, 2))]), b2=b2,
        c1=np.vstack([np.eye(2), np.zeros((1, 2))]), c2=np.eye(2),
        d12=np.vstack([np.zeros((2, 1)), np.eye(1)]),
        d21=np.hstack([np.zeros((2, 2)), np.eye(2)]))
    report = validate_assumptions(g)
    assert not report.a1


def _oscillator_plant(b1a, c1a):
    """Undamped oscillator (modes +-2j) next to a stable mode, with full
    control and measurement; B1a and C1a choose which modes the disturbance
    reaches and the performance output sees."""
    a = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    return GeneralizedPlant(
        a=a, b1=np.hstack([b1a, np.zeros((3, 3))]), b2=np.eye(3),
        c1=np.vstack([c1a, np.zeros((3, 3))]), c2=np.eye(3),
        d12=np.vstack([np.zeros((3, 3)), np.eye(3)]),
        d21=np.hstack([np.zeros((3, 3)), np.eye(3)]))


def test_imaginary_axis_modes_fail_a3():
    assert validate_assumptions(_oscillator_plant(np.eye(3), np.eye(3))).a3
    hidden = np.diag([0.0, 0.0, 1.0])
    for b1a, c1a in ((hidden, np.eye(3)), (np.eye(3), hidden)):
        report = validate_assumptions(_oscillator_plant(b1a, c1a))
        assert report.a1 and report.a2 and report.a4
        assert not report.a3
        assert sorted(report.details["a3_modes"], key=lambda z: z.imag) == \
            pytest.approx([-2j, 2j])


def test_validation_invariant_under_state_permutation():
    rng = np.random.default_rng(9)
    g = random_h2_plant(rng, 5, 2, 3)
    perm = rng.permutation(5)
    p = np.eye(5)[perm]
    gp = GeneralizedPlant(a=p @ g.a @ p.T, b1=p @ g.b1, b2=p @ g.b2,
                          c1=g.c1 @ p.T, c2=g.c2 @ p.T, d12=g.d12, d21=g.d21)
    r0 = validate_assumptions(g)
    r1 = validate_assumptions(gp)
    assert (r0.a1, r0.a2, r0.a3, r0.a4) == (r1.a1, r1.a2, r1.a3, r1.a4)


# ---------------------------------------------------------------------------
# Consensus network generation
# ---------------------------------------------------------------------------

def test_two_node_network_by_hand():
    spec = NetworkSpec.even_blocks(n_s=2, n_blocks=1, p_in=1.0, p_out=0.0,
                                   a_lo=1.0, a_hi=1.0, seed=0)
    g = generate_consensus_network(spec)
    assert np.allclose(g.a, [[-1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(g.b2, np.eye(2))
    assert np.allclose(g.c2, np.eye(2))


def test_consensus_laplacian_structure(consensus100):
    g, _ = consensus100
    a = g.a
    assert np.allclose(a @ np.ones(g.n), 0.0, atol=1e-12)
    assert np.allclose(a, a.T)
    off = a - np.diag(np.diag(a))
    assert off.min() >= 0.0


def test_consensus_coherency_gap():
    spec = NetworkSpec.even_blocks(n_s=100, n_blocks=4, p_in=0.5, p_out=0.01,
                                   a_lo=1.0, a_hi=2.0, seed=7)
    g = generate_consensus_network(spec)
    vals = np.sort(np.linalg.eigvalsh(-g.a))  # Laplacian eigenvalues, ascending
    assert abs(vals[0]) <= 1e-10
    n_zero = np.sum(np.abs(vals) <= 1e-10)
    assert n_zero == 1
    # three more slow modes below p_out * n_s, separated from the bulk
    slow = vals[1:4]
    assert np.all(slow < spec.p_out * spec.n_s * spec.a_hi)
    assert vals[4] > 5.0 * vals[3]


def test_disconnected_blocks_give_kernel_and_warning():
    spec = NetworkSpec.even_blocks(n_s=40, n_blocks=4, p_in=0.9, p_out=0.0,
                                   a_lo=1.0, a_hi=1.0, seed=3)
    g = generate_consensus_network(spec)
    vals = np.linalg.eigvalsh(-g.a)
    assert np.sum(np.abs(vals) <= 1e-10) == 4

    sparse = NetworkSpec.even_blocks(n_s=40, n_blocks=2, p_in=0.02, p_out=0.001,
                                     a_lo=1.0, a_hi=1.0, seed=1)
    with pytest.warns(DisconnectedIntraBlockWarning):
        generate_consensus_network(sparse)


def test_generation_deterministic_given_seed():
    spec = NetworkSpec.even_blocks(n_s=30, n_blocks=3, p_in=0.5, p_out=0.02,
                                   a_lo=0.5, a_hi=1.5, seed=42)
    g1 = generate_consensus_network(spec)
    g2 = generate_consensus_network(spec)
    assert np.array_equal(g1.a, g2.a)
