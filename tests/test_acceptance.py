"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one PASS line on success (visible with pytest -s / -rA);
a failure reads as the criterion number in the pytest summary.  The desk
instance is the seeded 4-block consensus network from conftest.
"""

import time
import warnings

import numpy as np
import pytest

from hierh2 import (ClusterPartition, ExperimentConfig, WeightVectors,
                    approx_are, build_hamiltonian, build_projection,
                    communication_links, design_clusters, error_bound,
                    evaluate_partition, exact_error_norm, privacy_audit,
                    reference_youla_data, run_hier_simulation, solve_are,
                    spectral_abscissa, spectral_factors, sweep_kappa,
                    sweep_r, sweep_size, synthesize_hierarchical,
                    synthesize_unconstrained, verify_qi)
from hierh2.errors import ConjugatePairSplitWarning
from hierh2.gapdesign import doubly_projected_controller
from hierh2.projection import random_stable_statespace

from conftest import random_are_instance, random_h2_plant, random_partition
from oracles import are_sign_iteration
from test_simulate import line_graph_plant, line_graph_partition


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_riccati_sign_oracle():
    """100 seeded stabilizable plants (n <= 8): solve_are vs sign iteration
    to 1e-7 Frobenius-relative, under 30 s total."""
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    for trial in range(100):
        n = int(rng.integers(2, 9))
        a, b, c, r = random_are_instance(rng, n, unstable=bool(rng.integers(2)))
        x = solve_are(a, b, c, r).x
        x_ref = are_sign_iteration(a, b, c, r)
        rel = np.linalg.norm(x - x_ref, "fro") / max(1.0, np.linalg.norm(x_ref, "fro"))
        assert rel <= 1e-7, f"trial {trial}: relative error {rel:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(1, f"100 oracle matches in {elapsed:.1f} s")


def test_criterion_02_identity_projection_collapse():
    """Singleton clusters + unit weights: hierarchical equals unconstrained
    to 1e-8 relative; gap report gives xi = 0 and ratio 1 +/- 1e-6."""
    rng = np.random.default_rng(1002)
    for trial in range(3):
        g = random_h2_plant(rng, int(rng.integers(4, 8)), 4, 4)
        part = ClusterPartition.singletons(4)
        pair = build_projection(part, WeightVectors.ones(4, 4))
        hier = synthesize_hierarchical(g, pair)
        unc = synthesize_unconstrained(g)
        assert hier.h2_value == pytest.approx(unc.h2_value, rel=1e-8)
        report = evaluate_partition(g, part)
        assert report.xi_u == pytest.approx(0.0, abs=1e-12)
        assert report.xi_y == pytest.approx(0.0, abs=1e-12)
        assert report.ratio == pytest.approx(1.0, abs=1e-6)
    _report(2, "identity projections collapse to the unconstrained design")


def _bound_instances(seed, count, n_max, max_rejects=15):
    """Seeded random ARE instances; draws on which the solvers refuse to
    certify their contracts (singular truncation pencil, unattainable
    residual) are redrawn deterministically."""
    from hierh2.errors import NumericalError
    rng = np.random.default_rng(seed)
    accepted = rejected = 0
    while accepted < count:
        n = int(rng.integers(3, n_max + 1))
        a, b, c, r = random_are_instance(rng, n)
        b1 = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        try:
            hs = build_hamiltonian(a, b, c, r)
            solve_are(a, b, c, r)
            for kappa in range(1, n + 1):
                approx_are(hs, kappa=kappa)
        except NumericalError:
            rejected += 1
            assert rejected <= max_rejects, "instance generation degenerated"
            continue
        accepted += 1
        yield a, b, c, r, b1


def test_criterion_03_truncation_error_bound():
    """50 instances (n <= 30), every kappa: exact weighted error within
    eps * ||E_k||_F + 1e-8, and the eigenbasis Gramian identity to 1e-8."""
    from hierh2 import cauchy_coefficients, solve_lyapunov
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConjugatePairSplitWarning)
        for a, b, c, r, b1 in _bound_instances(1003, 50, 30):
            n = a.shape[0]
            hs = build_hamiltonian(a, b, c, r)
            x = solve_are(a, b, c, r).x
            full = hs.full_subspace()
            coeffs = cauchy_coefficients(full, b1)
            lhs = full.z1 @ coeffs @ full.z1.T
            x_sub = full.z2 @ np.linalg.inv(full.z1)
            rhs = solve_lyapunov(a - hs.m @ x_sub, b1)
            assert np.linalg.norm(lhs - rhs, "fro") <= \
                1e-8 * max(1.0, np.linalg.norm(rhs, "fro"))
            for kappa in range(1, n + 1):
                sol = approx_are(hs, kappa=kappa)
                eps, bound = error_bound(sol, b1)
                err = exact_error_norm(x, sol.xbar, a, hs.m, b1)
                assert err <= bound + 1e-8, \
                    f"n={n} kappa={kappa}: {err:.3e} > {bound:.3e}"
                checked += 1
    _report(3, f"error bound held on {checked} truncations")


def test_criterion_04_residue_and_stability_test():
    """Xbar <= X + 1e-8 I for all kappa; residue identity to
    1e-7 * max(1, ||C1'C1||_F); stability_test true implies A - M Xbar
    Hurwitz."""
    true_tests = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConjugatePairSplitWarning)
        for a, b, c, r, _ in _bound_instances(1004, 50, 30):
            n = a.shape[0]
            hs = build_hamiltonian(a, b, c, r)
            x = solve_are(a, b, c, r).x
            ctc_scale = max(1.0, np.linalg.norm(c.T @ c, "fro"))
            for kappa in range(1, n + 1):
                sol = approx_are(hs, kappa=kappa)
                assert np.linalg.eigvalsh(x - sol.xbar + 1e-8 * np.eye(n)).min() >= 0.0
                resid = (a.T @ sol.xbar + sol.xbar @ a + c.T @ c
                         - sol.xbar @ hs.m @ sol.xbar)
                cbar = sol.residue_factor
                assert np.linalg.norm(resid - cbar.T @ cbar, "fro") <= 1e-7 * ctc_scale
                if sol.stabilizing:
                    true_tests += 1
                    assert spectral_abscissa(a - hs.m @ sol.xbar) < 0.0
    assert true_tests > 0
    _report(4, f"residue identity and {true_tests} positive stability tests verified")


def test_criterion_05_gap_bound():
    """Gap bound on 50 seeded (plant, partition) pairs,
    n <= 10: J2*^2 <= J1*^2 + 2 xi J1* + xi^2 + 1e-6."""
    from hierh2.errors import NumericalError
    rng = np.random.default_rng(1005)
    accepted = rejected = 0
    while accepted < 50:
        n = int(rng.integers(3, 11))
        nu = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        g = random_h2_plant(rng, n, nu, ny)
        r = int(rng.integers(1, min(nu, ny) + 1))
        part = ClusterPartition(input_sets=random_partition(rng, nu, r),
                                output_sets=random_partition(rng, ny, r))
        try:
            rep = evaluate_partition(g, part)
        except NumericalError:
            rejected += 1
            assert rejected <= 15, "instance generation degenerated"
            continue
        accepted += 1
        lhs = rep.j2_star ** 2
        rhs = rep.j1_star ** 2 + 2 * rep.xi * rep.j1_star + rep.xi ** 2
        assert lhs <= rhs + 1e-6, f"pair {accepted}: {lhs:.6e} > {rhs:.6e}"
        assert rep.j1_star <= rep.j2_star + 1e-8
    _report(5, f"gap bound held on 50 pairs ({rejected} redraws)")


def test_criterion_06_kappa_sweep_trend(consensus100):
    """Desk-scale truncation sweep: h2 ratio non-increasing and <= 1.02 for
    kappa >= 4; full sweep under 120 s."""
    config = ExperimentConfig(kappa_list=(1, 2, 3, 4, 5, 6), method="dense")
    t0 = time.perf_counter()
    rows = sweep_kappa(config)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    approx_rows = [r for r in rows if r["kappa"] != "exact"]
    assert all(r["status"] == "ok" for r in approx_rows)
    ratios = [r["h2_ratio"] for r in approx_rows]
    assert all(ratios[i + 1] <= ratios[i] + 1e-9 for i in range(len(ratios) - 1))
    for r in approx_rows:
        if r["kappa"] >= 4:
            assert r["h2_ratio"] <= 1.02
    _report(6, f"kappa sweep trend reproduced in {elapsed:.1f} s "
               f"(ratios {[round(x, 4) for x in ratios]})")


def test_criterion_07_r_sweep_trend(consensus100):
    """Designed-clustering sweep r = 1..6: ratio weakly decreasing (1e-3
    slack), <= 1.05 at r = 4; planted recovery in >= 90% of 20 seeds."""
    g, spec = consensus100
    config = ExperimentConfig(r_list=(1, 2, 3, 4, 5, 6), restarts=10)
    rows = sweep_r(config)
    assert all(r["status"] == "ok" for r in rows)
    ratios = [r["ratio"] for r in rows]
    assert all(ratios[i + 1] <= ratios[i] + 1e-3 for i in range(len(ratios) - 1))
    at4 = next(r for r in rows if r["r"] == 4)
    assert at4["ratio"] <= 1.05
    assert all(r["bound_rhs"] >= r["J2"] - 1e-6 for r in rows)

    yd = reference_youla_data(g)
    sf = spectral_factors(yd, g.d12, g.d21)
    weights = WeightVectors.ones(g.n_u, g.n_y)
    planted = set(frozenset(b) for b in spec.planted_partition)
    hits = 0
    for seed in range(20):
        part = design_clusters(sf, weights, 4, rng=seed, restarts=10)
        hits += set(frozenset(s) for s in part.input_sets) == planted
    assert hits >= 18, f"planted recovery only {hits}/20"
    _report(7, f"r sweep trend reproduced (ratios {[round(x, 4) for x in ratios]}, "
               f"recovery {hits}/20)")


def test_criterion_08_size_sweep_scaling():
    """n in {100..1600} at kappa = 4: approx-path log-log slope < 2 and
    strictly faster than exact for n >= 400."""
    config = ExperimentConfig(n_list=(100, 200, 400, 800, 1600), kappa=4,
                              method="krylov")
    rows = sweep_size(config)
    assert all(r["status"] == "ok" for r in rows)
    ns = np.array([r["n"] for r in rows], float)
    t_approx = np.array([r["time_approx_s"] for r in rows], float)
    slope = np.polyfit(np.log(ns), np.log(t_approx), 1)[0]
    assert slope < 2.0, f"approx-path slope {slope:.2f}"
    for r in rows:
        if r["n"] >= 400 and r["time_exact_s"] is not None:
            assert r["time_approx_s"] < r["time_exact_s"]
    _report(8, f"size sweep slope {slope:.2f}; approx faster from n = 400")


def test_criterion_09_hierarchy_semantics(consensus100, consensus100_partition):
    """Staged three-step execution equals the monolithic LFT simulation to
    1e-9 on the line-graph and 100-node instances; privacy audit passes and
    the link count is n_s + r(r-1)/2."""
    g4 = line_graph_plant()
    part4 = line_graph_partition()
    pair4 = build_projection(part4, WeightVectors.ones(3, 4))
    res4 = synthesize_hierarchical(g4, pair4)
    sim4 = run_hier_simulation(g4, res4.controller, horizon=2.0,
                               disturbance=("noise", 9, 1.0), partition=part4)
    assert sim4.staged_vs_monolithic <= 1e-9
    assert privacy_audit(sim4.trace)
    assert sim4.trace.links_used == communication_links(part4).hierarchical

    g, _ = consensus100
    part = consensus100_partition
    pair = build_projection(part, WeightVectors.ones(g.n_u, g.n_y))
    res = synthesize_hierarchical(g, pair)
    sim = run_hier_simulation(g, res.controller, horizon=0.5,
                              disturbance=("impulse", 0), partition=part)
    assert sim.staged_vs_monolithic <= 1e-9
    assert privacy_audit(sim.trace)
    assert sim.trace.links_used == communication_links(part).hierarchical
    _report(9, "staged execution matches the monolithic loop to 1e-9")


def test_criterion_10_qi_and_equivalence():
    """verify_qi on 50 random (plant, projection) pairs and the
    doubly-projected equivalence controller matching to 1e-7."""
    rng = np.random.default_rng(1010)
    for trial in range(50):
        n = int(rng.integers(2, 6))
        nu = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        r = int(rng.integers(1, min(nu, ny) + 1))
        part = ClusterPartition(input_sets=random_partition(rng, nu, r),
                                output_sets=random_partition(rng, ny, r))
        pair = build_projection(part, WeightVectors(
            rng.uniform(0.5, 2.0, nu), rng.uniform(0.5, 2.0, ny)))
        g22 = random_stable_statespace(rng, n, ny, nu)
        assert verify_qi(g22, pair, samples=3, rng=rng), f"trial {trial}"

    for trial in range(20):
        n = int(rng.integers(3, 7))
        nu = int(rng.integers(2, 5))
        g = random_h2_plant(rng, n, nu, nu)
        r = int(rng.integers(1, nu + 1))
        sets = random_partition(rng, nu, r)
        part = ClusterPartition(input_sets=sets, output_sets=sets)
        pair = build_projection(part, WeightVectors.ones(nu, nu))
        hier = synthesize_hierarchical(g, pair)
        k_opt = hier.controller.expand()
        k_equiv = doubly_projected_controller(g, pair).controller.expand()
        for w in np.logspace(-2, 2, 10):
            ref = k_opt.eval(1j * w)
            err = np.linalg.norm(k_equiv.eval(1j * w) - ref)
            assert err <= 1e-7 * max(1.0, np.linalg.norm(ref)), \
                f"trial {trial}: {err:.3e} at w={w}"
    _report(10, "QI verified on 50 pairs; equivalence controller matched on 20")
