import csv
import json

import numpy as np
import pytest

from hierh2 import (ClusterPartition, ExperimentConfig, NetworkSpec,
                    WeightVectors, generate_consensus_network, sweep_kappa,
                    sweep_r, sweep_size)
from hierh2.cli import main
from hierh2.serialize import (load_controller, load_partition, load_plant,
                              save_controller, save_partition, save_plant)
from hierh2.synthesis import HierarchicalController, synthesize_hierarchical
from hierh2.projection import build_projection


def small_config(**kw):
    # dense complete blocks keep the coherency gap clean at small sizes
    base = dict(n_s=48, n_blocks=4, p_in=1.0, p_out=0.02, a_lo=3.0, a_hi=4.0,
                seed=7, kappa_list=(1, 2, 4), r_list=(1, 2, 4),
                n_list=(24, 48), kappa=4, method="dense", restarts=5)
    base.update(kw)
    return ExperimentConfig(**base)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_sweep_kappa_rows(tmp_path):
    rows = sweep_kappa(small_config(), tmp_path)
    table = read_csv(tmp_path / "kappa_sweep.csv")
    assert [r["kappa"] for r in table] == ["exact", "1", "2", "4"]
    assert table[0]["status"] == "ok"
    # truncations below the block count may legitimately fail to stabilize
    # (recorded per row); the block-count truncation must succeed
    ok = [r for r in table[1:] if r["status"] == "ok"]
    assert any(r["kappa"] == "4" for r in ok)
    ratios = [float(r["h2_ratio"]) for r in ok]
    assert all(ratios[i + 1] <= ratios[i] + 1e-9 for i in range(len(ratios) - 1))
    assert ratios[-1] <= 1.02
    # epsilon bound column is populated on the dense path
    assert all(r["epsilon_bound"] != "" for r in ok)


def test_sweep_kappa_deterministic_modulo_timing(tmp_path):
    cfg = small_config()
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    sweep_kappa(cfg, a_dir)
    sweep_kappa(cfg, b_dir)

    def strip_timing(path):
        rows = read_csv(path)
        for r in rows:
            r.pop("solve_time_s")
        return rows

    assert strip_timing(a_dir / "kappa_sweep.csv") == \
        strip_timing(b_dir / "kappa_sweep.csv")


def test_sweep_size_columns(tmp_path):
    rows = sweep_size(small_config(), tmp_path)
    table = read_csv(tmp_path / "size_sweep.csv")
    assert [int(r["n"]) for r in table] == [24, 48]
    for r in table:
        assert r["status"] == "ok"
        assert float(r["time_approx_s"]) > 0
        assert float(r["h2_exact"]) > 0
        # approximation at the planted block count matches closely
        assert float(r["h2_approx"]) <= 1.02 * float(r["h2_exact"])


def test_sweep_r_rows(tmp_path):
    rows = sweep_r(small_config(), tmp_path)
    table = read_csv(tmp_path / "r_sweep.csv")
    assert [int(r["r"]) for r in table] == [1, 2, 4]
    ratios = [float(r["ratio"]) for r in table]
    assert all(rt >= 1.0 - 1e-9 for rt in ratios)
    assert ratios[-1] <= ratios[0] + 1e-3
    for r in table:
        assert float(r["bound_rhs"]) >= float(r["J2"]) - 1e-6
    assert table[-1]["partition_recovery"] in ("True", "False")


def test_sweep_r_solves_the_unconstrained_pair_once(monkeypatch):
    # J1* and the embeddings do not depend on r: one synthesis per plant
    from hierh2 import gapdesign, synthesis
    calls = []
    unconstrained = synthesis.synthesize_unconstrained

    def counting(*args, **kw):
        calls.append(1)
        return unconstrained(*args, **kw)

    for mod in (synthesis, gapdesign):
        monkeypatch.setattr(mod, "synthesize_unconstrained", counting)
    rows = sweep_r(small_config())
    assert len(rows) == 3 and all(r["status"] == "ok" for r in rows)
    assert len(calls) == 1


def test_sweep_r_records_a_failing_row(tmp_path, monkeypatch):
    from hierh2 import gapdesign, sweeps
    from hierh2.errors import DegenerateData
    design = gapdesign.design_clusters

    def failing_at_2(sf, weights, r, *args, **kw):
        if r == 2:
            raise DegenerateData("no clustering at r = 2")
        return design(sf, weights, r, *args, **kw)

    returned = []

    def recording(*args, **kw):
        returned.extend(gapdesign.monotone_gap_sweep(*args, **kw))
        return returned

    monkeypatch.setattr(gapdesign, "design_clusters", failing_at_2)
    monkeypatch.setattr(sweeps, "monotone_gap_sweep", recording)
    sweep_r(small_config(), tmp_path)
    table = read_csv(tmp_path / "r_sweep.csv")
    assert [r["r"] for r in table] == ["1", "2", "4"]
    assert [r["status"] for r in table[::2]] == ["ok", "ok"]
    assert table[1]["status"] == "error: no clustering at r = 2"
    assert all(table[1][k] == "" for k in ("J1", "J2", "ratio", "bound_rhs"))
    assert [row.r for row in returned] == [1, 2, 4]
    failed = returned[1]
    assert isinstance(failed.error, DegenerateData)
    assert failed.report is None and failed.partition is None
    assert all(row.error is None and row.report is not None
               for row in returned[::2])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_plant_round_trip(tmp_path):
    spec = NetworkSpec.even_blocks(n_s=12, n_blocks=3, p_in=0.9, p_out=0.05,
                                   a_lo=1.0, a_hi=2.0, seed=2)
    g = generate_consensus_network(spec)
    path = tmp_path / "plant.json"
    save_plant(g, path)
    g2 = load_plant(path)
    assert np.array_equal(g.a, g2.a)
    assert np.array_equal(g.b1, g2.b1)
    assert g2.subsystems == g.subsystems

    save_plant(g, tmp_path / "plant_mm.json", matrix_format="mm")
    g3 = load_plant(tmp_path / "plant_mm.json")
    assert np.allclose(g.a, g3.a)


def test_partition_and_controller_round_trip(tmp_path):
    spec = NetworkSpec.even_blocks(n_s=12, n_blocks=3, p_in=0.9, p_out=0.05,
                                   a_lo=1.0, a_hi=2.0, seed=2)
    g = generate_consensus_network(spec)
    part = ClusterPartition.from_subsystems(spec.planted_partition, g)
    w = WeightVectors.ones(g.n_u, g.n_y)
    save_partition(part, tmp_path / "part.json", w)
    part2, w2 = load_partition(tmp_path / "part.json")
    assert part2 == part
    assert np.array_equal(w2.w_u, w.w_u)

    pair = build_projection(part, w)
    res = synthesize_hierarchical(g, pair)
    save_controller(res.controller, tmp_path / "ctl.json")
    ctl = load_controller(tmp_path / "ctl.json")
    assert np.allclose(ctl.k_tilde.a, res.controller.k_tilde.a)
    assert np.allclose(ctl.p_u, res.controller.p_u)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["gen-network", "--nodes", "24", "--blocks", "3",
               "--p-in", "0.9", "--p-out", "0.04", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    plant_path = out / "plant.json"
    part_path = out / "planted_partition.json"
    assert plant_path.exists() and part_path.exists()
    assert (out / "manifest.json").exists()

    # deterministic regeneration: identical bytes
    out2 = tmp_path / "run2"
    main(["gen-network", "--nodes", "24", "--blocks", "3", "--p-in", "0.9",
          "--p-out", "0.04", "--seed", "7", "--out", str(out2)])
    assert (out2 / "plant.json").read_bytes() == plant_path.read_bytes()

    rc = main(["validate", "--plant", str(plant_path), "--out", str(out)])
    assert rc == 0
    assert "all: pass" in capsys.readouterr().out

    rc = main(["synth", "--plant", str(plant_path), "--partition",
               str(part_path), "--out", str(out)])
    assert rc == 0
    ctl_path = out / "controller.json"
    assert ctl_path.exists()

    simulate = ["simulate", "--plant", str(plant_path), "--controller",
                str(ctl_path), "--horizon", "0.5", "--out", str(out)]
    rc = main(simulate + ["--partition", str(part_path)])
    assert rc == 0
    sim_report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sim_report["privacy_audit"] is True
    assert sim_report["staged_vs_monolithic"] <= 1e-9
    assert (out / "trace.jsonl").exists()
    # without a partition there is no declared cluster to audit against
    assert main(simulate) == 0
    sim_report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sim_report["privacy_audit"] is None

    rc = main(["gap", "--plant", str(plant_path), "--partition",
               str(part_path), "--out", str(out)])
    assert rc == 0
    gap = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert gap["bound_rhs"] >= gap["J2"] - 1e-6
    assert gap["h2_equivalence"] == pytest.approx(gap["J2"], rel=1e-6)

    rc = main(["design-clusters", "--plant", str(plant_path), "--r", "3",
               "--seed", "0", "--out", str(out)])
    assert rc == 0

    rc = main(["approx", "--plant", str(plant_path), "--partition",
               str(part_path), "--kappa", "3", "--out", str(out)])
    assert rc == 0


def test_cli_simulate_audits_against_the_partition(tmp_path, capsys):
    # coordinator 0 of a saved controller reads output 23, which lies in
    # another cluster: `simulate --partition` must report the leak, and a
    # partition with another cluster count is a precondition failure
    cfg = ExperimentConfig(seed=7)
    g = cfg.plant(24)
    part = cfg.planted_partition(g, 24)
    assert 23 not in part.output_sets[0]
    pair = build_projection(part, WeightVectors.ones(g.n_u, g.n_y))
    ctrl = synthesize_hierarchical(g, pair).controller
    p_y = ctrl.p_y.copy()
    p_y[0, 23] += 1e-3
    save_plant(g, tmp_path / "plant.json")
    save_partition(part, tmp_path / "part.json")
    save_controller(HierarchicalController(p_u=ctrl.p_u, k_tilde=ctrl.k_tilde,
                                           p_y=p_y), tmp_path / "leaky.json")
    simulate = ["simulate", "--plant", str(tmp_path / "plant.json"),
                "--controller", str(tmp_path / "leaky.json"),
                "--horizon", "0.2", "--out", str(tmp_path)]
    assert main(simulate + ["--partition", str(tmp_path / "part.json")]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["privacy_audit"] is False
    assert report["staged_vs_monolithic"] <= 1e-9
    merged = ClusterPartition(input_sets=(tuple(range(g.n_u)),),
                              output_sets=(tuple(range(g.n_y)),))
    save_partition(merged, tmp_path / "merged.json")
    assert main(simulate + ["--partition", str(tmp_path / "merged.json")]) == 2
    assert "partition has r=1" in capsys.readouterr().err


def test_cli_sweep_r_small(tmp_path):
    cfg = dict(n_s=24, n_blocks=3, p_in=0.9, p_out=0.04, seed=7,
               r_list=[1, 3], restarts=5, method="dense")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep"
    rc = main(["sweep-r", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert (out / "r_sweep.csv").exists()
    assert (out / "manifest.json").exists()


def test_cli_exit_codes(tmp_path, capsys):
    # precondition failure: zero D12 violates A2 -> exit 2
    spec = NetworkSpec.even_blocks(n_s=8, n_blocks=2, p_in=0.9, p_out=0.05,
                                   a_lo=1.0, a_hi=2.0, seed=2)
    g = generate_consensus_network(spec)
    from hierh2 import GeneralizedPlant
    bad = GeneralizedPlant(a=g.a, b1=g.b1, b2=g.b2, c1=g.c1, c2=g.c2,
                           d12=0.0 * g.d12, d21=g.d21, subsystems=g.subsystems)
    save_plant(bad, tmp_path / "bad.json")
    part = ClusterPartition.from_subsystems(spec.planted_partition, g)
    save_partition(part, tmp_path / "part.json")
    rc = main(["synth", "--plant", str(tmp_path / "bad.json"), "--partition",
               str(tmp_path / "part.json"), "--out", str(tmp_path)])
    assert rc == 2
    assert "precondition" in capsys.readouterr().err
    # validate reports the failed assumption and exits 2 as well
    rc = main(["validate", "--plant", str(tmp_path / "bad.json"),
               "--out", str(tmp_path)])
    assert rc == 2
    out = capsys.readouterr().out
    assert "A2: FAIL" in out and "all: FAIL" in out.splitlines()
    # a malformed --backend or --disturbance string is a usage error
    save_plant(g, tmp_path / "plant.json")
    synth = ["synth", "--plant", str(tmp_path / "plant.json"), "--partition",
             str(tmp_path / "part.json"), "--out", str(tmp_path)]
    simulate = ["simulate", "--plant", str(tmp_path / "plant.json"),
                "--controller", str(tmp_path / "controller.json"),
                "--out", str(tmp_path)]
    for argv in (synth + ["--backend", "approx"],
                 synth + ["--backend", "approx:x"],
                 synth + ["--backend", "bogus"],
                 simulate + ["--disturbance", "impulse:x"],
                 simulate + ["--disturbance", "bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "expected" in capsys.readouterr().err
    # an impulse on a channel the plant lacks is a precondition failure
    assert main(synth) == 0
    assert main(simulate + ["--disturbance", "impulse:999"]) == 2
    assert "impulse channel 999" in capsys.readouterr().err
    # a step above the resolution limit, not positive or not finite, and a
    # negative horizon, are precondition failures too
    for flags in (["--dt", "10"], ["--dt", "0"], ["--dt", "nan"],
                  ["--horizon", "-1"], ["--dt", "-1"]):
        assert main(simulate + flags) == 2, flags
        assert "precondition" in capsys.readouterr().err


def test_cli_eigenspan_weights_use_the_tol_profile(tmp_path, monkeypatch):
    import hierh2.cli
    from hierh2 import STRICT_TOLERANCES, feasible_weights
    spec = NetworkSpec.even_blocks(n_s=8, n_blocks=2, p_in=0.9, p_out=0.05,
                                   a_lo=1.0, a_hi=2.0, seed=2)
    g = generate_consensus_network(spec)
    save_plant(g, tmp_path / "plant.json")
    save_partition(ClusterPartition.from_subsystems(spec.planted_partition, g),
                   tmp_path / "part.json")
    seen = []

    def recording(*args, tol, **kw):
        seen.append(tol)
        return feasible_weights(*args, tol=tol, **kw)

    monkeypatch.setattr(hierh2.cli, "feasible_weights", recording)
    rc = main(["synth", "--plant", str(tmp_path / "plant.json"),
               "--partition", str(tmp_path / "part.json"),
               "--weights", "eigenspan", "--tol-profile", "strict",
               "--out", str(tmp_path)])
    assert rc == 0
    assert seen == [STRICT_TOLERANCES]


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"not_a_key": 1})


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # truncation that drops an unstable mode: approx backend fails -> exit 3
    from hierh2 import GeneralizedPlant
    a = np.diag([0.3, -2.0])
    g = GeneralizedPlant(
        a=a,
        b1=np.hstack([np.diag([5.0, 0.1]), np.zeros((2, 2))]),
        b2=np.eye(2),
        c1=np.vstack([np.diag([5.0, 0.1]), np.zeros((2, 2))]),
        c2=np.eye(2),
        d12=np.vstack([np.zeros((2, 2)), np.eye(2)]),
        d21=np.hstack([np.zeros((2, 2)), np.eye(2)]))
    save_plant(g, tmp_path / "plant.json")
    part = ClusterPartition.singletons(2)
    save_partition(part, tmp_path / "part.json")
    rc = main(["synth", "--plant", str(tmp_path / "plant.json"),
               "--partition", str(tmp_path / "part.json"),
               "--backend", "approx:1", "--out", str(tmp_path)])
    assert rc == 3
    assert "numerical" in capsys.readouterr().err
