import csv
import json

import numpy as np
import pytest

from hierh2 import (ClusterPartition, ExperimentConfig, GeneralizedPlant,
                    NetworkSpec, Subsystem, WeightVectors,
                    generate_consensus_network, sweep_kappa, sweep_r,
                    sweep_size)
from hierh2.cli import main
from hierh2.errors import InvalidInput
from hierh2.serialize import (load_controller, load_partition, load_plant,
                              save_controller, save_partition, save_plant)
from hierh2.synthesis import HierarchicalController, synthesize_hierarchical
from hierh2.projection import build_projection

from conftest import zero_sum_weights


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


def test_sweep_kappa_on_the_designed_partition(monkeypatch):
    # partition_source "designed": the sweep designs its partition on the
    # reference Youla data of its plant, with the config's seed and restarts
    import hierh2.sweeps
    from hierh2 import design_clusters, reference_youla_data, spectral_factors
    config = small_config(n_s=24, partition_source="designed",
                          kappa_list=(4, 24))
    used = []
    build = hierh2.sweeps.build_projection

    def recording(partition, weights):
        used.append(partition)
        return build(partition, weights)

    monkeypatch.setattr(hierh2.sweeps, "build_projection", recording)
    rows = sweep_kappa(config)
    assert [r["status"] for r in rows] == ["ok"] * 3
    g = config.plant()
    sf = spectral_factors(reference_youla_data(g), g.d12, g.d21)
    assert used == [design_clusters(sf, WeightVectors.ones(g.n_u, g.n_y),
                                    config.n_blocks, rng=config.seed,
                                    restarts=config.restarts)]


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


@pytest.mark.parametrize("kappa_list", [(4,), (1, 2, 3, 4, 5, 6)])
def test_dense_kappa_sweep_decomposes_each_equation_once(monkeypatch,
                                                         kappa_list):
    # the kappa rows share one pair of equations, so the dense stable
    # subspace of each is computed on the first row and reused after
    import hierh2.hamiltonian
    calls = []
    decompose = hierh2.hamiltonian.stable_eigenspace

    def counting(h, tol):
        calls.append(h.shape)
        return decompose(h, tol=tol)

    monkeypatch.setattr(hierh2.hamiltonian, "stable_eigenspace", counting)
    rows = sweep_kappa(small_config(kappa_list=kappa_list))
    assert any(r["kappa"] == 4 and r["status"] == "ok" for r in rows)
    assert len(calls) == 2


def test_dense_kappa_sweep_solves_the_eigenbasis_gramian_once(monkeypatch):
    # every kappa row's error bound reads the Gramian of the one cached
    # full subspace and the same B1, so one solve serves the sweep
    import hierh2.hamiltonian
    calls = []
    solve = hierh2.hamiltonian.cauchy_coefficients

    def counting(sub, b1, tol):
        calls.append(b1.shape)
        return solve(sub, b1, tol)

    monkeypatch.setattr(hierh2.hamiltonian, "cauchy_coefficients", counting)
    rows = sweep_kappa(small_config(kappa_list=(1, 2, 3, 4, 5, 6)))
    assert sum(r["epsilon_bound"] is not None for r in rows) >= 2
    assert len(calls) == 1


def test_cached_gramian_is_remade_for_another_b1():
    from hierh2.hamiltonian import approx_are, error_bound
    from hierh2.synthesis import control_hamiltonian
    cfg = small_config()
    g = cfg.plant()
    p = build_projection(cfg.planted_partition(g),
                         WeightVectors.ones(g.n_u, g.n_y))
    sol = approx_are(control_hamiltonian(g, p), 2)
    eps = error_bound(sol, g.b1)[0]
    assert eps > 0.0
    assert error_bound(sol, 2.0 * g.b1)[0] == pytest.approx(2.0 * eps,
                                                            rel=1e-12)
    assert error_bound(sol, g.b1)[0] == eps


def test_dense_full_kappa_row_reproduces_the_exact_row_non_self_dual():
    # b1_scale 3 against c1_scale 10 makes X != Y; a config carries no
    # random weights, so P_u = P_y here, but a filter loop taken from the
    # wrong side still parts the exact row from the kappa = n row, whose
    # loops youla_data factors from the gains
    rows = sweep_kappa(ExperimentConfig(b1_scale=3.0, kappa_list=(100,),
                                        method="dense"))
    exact, full = rows
    assert full["status"] == "ok"
    assert full["h2_norm"] == pytest.approx(exact["h2_norm"], rel=1e-9)


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


@pytest.mark.parametrize("policy,status", [
    ("eigenspan", "error: no feasible weights after 50 tries"),
    ("ones", "approx error: (A, B2 P_u^T) is not stabilizable; "
             "exact error: (A, B2 P_u^T) is not stabilizable"),
], ids=["eigenspan", "ones"])
def test_sweep_size_records_a_failing_row(tmp_path, policy, status):
    # the gen-network plant at n = 48: its planted partition leaves an
    # unstable mode unreachable, so no eigenspan weights exist, and with
    # unit weights both backends fail; the row records it and the sweep
    # still writes its CSV
    config = ExperimentConfig(n_s=24, n_blocks=4, p_in=0.5, p_out=0.01,
                              a_lo=1.0, a_hi=2.0, seed=0, n_list=(24, 48),
                              weight_policy=policy)
    sweep_size(config, tmp_path)
    table = read_csv(tmp_path / "size_sweep.csv")
    assert [r["n"] for r in table] == ["24", "48"]
    assert table[0]["h2_exact"] != ""
    assert table[1]["status"].startswith(status)
    assert table[1]["h2_exact"] == table[1]["h2_approx"] == ""


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


def test_saved_controller_is_one_line_and_round_trips_byte_for_byte(tmp_path):
    # floats are written with repr, so load then save reproduces the file
    spec = NetworkSpec.even_blocks(n_s=12, n_blocks=3, p_in=0.9, p_out=0.05,
                                   a_lo=1.0, a_hi=2.0, seed=2)
    g = generate_consensus_network(spec)
    part = ClusterPartition.from_subsystems(spec.planted_partition, g)
    pair = build_projection(part, WeightVectors.ones(g.n_u, g.n_y))
    save_controller(synthesize_hierarchical(g, pair).controller,
                    tmp_path / "ctl.json")
    text = (tmp_path / "ctl.json").read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    save_controller(load_controller(tmp_path / "ctl.json"),
                    tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == text.encode()


def _nested_type_documents(d):
    """A plant whose "subsystems" is a number and a partition whose
    "weights" is a list, written next to the valid documents in `d`."""
    plant = json.loads((d / "plant.json").read_text())
    plant["subsystems"] = 3
    (d / "plant_subsystems_number.json").write_text(json.dumps(plant))
    doc = json.loads((d / "planted_partition.json").read_text())
    doc["weights"] = [1.0, 2.0]
    (d / "partition_weights_list.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("name, key", [
    ("plant_subsystems_number.json", "subsystems"),
    ("partition_weights_list.json", "weights"),
])
def test_nested_value_of_the_wrong_type_names_the_file_and_key(
        cli_24, name, key):
    load = load_plant if name.startswith("plant") else load_partition
    with pytest.raises(InvalidInput) as err:
        load(cli_24 / name)
    assert str(cli_24 / name) in str(err.value)
    assert f"{key!r} is not a JSON" in str(err.value)


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
    import hierh2.projection
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

    monkeypatch.setattr(hierh2.projection, "feasible_weights", recording)
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


@pytest.fixture(scope="module")
def cli_24(tmp_path_factory):
    """The 24-node plant of `gen-network`, its planted partition and
    controller, a controller whose P_y lost a row, a config with an unknown
    key, malformed documents and configs, a Matrix Market plant whose
    A sidecar is gone, and the plant with no control input."""
    d = tmp_path_factory.mktemp("cli24")
    assert main(["gen-network", "--nodes", "24", "--seed", "7",
                 "--out", str(d)]) == 0
    assert main(["synth", "--plant", str(d / "plant.json"), "--partition",
                 str(d / "planted_partition.json"), "--out", str(d)]) == 0
    doc = json.loads((d / "controller.json").read_text())
    assert len(doc["p_y"]) == 4
    doc["p_y"] = doc["p_y"][:3]
    (d / "short_py.json").write_text(json.dumps(doc))
    (d / "bad_config.json").write_text(json.dumps({"n_s": 24, "r_lst": [2]}))
    (d / "not_json.txt").write_text("not a JSON document\n")
    (d / "plant_no_matrices.json").write_text(
        json.dumps({"type": "generalized_plant"}))
    doc = json.loads((d / "planted_partition.json").read_text())
    del doc["output_sets"]
    (d / "partition_no_output_sets.json").write_text(json.dumps(doc))
    (d / "config_wrong_type.json").write_text(json.dumps({"n_s": "abc"}))
    assert main(["gen-network", "--nodes", "24", "--seed", "7",
                 "--matrix-format", "mm", "--out", str(d / "mm")]) == 0
    (d / "mm" / "plant.a.mtx").unlink()
    plant = json.loads((d / "plant.json").read_text())
    plant["a"][0][0] = "abc"
    (d / "plant_text_entry.json").write_text(json.dumps(plant))
    plant["a"][0] = plant["a"][0][1:]
    (d / "plant_ragged.json").write_text(json.dumps(plant))
    g = load_plant(d / "plant.json")
    save_plant(GeneralizedPlant(
        a=g.a, b1=g.b1, b2=np.zeros((g.n, 0)), c1=g.c1, c2=g.c2,
        d12=np.zeros((g.p1, 0)), d21=g.d21,
        subsystems=tuple(Subsystem(states=s.states, outputs=s.outputs)
                         for s in g.subsystems)), d / "plant_no_controls.json")
    doc = json.loads((d / "planted_partition.json").read_text())
    doc["weights"]["w_u"][0] = "x"
    (d / "partition_text_weight.json").write_text(json.dumps(doc))
    _nested_type_documents(d)
    return d


@pytest.mark.parametrize("argv", [
    ["synth", "--plant", "{d}/planted_partition.json",
     "--partition", "{d}/planted_partition.json"],
    ["synth", "--plant", "{d}/plant.json",
     "--partition", "{d}/planted_partition.json", "--backend", "approx:99"],
    ["design-clusters", "--plant", "{d}/plant.json", "--r", "1000"],
    ["gen-network", "--nodes", "24", "--p-in", "2"],
    ["sweep-r", "--config", "{d}/bad_config.json"],
    ["simulate", "--plant", "{d}/plant.json",
     "--controller", "{d}/short_py.json"],
    ["synth", "--plant", "{d}/not_json.txt",
     "--partition", "{d}/planted_partition.json"],
    ["validate", "--plant", "{d}/plant_no_matrices.json"],
    ["gap", "--plant", "{d}/plant.json",
     "--partition", "{d}/partition_no_output_sets.json"],
    ["sweep-r", "--config", "{d}/no_such_config.json"],
    ["sweep-r", "--config", "{d}/config_wrong_type.json"],
    ["validate", "--plant", "{d}/mm/plant.json"],
    ["validate", "--plant", "{d}/plant_text_entry.json"],
    ["validate", "--plant", "{d}/plant_ragged.json"],
    ["synth", "--plant", "{d}/plant.json",
     "--partition", "{d}/partition_text_weight.json"],
    ["validate", "--plant", "{d}/plant_subsystems_number.json"],
    ["synth", "--plant", "{d}/plant.json",
     "--partition", "{d}/partition_weights_list.json"],
    ["design-clusters", "--plant", "{d}/plant_no_controls.json", "--r", "1"],
    ["approx", "--plant", "{d}/plant_no_controls.json", "--kappa", "1"],
], ids=["plant-is-a-partition", "kappa-above-n", "r-above-channels",
        "p-in-above-1", "unknown-config-key", "p_y-rows-below-k-inputs",
        "plant-not-json", "plant-missing-key", "partition-missing-key",
        "config-missing-file", "config-wrong-type", "plant-missing-sidecar",
        "plant-text-entry", "plant-ragged-matrix", "partition-text-weight",
        "plant-subsystems-number", "partition-weights-list",
        "design-without-controls", "approx-without-controls"])
def test_cli_bad_input_exits_2(cli_24, tmp_path, capsys, argv):
    argv = [a.format(d=cli_24) for a in argv] + ["--out", str(tmp_path)]
    assert main(argv) == 2
    assert "precondition failure" in capsys.readouterr().err


def test_cli_simulate_uses_the_tol_profile(cli_24, tmp_path, monkeypatch):
    import hierh2.cli
    from hierh2 import STRICT_TOLERANCES, run_hier_simulation
    seen = []

    def recording(*args, tol, **kw):
        seen.append(tol)
        return run_hier_simulation(*args, tol=tol, **kw)

    monkeypatch.setattr(hierh2.cli, "run_hier_simulation", recording)
    rc = main(["simulate", "--plant", str(cli_24 / "plant.json"),
               "--controller", str(cli_24 / "controller.json"),
               "--horizon", "0", "--tol-profile", "strict",
               "--out", str(tmp_path)])
    assert rc == 0
    assert seen == [STRICT_TOLERANCES]


def test_sweep_eigenspan_weights_use_the_tol_profile(monkeypatch):
    import hierh2.projection
    from hierh2 import STRICT_TOLERANCES, feasible_weights
    config = ExperimentConfig.from_dict({
        "n_s": 8, "n_blocks": 2, "p_in": 0.9, "p_out": 0.05, "a_lo": 1.0,
        "a_hi": 2.0, "seed": 2, "weight_policy": "eigenspan",
        "tol_profile": "strict"})
    g = config.plant()
    seen = []

    def recording(*args, tol, **kw):
        seen.append(tol)
        return feasible_weights(*args, tol=tol, **kw)

    monkeypatch.setattr(hierh2.projection, "feasible_weights", recording)
    config.weights(g, config.planted_partition(g))
    assert seen == [STRICT_TOLERANCES]


def test_sweeps_record_an_out_of_range_row(tmp_path):
    # kappa > n and r > n_u are bad inputs of one row: the row records the
    # error and the sweep goes on
    config = small_config(n_s=24, kappa_list=(2, 25), r_list=(1, 25))
    kappa_rows = sweep_kappa(config, tmp_path)
    assert [r["kappa"] for r in kappa_rows] == ["exact", 2, 25]
    assert kappa_rows[1]["status"] == "ok"
    assert kappa_rows[2]["status"] == "error: kappa must be in [1, 24], got 25"
    r_rows = sweep_r(config, tmp_path)
    assert [r["r"] for r in r_rows] == [1, 25]
    assert r_rows[0]["status"] == "ok"
    assert r_rows[1]["status"] == \
        "error: r exceeds the number of inputs or outputs"


@pytest.mark.parametrize("argv", [
    ["gap", "--plant", "p.json", "--partition", "q.json", "--config", "x.json"],
    ["validate", "--plant", "p.json", "--seed", "3"],
    ["gen-network", "--nodes", "24", "--tol-profile", "strict"],
    ["sweep-r", "--seed", "3", "--config", "x.json"],
    ["sweep-kappa", "--tol-profile", "strict", "--config", "x.json"],
], ids=["gap-config", "validate-seed", "gen-network-tol-profile",
        "sweep-seed", "sweep-tol-profile"])
def test_cli_rejects_a_flag_the_command_does_not_read(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_checks_value_types():
    from hierh2.errors import InvalidInput
    assert ExperimentConfig.from_dict({"p_in": 1, "kappa_list": [2, 3]}) == \
        ExperimentConfig(p_in=1, kappa_list=(2, 3))
    for doc in ({"n_s": "24"}, {"n_s": 24.0}, {"n_s": True},
                {"degree_preserving": 1}, {"kappa_list": [1, "2"]},
                {"kappa_list": 2}, {"tol_profile": None}):
        with pytest.raises(InvalidInput, match="config key"):
            ExperimentConfig.from_dict(doc)


def test_sweep_reads_the_tol_profile_of_its_config(cli_24, tmp_path,
                                                   monkeypatch):
    # the exact row is a synthesize_hierarchical call, which builds the
    # one pair of equations; the kappa rows run on the synthesis core over
    # that pair, so the spies sit on all four names, and each call's tol is
    # recorded
    import hierh2.sweeps
    import hierh2.synthesis
    from hierh2 import STRICT_TOLERANCES
    seen = []

    def recording(module, name):
        fn = getattr(module, name)

        def spy(*args):
            seen.append((name, args[-1]))
            return fn(*args)
        return spy

    def recording_synthesis(*args, tol, **kw):
        seen.append(("synthesize_hierarchical", tol))
        return synthesize_hierarchical(*args, tol=tol, **kw)

    monkeypatch.setattr(hierh2.sweeps, "synthesize_hierarchical",
                        recording_synthesis)
    for module, name in ((hierh2.sweeps, "_synthesize"),
                         (hierh2.synthesis, "control_hamiltonian"),
                         (hierh2.synthesis, "filter_hamiltonian")):
        monkeypatch.setattr(module, name, recording(module, name))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n_s": 24, "p_in": 0.5, "p_out": 0.01, "a_lo": 1.0, "a_hi": 2.0,
        "seed": 7, "kappa_list": [4, 24], "method": "dense",
        "tol_profile": "strict"}))
    assert main(["sweep-kappa", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    assert sorted(name for name, _ in seen) == [
        "_synthesize", "_synthesize", "control_hamiltonian",
        "filter_hamiltonian", "synthesize_hierarchical"]
    assert all(tol == STRICT_TOLERANCES for _, tol in seen)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["tol_profile"] == "strict"


def test_synth_records_its_pbh_path_and_a_hidden_mode_exits_2(cli_24, tmp_path,
                                                              capsys):
    # the planted run is certified by its loop; weights summing to zero in
    # every cluster hide the consensus mode, and both backends exit 2 with
    # the rule's message
    unit = json.loads((cli_24 / "synthesis.json").read_text())
    assert unit["pbh_path"] == "certificate"
    part, _ = load_partition(cli_24 / "planted_partition.json")
    hidden = tmp_path / "hidden.json"
    save_partition(part, hidden, zero_sum_weights(part))
    for backend in (["--backend", "exact"],
                    ["--backend", "approx:4", "--method", "krylov"]):
        capsys.readouterr()
        assert main(["synth", "--plant", str(cli_24 / "plant.json"),
                     "--partition", str(hidden), *backend,
                     "--out", str(tmp_path / "hidden")]) == 2
        assert "not stabilizable" in capsys.readouterr().err


def test_synth_records_its_riccati_paths(cli_24, tmp_path):
    # the exact backend records, per equation, its doubling and Newton
    # steps and what decided the axis check; the approximate one, null
    unit = json.loads((cli_24 / "synthesis.json").read_text())
    for side in ("x", "y"):
        record = unit["riccati"][side]
        assert record["axis_path"] == "certificate"
        assert record["doubling_steps"] > 0 and record["newton_steps"] == 0
    assert main(["synth", "--plant", str(cli_24 / "plant.json"),
                 "--partition", str(cli_24 / "planted_partition.json"),
                 "--backend", "approx:24", "--method", "dense",
                 "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "synthesis.json").read_text())["riccati"] \
        is None


def test_sweep_and_synth_read_the_stored_weights_alike(cli_24, tmp_path,
                                                       capsys):
    # one partition file gives one controller: its stored weights win in
    # `synth --partition` and in a sweep with partition_source "file"
    part, _ = load_partition(cli_24 / "planted_partition.json")
    n_u = sum(len(s) for s in part.input_sets)
    n_y = sum(len(s) for s in part.output_sets)
    weighted = tmp_path / "weighted.json"
    save_partition(part, weighted, WeightVectors(np.linspace(1, 2, n_u),
                                                 np.linspace(1, 2, n_y)))
    assert main(["synth", "--plant", str(cli_24 / "plant.json"),
                 "--partition", str(weighted),
                 "--out", str(tmp_path / "synth")]) == 0
    h2 = json.loads((tmp_path / "synth" / "synthesis.json").read_text())
    unit = json.loads((cli_24 / "synthesis.json").read_text())
    assert h2["h2_value"] != unit["h2_value"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n_s": 24, "p_in": 0.5, "p_out": 0.01, "a_lo": 1.0, "a_hi": 2.0,
        "seed": 7, "kappa_list": [], "partition_source": "file",
        "partition_file": str(weighted)}))
    assert main(["sweep-kappa", "--config", str(cfg),
                 "--out", str(tmp_path / "sweep")]) == 0
    exact = read_csv(tmp_path / "sweep" / "kappa_sweep.csv")[0]
    assert exact["kappa"] == "exact"
    assert float(exact["h2_norm"]) == h2["h2_value"]
