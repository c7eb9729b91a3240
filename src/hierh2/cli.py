"""Command-line entry point.

Subcommands cover network generation, synthesis, approximation, gap
analysis, cluster design, simulation, the three experiment sweeps, and
assumption validation.  Every run writes a manifest with the config hash,
seed, library versions, and wall clock.  Exit codes: 0 success, 2
precondition failure (including usage errors), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path

from .config import tolerance_profile
from .errors import NumericalError, PreconditionError
from .gapdesign import (design_clusters, evaluate_partition,
                        reference_youla_data, spectral_factors)
from .hamiltonian import approx_are, error_bound
from .plant import NetworkSpec, generate_consensus_network, validate_assumptions
from .projection import (ClusterPartition, ProjectionPair, WeightVectors,
                         build_projection)
from .serialize import (_load, load_controller, load_partition, load_plant,
                        save_controller, save_partition, save_plant,
                        write_manifest)
from .simulate import privacy_audit, run_hier_simulation
from .sweeps import (ExperimentConfig, load_weighted_partition, sweep_kappa,
                     sweep_r, sweep_size)
from .synthesis import (communication_links, control_hamiltonian,
                        synthesize_hierarchical)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3


def _add_common(sub, seed=True, tol_profile=True):
    """--out, plus --seed and --tol-profile for the commands that read them."""
    sub.add_argument("--out", type=Path, default=Path("out"),
                     help="output directory")
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="RNG seed")
    if tol_profile:
        sub.add_argument("--tol-profile", choices=["strict", "default"],
                         default="default")


def _matching(pattern: str, expected: str):
    """argparse type accepting only strings that fully match `pattern`."""
    def check(text: str) -> str:
        if re.fullmatch(pattern, text) is None:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return text
    return check


def cmd_gen_network(args) -> int:
    spec = NetworkSpec.even_blocks(
        n_s=args.nodes, n_blocks=args.blocks, p_in=args.p_in,
        p_out=args.p_out, a_lo=args.a_lo, a_hi=args.a_hi, seed=args.seed)
    g = generate_consensus_network(spec, c1_scale=args.c1_scale,
                                   b1_scale=args.b1_scale)
    args.out.mkdir(parents=True, exist_ok=True)
    save_plant(g, args.out / "plant.json", matrix_format=args.matrix_format)
    part = ClusterPartition.from_subsystems(spec.planted_partition, g)
    save_partition(part, args.out / "planted_partition.json",
                   WeightVectors.ones(g.n_u, g.n_y))
    print(f"wrote {args.out / 'plant.json'} (n={g.n})")
    return EXIT_OK


def cmd_validate(args) -> int:
    g = load_plant(args.plant)
    report = validate_assumptions(g, tolerance_profile(args.tol_profile))
    for name in ("a1", "a2", "a3", "a4"):
        print(f"{name.upper()}: {'pass' if getattr(report, name) else 'FAIL'}")
    print(f"all: {'pass' if report.all_ok else 'FAIL'}")
    return EXIT_OK if report.all_ok else EXIT_PRECONDITION


def cmd_synth(args) -> int:
    tol = tolerance_profile(args.tol_profile)
    g = load_plant(args.plant)
    partition, weights = load_weighted_partition(
        args.partition, args.weights, g, args.seed, tol)
    p = build_projection(partition, weights)
    backend, _, k = args.backend.partition(":")
    kappa = int(k) if k else None
    res = synthesize_hierarchical(g, p, are_backend=backend, kappa=kappa,
                                  method=args.method, tol=tol)
    args.out.mkdir(parents=True, exist_ok=True)
    save_controller(res.controller, args.out / "controller.json")
    links = communication_links(partition)
    summary = {
        "h2_value": res.h2_value, "solve_time_s": res.solve_time,
        "links_hierarchical": links.hierarchical, "links_dense": links.dense,
        "pbh_path": res.pbh_path,
        "riccati": None if backend != "exact" else {
            side: {"doubling_steps": sol.doubling_steps,
                   "newton_steps": sol.newton_steps,
                   "axis_path": sol.axis_path}
            for side, sol in (("x", res.x_solution), ("y", res.y_solution))},
    }
    (args.out / "synthesis.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(summary))
    return EXIT_OK


def cmd_approx(args) -> int:
    """Diagnostics of X~ for the X equation that `synth` solves."""
    tol = tolerance_profile(args.tol_profile)
    g = load_plant(args.plant)
    p = ProjectionPair.identity(g.n_u, g.n_y)
    if args.partition is not None:
        p = build_projection(*load_weighted_partition(
            args.partition, args.weights, g, args.seed, tol))
    sol = approx_are(control_hamiltonian(g, p, tol), args.kappa,
                     method=args.method, tol=tol)
    eps = error_bound(sol, g.b1, tol)[0] if args.method == "dense" else None
    out = {
        "kappa": sol.kappa, "stabilizing": bool(sol.stabilizing),
        "epsilon": eps, "e_kappa_norm": sol.e_kappa_norm,
        "eigenvalues": [[ev.real, ev.imag] for ev in sol.lambda_kappa],
    }
    print(json.dumps(out))
    return EXIT_OK


def cmd_gap(args) -> int:
    tol = tolerance_profile(args.tol_profile)
    g = load_plant(args.plant)
    partition, weights = load_weighted_partition(
        args.partition, args.weights, g, args.seed, tol)
    report = evaluate_partition(g, partition, weights, tol=tol)
    out = {
        "J1": report.j1_star, "J2": report.j2_star, "ratio": report.ratio,
        "xi_u": report.xi_u, "xi_y": report.xi_y, "xi": report.xi,
        "eps1": report.eps1, "eps2": report.eps2,
        "bound_rhs": report.bound_rhs, "h2_equivalence": report.h2_equivalence,
    }
    print(json.dumps(out))
    return EXIT_OK


def cmd_design_clusters(args) -> int:
    tol = tolerance_profile(args.tol_profile)
    g = load_plant(args.plant)
    sf = spectral_factors(reference_youla_data(g, tol), g.d12, g.d21, tol)
    weights = WeightVectors.ones(g.n_u, g.n_y)
    partition = design_clusters(sf, weights, args.r, rng=args.seed,
                                restarts=args.restarts)
    args.out.mkdir(parents=True, exist_ok=True)
    save_partition(partition, args.out / "partition.json", weights)
    print(f"wrote {args.out / 'partition.json'} (r={args.r})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    tol = tolerance_profile(args.tol_profile)
    g = load_plant(args.plant)
    controller = load_controller(args.controller)
    kind, _, k = args.disturbance.partition(":")
    if kind == "impulse":
        dist = ("impulse", int(k or 0))
    else:
        dist = ("noise", args.seed, 1.0)
    # without a declared cluster per coordinator the privacy audit is None
    partition = (None if args.partition is None
                 else load_partition(args.partition)[0])
    res = run_hier_simulation(g, controller, horizon=args.horizon, dt=args.dt,
                              disturbance=dist, partition=partition, tol=tol)
    args.out.mkdir(parents=True, exist_ok=True)
    with (args.out / "trace.jsonl").open("w") as fh:
        for i, t in enumerate(res.times):
            rec = {"t": float(t), "ybar": res.trace.ybar[i].tolist(),
                   "ubar": res.trace.ubar[i].tolist(),
                   "u": res.u[i].tolist()}
            fh.write(json.dumps(rec) + "\n")
    print(json.dumps({
        "samples": len(res.times),
        "staged_vs_monolithic": res.staged_vs_monolithic,
        "privacy_audit": privacy_audit(res.trace),
        "links_used": res.trace.links_used,
    }))
    return EXIT_OK


def _run_sweep(args, fn) -> int:
    """Run sweep `fn` on the --config file, its one source of settings."""
    config = ExperimentConfig.from_dict(
        {} if args.config is None else _load(args.config))
    t0 = time.perf_counter()
    args.out.mkdir(parents=True, exist_ok=True)
    fn(config, args.out)
    write_manifest(args.out, config.as_dict(), config.seed,
                   time.perf_counter() - t0)
    print(f"wrote sweep output under {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hierh2",
        description="Hierarchical H2 synthesis toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("gen-network", help="generate a clustered consensus plant")
    _add_common(s, tol_profile=False)
    s.add_argument("--nodes", type=int, required=True)
    s.add_argument("--blocks", type=int, default=4)
    s.add_argument("--p-in", dest="p_in", type=float, default=0.5)
    s.add_argument("--p-out", dest="p_out", type=float, default=0.01)
    s.add_argument("--a-lo", dest="a_lo", type=float, default=1.0)
    s.add_argument("--a-hi", dest="a_hi", type=float, default=2.0)
    s.add_argument("--c1-scale", type=float, default=10.0)
    s.add_argument("--b1-scale", type=float, default=10.0)
    s.add_argument("--matrix-format", choices=["json", "mm"], default="json")
    s.set_defaults(fn=cmd_gen_network)

    s = subs.add_parser("validate", help="check the standing plant assumptions")
    _add_common(s, seed=False)
    s.add_argument("--plant", type=Path, required=True)
    s.set_defaults(fn=cmd_validate)

    s = subs.add_parser("synth", help="synthesize a hierarchical controller")
    _add_common(s)
    s.add_argument("--plant", type=Path, required=True)
    s.add_argument("--partition", type=Path, required=True)
    s.add_argument("--weights", choices=["ones", "eigenspan"], default="ones")
    s.add_argument("--backend", default="exact",
                   type=_matching(r"exact|approx:[1-9][0-9]*",
                                  "'exact' or 'approx:K' with integer K >= 1"),
                   help="'exact' or 'approx:K' for kappa=K")
    s.add_argument("--method", choices=["dense", "krylov"], default="dense")
    s.set_defaults(fn=cmd_synth)

    s = subs.add_parser("approx", help="truncated Riccati approximation diagnostics")
    _add_common(s)
    s.add_argument("--plant", type=Path, required=True)
    s.add_argument("--partition", type=Path, default=None)
    s.add_argument("--weights", choices=["ones", "eigenspan"], default="ones")
    s.add_argument("--kappa", type=int, required=True)
    s.add_argument("--method", choices=["dense", "krylov"], default="dense")
    s.set_defaults(fn=cmd_approx)

    s = subs.add_parser("gap", help="optimality-gap report for a partition")
    _add_common(s)
    s.add_argument("--plant", type=Path, required=True)
    s.add_argument("--partition", type=Path, required=True)
    s.add_argument("--weights", choices=["ones", "eigenspan"], default="ones")
    s.set_defaults(fn=cmd_gap)

    s = subs.add_parser("design-clusters", help="weighted k-means cluster design")
    _add_common(s)
    s.add_argument("--plant", type=Path, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--restarts", type=int, default=10)
    s.set_defaults(fn=cmd_design_clusters)

    s = subs.add_parser("simulate", help="run the staged three-step simulation")
    _add_common(s)
    s.add_argument("--plant", type=Path, required=True)
    s.add_argument("--controller", type=Path, required=True)
    s.add_argument("--partition", type=Path, default=None,
                   help="declared clusters to audit the reads against")
    s.add_argument("--horizon", type=float, default=1.0)
    s.add_argument("--dt", type=float, default=None)
    s.add_argument("--disturbance", default="impulse:0",
                   type=_matching(r"impulse(:[0-9]+)?|noise",
                                  "'impulse', 'impulse:k' or 'noise'"),
                   help="'impulse:k' or 'noise'")
    s.set_defaults(fn=cmd_simulate)

    for name, fn in [("sweep-kappa", sweep_kappa), ("sweep-size", sweep_size),
                     ("sweep-r", sweep_r)]:
        s = subs.add_parser(name, help=f"run the {name.replace('-', ' ')}")
        s.add_argument("--config", type=Path, help="JSON config file")
        _add_common(s, seed=False, tol_profile=False)
        s.set_defaults(fn=lambda a, _f=fn: _run_sweep(a, _f))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.fn(args)
    except PreconditionError as e:
        print(f"precondition failure: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    if args.command not in ("sweep-kappa", "sweep-size", "sweep-r"):
        config_doc = {"command": args.command,
                      "args": {k: str(v) for k, v in vars(args).items()
                               if k != "fn"}}
        write_manifest(args.out, config_doc, vars(args).get("seed"),
                       time.perf_counter() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
