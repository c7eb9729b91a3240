"""hierh2 benchmark: run one workload in this process and report its metrics.

    python3 perfbench/run.py --workload NAME [--seed 7] [--seconds 36] [--trace 0|1]

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and from nowhere else.  The run

1. pins the BLAS thread count, imports numpy, scipy and hierh2;
2. sets up ``SETUP_REPS`` times (full-size inputs plus the op's pipeline on
   a small plant, which warms the BLAS/LAPACK paths) and reports the import
   time plus the median repetition as ``setup_s``;
3. runs ops back to back, starting another only while it is expected to end
   within ``--seconds``;
4. checks every op's outputs (untimed) and prints one human-readable line per
   figure, then the result as one JSON object on the last line.

With ``--trace 0`` the JSON metrics are the ``end_to_end`` metrics named in
BENCHMARK.json.  With ``--trace 1`` half the time runs untraced ops and half
traced ops (see layertrace.py), and the metrics are the ``per_layer`` ones.
Workloads, metrics and their expected movements are described in README.md.
"""

import time

T_START = time.perf_counter()

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path

import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 3
WORKLOAD_NAMES = ("synth-krylov-n800", "synth-exact-sim-n200", "gap-design-n100")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a 2-core OpenBLAS box two threads made the gap and
# simulation ops 1.5x slower and noisier and left the n = 800 op unchanged.
BLAS_THREADS = 1


def environment(threads: int) -> dict:
    """Machine, BLAS and library versions, recorded with every result."""
    import ctypes
    import platform

    import numpy
    import scipy

    env = {"nproc": len(os.sched_getaffinity(0)), "blas_threads_set": threads,
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "cpu": platform.processor(),
           "llc": None, "blas": []}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name")), env["cpu"])
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        levels = sorted((int((d / "level").read_text()), (d / "size").read_text().strip())
                        for d in caches.glob("index*"))
        env["llc"] = levels[-1][1] if levels else None
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                           and ln.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"lib": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    entry["threads"] = get_threads()
                    entry["config"] = get_config().decode()
        env["blas"].append(entry)
    return env


def span(tracer, kind: str, index: int):
    return contextlib.nullcontext() if tracer is None else tracer.root(kind, index)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_ops(wl, seconds: float, tracer=None, first: int = 0):
    """Closed loop of one caller.

    Returns the op wall times, the op outputs, and the peak RSS after the
    first op: later peaks would grow with the outputs kept for the checks,
    that is with the number of ops the machine's speed allows.
    """
    times, outs = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            with span(tracer, "op", first + len(times)):
                out = wl.op()
        except Exception:  # a failed op is counted in `failed`, not fatal
            traceback.print_exc()
            out = None
        t1 = time.perf_counter()
        times.append(t1 - t0)
        outs.append(out)
        if len(times) == 1:
            rss = peak_rss_mb()
        if t1 - start + statistics.median(times) > seconds:
            return times, outs, rss


def tail_percentile(times):
    """Highest of p99.9/p99/p90 with at least ten samples beyond it."""
    for q in (0.999, 0.99, 0.9):
        if len(times) * (1.0 - q) >= 10:
            return f"op_s_p{100 * q:g}", statistics.quantiles(times, n=1000)[round(q * 1000) - 1]
    return None


def layer_values(tracer, wl, outs, op_times, plain_times) -> dict:
    """Every per-layer figure the traced run can give, by metric name."""
    n_ops, ops = tracer.summarize("op")
    n_setup, setup = tracer.summarize("setup")
    values = {}
    layer_self = dict.fromkeys(layertrace.LAYERS, 0.0)
    for fn in tracer.layer_functions():
        for prefix, table, count in (("", ops, n_ops), ("setup.", setup, n_setup)):
            calls, busy, self_s, _ = table.get(fn, (0, 0.0, 0.0, 0))
            values[f"{prefix}{fn}.calls"] = calls / count
            values[f"{prefix}{fn}.busy_s"] = busy / count
            values[f"{prefix}{fn}.self_s"] = self_s / count
        layer_self[fn.split(".")[0]] += values[f"{fn}.self_s"]
    values.update({f"{layer}.self_s": v for layer, v in layer_self.items()})
    values["op.self_s"] = ops["op"][2] / n_ops

    calls, _, _, passed = ops.get("hamiltonian.stability_test", (0, 0, 0, 0))
    values["hamiltonian.stability_test.pass_ratio"] = passed / calls if calls else 0.0
    ok = [(o, t) for o, t in zip(outs, op_times) if o is not None]

    def median_of(key, scale=None):
        vals = [o[key] / (t if scale else 1.0) for o, t in ok if key in o]
        return statistics.median(vals) if vals else 0.0

    values["synthesis.solve_time_share"] = median_of("solve_time", scale=True)
    values["simulate.steps"] = median_of("steps")
    values["simulate.step_us"] = (1e6 * values["simulate.run_hier_simulation.busy_s"]
                                  / values["simulate.steps"]
                                  if values["simulate.steps"] else 0.0)
    values["serialize.controller_bytes"] = median_of("controller_bytes")
    extras = wl.extras([o for o, _ in ok]) if ok else {}
    values["gapdesign.gap_ratio"] = extras.get("gap_ratio", (0.0,))[0]
    values["gapdesign.bound_ratio"] = extras.get("bound_ratio", (0.0,))[0]

    traced_p50 = statistics.median(op_times)
    plain_p50 = statistics.median(plain_times)
    values["trace.op_s_p50"] = traced_p50
    values["trace.untraced_op_s_p50"] = plain_p50
    values["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0
    values["trace.spans_per_op"] = sum(c[0] for c in ops.values()) / n_ops
    values["trace.nesting_error_s"] = tracer.nesting_error()
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "hierh2" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no hierh2 sources under {SRC} (run from a source checkout)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    for var in BLAS_ENV:   # before numpy loads OpenBLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import hierh2
    if Path(hierh2.__file__).resolve().parent != (SRC / "hierh2").resolve():
        print(f"hierh2 imported from {hierh2.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    import_s = time.perf_counter() - T_START

    OUT.mkdir(exist_ok=True)
    references = json.loads((HERE / "reference.json").read_text())
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT, references)
    tracer = layertrace.Tracer(hierh2) if args.trace else None
    env = environment(BLAS_THREADS)
    print("env " + json.dumps(env), flush=True)

    try:
        setup_reps = []
        if tracer is not None:
            tracer.install()
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            with span(tracer, "setup", rep):
                wl.build()
                try:
                    wl.warm()
                except Exception:  # the ops will fail the same way and count
                    traceback.print_exc()
            setup_reps.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_reps)
        if tracer is None:
            op_times, outs, rss_mb = timed_ops(wl, args.seconds)
            plain_times, checked = op_times, outs
        else:
            tracer.uninstall()
            plain_times, plain_outs, _ = timed_ops(wl, args.seconds / 2)
            tracer.install()
            op_times, outs, _ = timed_ops(wl, args.seconds / 2, tracer,
                                          first=len(plain_times))
            tracer.uninstall()
            checked = plain_outs + outs
        try:
            reasons = wl.check(checked)
        except Exception as exc:  # a check that cannot run fails every op
            traceback.print_exc()
            reasons = [f"check raised {exc!r}"] * len(checked)
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()

    attempted = len(checked)
    failed = sum(r is not None for r in reasons)
    for i, r in enumerate(reasons):
        if r is not None:
            print(f"check op {i} FAILED: {r}")
    ok = [o for o, r in zip(checked, reasons) if r is None]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "import_s": import_s, "setup_reps_s": setup_reps,
              "op_times_s": plain_times, "failures": reasons}
    print(f"workload {args.workload} seed {args.seed}: closed loop of 1 caller")
    if tracer is None:
        declared = spec["end_to_end"]
        values = {"op_s_p50": statistics.median(op_times), "setup_s": setup_s,
                  "peak_rss_mb": rss_mb,
                  "h2_cost": statistics.median(o["h2_cost"] for o in ok) if ok else 0.0}
        shown = [("op_count", len(op_times), "ops")]
        shown += [(m["name"], values[m["name"]], m["unit"]) for m in declared]
        tail = tail_percentile(op_times)
        if tail is not None:
            shown.append((tail[0], tail[1], "s"))
        shown += [(k, v, u) for k, (v, u) in (wl.extras(ok) if ok else {}).items()]
        shown.append(("fail_frac", failed / attempted, "1"))
        correct = failed == 0
    else:
        declared = spec["per_layer"]
        values = layer_values(tracer, wl, outs, op_times, plain_times)
        shown = [("op_count", len(plain_times), "untraced ops"),
                 ("op_count", len(op_times), "traced ops")]
        shown += [(m["name"], values[m["name"]], m["unit"]) for m in declared]
        correct = failed == 0 and values["trace.nesting_error_s"] < 1e-9
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        record["traced_op_times_s"] = op_times
    for name, value, unit in shown:
        print(f"metric {name} {value:.6g} {unit}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    record["metrics"] = metrics
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
