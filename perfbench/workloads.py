"""The three hierh2 pipeline workloads: inputs, one op, output checks.

Each workload is a closed loop of one caller: an op starts when the
previous one has returned.  The program receives only inputs generated from
the seed: the consensus plant of ``ExperimentConfig(seed=seed)`` at the
workload's size (degree-preserving scaling, planted 4-block partition, unit
weights) and, for the simulation, a noise disturbance with the same seed.

The library is driven through module attributes (``synthesis.synthesize_
hierarchical``, never a name bound at import time), so that the traced run's
wrappers see every call.  Checks run after the timed phase.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from hierh2 import (errors, gapdesign, linalg, plant, projection, serialize,
                    simulate, statespace, synthesis)
from hierh2.sweeps import ExperimentConfig

REL_TOL = 1e-9      # relative agreement required of every checked value
WARM_N = 24         # plant size of the BLAS/LAPACK warm-up inside set-up


class Instance(NamedTuple):
    g: object
    partition: object
    weights: object
    p: object


def consensus_instance(seed: int, n: int) -> Instance:
    cfg = ExperimentConfig(seed=seed)
    spec = cfg.network_spec(n)
    g = plant.generate_consensus_network(spec, c1_scale=cfg.c1_scale,
                                         b1_scale=cfg.b1_scale)
    partition = projection.ClusterPartition.from_subsystems(
        spec.planted_partition, g)
    weights = projection.WeightVectors.ones(g.n_u, g.n_y)
    return Instance(g, partition, weights,
                    projection.build_projection(partition, weights))


def _rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


def _same_sets(a, b) -> bool:
    return set(map(frozenset, a)) == set(map(frozenset, b))


class Workload:
    name = ""
    n = 0

    def __init__(self, seed: int, work_dir: Path, references: dict):
        self.seed = seed
        self.work_dir = work_dir
        self.reference = references.get(self.name, {}).get(str(seed))
        self.inst: Instance | None = None

    def build(self) -> None:
        """One set-up repetition: the full-size inputs."""
        self.inst = consensus_instance(self.seed, self.n)

    def warm(self) -> None:
        """Run the op's pipeline on a small plant so first-call costs land
        in set-up, not in the timed ops."""
        try:
            self.run(consensus_instance(self.seed, WARM_N))
        except errors.ApproxNotStabilizing:
            pass  # kappa may not stabilize a toy plant; its solves have run

    def op(self) -> dict:
        return self.run(self.inst)

    def run(self, inst: Instance) -> dict:
        raise NotImplementedError

    def check(self, outs: list[dict | None]) -> list[str | None]:
        """One failure reason (or None) per op output."""
        raise NotImplementedError

    def extras(self, outs: list[dict]) -> dict:
        """Workload-specific figures printed beside the end-to-end metrics."""
        return {}

    def close(self) -> None:
        pass

    def _h2_checks(self, outs, independent_h2) -> list[str | None]:
        """h2_cost against the stored seed reference or, for other seeds,
        against ``independent_h2(controller)`` computed once."""
        first = next((o for o in outs if o is not None), None)
        if first is None:
            return ["op raised"] * len(outs)
        if self.reference is not None:
            ref = self.reference["h2_cost"]
        else:
            ref = independent_h2(first["controller"])
        reasons = []
        for o in outs:
            if o is None:
                reasons.append("op raised")
            elif _rel_err(o["h2_cost"], ref) > REL_TOL:
                reasons.append(f"h2_cost {o['h2_cost']!r} differs from "
                               f"reference {ref!r}")
            else:
                reasons.append(None)
        return reasons


class SynthKrylov(Workload):
    """Approx backend, kappa = 4, Krylov eigenpairs, n = 800.

    n >= 250 takes the observer-separation closed-loop H2 route."""

    name = "synth-krylov-n800"
    n = 800
    kappa = 4

    def run(self, inst):
        res = synthesis.synthesize_hierarchical(
            inst.g, inst.p, are_backend="approx", kappa=self.kappa,
            method="krylov")
        return {"h2_cost": res.h2_value, "solve_time": res.solve_time,
                "controller": res.controller}

    def check(self, outs):
        g = self.inst.g
        return self._h2_checks(
            outs, lambda k: linalg.h2_norm(plant.lft_lower(g, k.expand())))


class SynthExactSim(Workload):
    """Exact backend at n = 200, controller save/load round trip, then the
    staged three-step simulation of the loaded controller."""

    name = "synth-exact-sim-n200"
    n = 200
    horizon = 1.0
    # A fixed step replaces the default (half the resolution limit, 1568
    # steps at seed 7, 1586-1779 at seeds 1-11), so that every seed
    # simulates the same number of steps; it stays within the limit while
    # the fastest closed-loop mode is below 160 rad/s (78-89 at seeds 1-11).
    steps = 1600

    def __init__(self, seed, work_dir, references):
        super().__init__(seed, work_dir, references)
        self.path = work_dir / f"controller-{os.getpid()}.json"

    def run(self, inst):
        res = synthesis.synthesize_hierarchical(inst.g, inst.p)
        serialize.save_controller(res.controller, self.path)
        nbytes = self.path.stat().st_size
        loaded = serialize.load_controller(self.path)
        t0 = time.perf_counter()
        sim = simulate.run_hier_simulation(
            inst.g, loaded, horizon=self.horizon, dt=self.horizon / self.steps,
            disturbance=simulate.noise_disturbance(self.seed),
            partition=inst.partition)
        sim_s = time.perf_counter() - t0
        return {"h2_cost": res.h2_value, "solve_time": res.solve_time,
                "controller": res.controller, "loaded": loaded,
                "controller_bytes": nbytes, "steps": len(sim.times) - 1,
                "sim_s": sim_s, "deviation": sim.staged_vs_monolithic,
                "trace": sim.trace}

    def check(self, outs):
        g = self.inst.g

        def dual_h2(k):
            # observability-Gramian route: a different Lyapunov equation
            # from the one synthesize_hierarchical solves at n < 250
            closed = plant.lft_lower(g, k.expand())
            return linalg.h2_norm(statespace.transpose_dual(closed))

        reasons = self._h2_checks(outs, dual_h2)
        for i, o in enumerate(outs):
            if o is None or reasons[i] is not None:
                continue
            k, k2 = o["controller"], o["loaded"]
            if not all(np.array_equal(a, b) for a, b in [
                    (k.p_u, k2.p_u), (k.p_y, k2.p_y), (k.k_tilde.a, k2.k_tilde.a),
                    (k.k_tilde.b, k2.k_tilde.b), (k.k_tilde.c, k2.k_tilde.c),
                    (k.k_tilde.d, k2.k_tilde.d)]):
                reasons[i] = "controller changed in the save/load round trip"
            elif not o["deviation"] <= REL_TOL:
                reasons[i] = f"staged-vs-monolithic deviation {o['deviation']:.3e}"
            elif not simulate.privacy_audit(o["trace"]):
                reasons[i] = "privacy audit failed"
        return reasons

    def extras(self, outs):
        return {"sim_steps_per_s": (statistics.median(
            o["steps"] / o["sim_s"] for o in outs), "1/s")}

    def close(self):
        self.path.unlink(missing_ok=True)


class GapDesign(Workload):
    """reference_youla_data -> spectral_factors -> design_clusters (r = 4)
    -> evaluate_partition of the designed partition, on the n = 100 plant."""

    name = "gap-design-n100"
    n = 100
    r = 4
    restarts = 10

    def run(self, inst):
        g = inst.g
        yd = gapdesign.reference_youla_data(g)
        sf = gapdesign.spectral_factors(yd, g.d12, g.d21)
        designed = gapdesign.design_clusters(
            sf, inst.weights, self.r, rng=np.random.default_rng(self.seed),
            restarts=self.restarts)
        rep = gapdesign.evaluate_partition(g, designed, inst.weights)
        return {"h2_cost": rep.j2_star, "j1": rep.j1_star,
                "bound_rhs": rep.bound_rhs, "designed": designed}

    def check(self, outs):
        planted = self.inst.partition
        j1_ref = None
        reasons = []
        for o in outs:
            if o is None:
                reasons.append("op raised")
                continue
            if j1_ref is None:
                j1_ref = synthesis.synthesize_unconstrained(self.inst.g).h2_value
            j1, j2, rhs = o["j1"], o["h2_cost"], o["bound_rhs"]
            if not j1 <= j2 <= rhs:
                reasons.append(f"J1*={j1!r} <= J2*={j2!r} <= bound={rhs!r} fails")
            elif _rel_err(j1, j1_ref) > REL_TOL:
                reasons.append(f"J1* {j1!r} differs from the unconstrained "
                               f"optimum {j1_ref!r}")
            elif not (_same_sets(o["designed"].input_sets, planted.input_sets)
                      and _same_sets(o["designed"].output_sets,
                                     planted.output_sets)):
                reasons.append("designed partition differs from the planted one")
            else:
                reasons.append(None)
        return reasons

    def extras(self, outs):
        return {
            "gap_ratio": (statistics.median(o["h2_cost"] / o["j1"] for o in outs), "1"),
            "bound_ratio": (statistics.median(o["bound_rhs"] / o["h2_cost"]
                                              for o in outs), "1"),
        }


WORKLOADS = {w.name: w for w in (SynthKrylov, SynthExactSim, GapDesign)}
