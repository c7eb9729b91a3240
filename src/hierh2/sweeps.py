"""Experiment sweeps over kappa, network size, and cluster count.

Each sweep maps a row key to one isolated computation and assembles
order-stable CSV rows; per-row failures are recorded in a status column and
the sweep continues.  Timing columns measure controller construction only
(Riccati solves plus gain assembly) and are excluded from determinism
claims; all other columns are byte-reproducible for a fixed config and seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import Tolerances, tolerance_profile
from .errors import ToolkitError
from .gapdesign import (design_clusters, evaluate_partition,
                        reference_youla_data, spectral_factors)
from .plant import GeneralizedPlant, NetworkSpec, generate_consensus_network
from .projection import ClusterPartition, WeightVectors, feasible_weights
from .serialize import write_csv
from .synthesis import synthesize_hierarchical

__all__ = ["ExperimentConfig", "sweep_kappa", "sweep_size", "sweep_r",
           "KAPPA_FIELDS", "SIZE_FIELDS", "R_FIELDS"]

KAPPA_FIELDS = ["kappa", "solve_time_s", "h2_norm", "h2_ratio",
                "epsilon_bound", "certified", "closed_loop_abscissa", "status"]
SIZE_FIELDS = ["n", "time_exact_s", "time_approx_s", "h2_exact", "h2_approx",
               "status"]
R_FIELDS = ["r", "J1", "J2", "ratio", "xi_u", "xi_y", "xi", "bound_rhs",
            "partition_recovery", "status"]


@dataclass
class ExperimentConfig:
    """Sweep configuration; see README for the JSON key reference."""

    n_s: int = 100
    n_blocks: int = 4
    p_in: float = 0.8
    p_out: float = 0.01
    a_lo: float = 2.0
    a_hi: float = 3.0
    c1_scale: float = 10.0
    b1_scale: float = 10.0
    seed: int = 7
    partition_source: str = "planted"          # planted | designed | file
    partition_file: str | None = None
    weight_policy: str = "ones"                # ones | eigenspan
    kappa_list: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    r_list: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    n_list: tuple[int, ...] = (100, 200, 400, 800, 1600)
    kappa: int = 4                             # approx backend order
    method: str = "krylov"                     # dense | krylov for sweeps
    exact_time_cap_s: float = 600.0
    tol_profile: str = "default"
    degree_preserving: bool = True             # scale p_in/p_out with 1/n
    restarts: int = 10

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        doc = dict(doc)
        for key in ("kappa_list", "r_list", "n_list"):
            if key in doc:
                doc[key] = tuple(int(v) for v in doc[key])
        return cls(**doc)

    def as_dict(self) -> dict:
        out = {}
        for name in self.__dataclass_fields__:
            val = getattr(self, name)
            out[name] = list(val) if isinstance(val, tuple) else val
        return out

    @property
    def tolerances(self) -> Tolerances:
        return tolerance_profile(self.tol_profile)

    def network_spec(self, n_s: int | None = None) -> NetworkSpec:
        n_s = self.n_s if n_s is None else n_s
        p_in, p_out = self.p_in, self.p_out
        if self.degree_preserving and n_s != self.n_s:
            # keep expected degrees fixed so larger networks stay sparse
            scale = self.n_s / n_s
            p_in = min(1.0, self.p_in * scale)
            p_out = min(0.999 * p_in, self.p_out * scale)
        return NetworkSpec.even_blocks(
            n_s=n_s, n_blocks=self.n_blocks, p_in=p_in, p_out=p_out,
            a_lo=self.a_lo, a_hi=self.a_hi, seed=self.seed)

    def plant(self, n_s: int | None = None) -> GeneralizedPlant:
        return generate_consensus_network(
            self.network_spec(n_s), c1_scale=self.c1_scale,
            b1_scale=self.b1_scale)

    def planted_partition(self, g: GeneralizedPlant,
                          n_s: int | None = None) -> ClusterPartition:
        spec = self.network_spec(n_s)
        return ClusterPartition.from_subsystems(spec.planted_partition, g)

    def weights(self, g: GeneralizedPlant,
                partition: ClusterPartition) -> WeightVectors:
        if self.weight_policy == "ones":
            return WeightVectors.ones(g.n_u, g.n_y)
        if self.weight_policy == "eigenspan":
            return feasible_weights(g, partition,
                                    rng=np.random.default_rng(self.seed))
        raise ValueError(f"unknown weight policy {self.weight_policy!r}")


def _partition_for(config: ExperimentConfig, g: GeneralizedPlant,
                   r: int | None = None) -> ClusterPartition:
    if config.partition_source == "planted":
        return config.planted_partition(g)
    if config.partition_source == "file":
        from .serialize import load_partition
        part, _ = load_partition(config.partition_file)
        return part
    if config.partition_source == "designed":
        yd = reference_youla_data(g, config.tolerances)
        sf = spectral_factors(yd, g.d12, g.d21, config.tolerances)
        weights = WeightVectors.ones(g.n_u, g.n_y)
        return design_clusters(sf, weights, r or config.n_blocks,
                               rng=np.random.default_rng(config.seed),
                               restarts=config.restarts)
    raise ValueError(f"unknown partition source {config.partition_source!r}")


def sweep_kappa(config: ExperimentConfig, out_dir=None) -> list[dict]:
    """One row per kappa with the approx backend plus one exact row.

    h2_ratio normalizes each approximate closed-loop norm by the
    exact-backend value.  ``certified`` is the residue certificate of both
    truncated Riccati solutions (blank on the exact row);
    ``closed_loop_abscissa`` is the abscissa that decided stability.
    """
    tol = config.tolerances
    g = config.plant()
    partition = _partition_for(config, g)
    weights = config.weights(g, partition)
    from .projection import build_projection
    p = build_projection(partition, weights)

    exact = synthesize_hierarchical(g, p, tol=tol)
    rows = [{
        "kappa": "exact", "solve_time_s": exact.solve_time,
        "h2_norm": exact.h2_value, "h2_ratio": 1.0, "epsilon_bound": None,
        "certified": None, "closed_loop_abscissa": exact.closed_loop_abscissa,
        "status": "ok",
    }]

    def one(kappa: int) -> dict:
        try:
            res = synthesize_hierarchical(
                g, p, are_backend="approx", kappa=kappa,
                method=config.method, tol=tol)
            eps_bound = None
            if config.method == "dense":
                sol = res.x_solution
                if sol.epsilon is None and sol.subspace_full is not None:
                    from .hamiltonian import error_bound
                    eps, bnd = error_bound(sol, sol.subspace_full.z1,
                                           sol.subspace_full, g.b1, tol)
                    eps_bound = bnd
                elif sol.epsilon is not None and sol.e_kappa_norm is not None:
                    eps_bound = sol.epsilon * sol.e_kappa_norm
            return {
                "kappa": kappa, "solve_time_s": res.solve_time,
                "h2_norm": res.h2_value,
                "h2_ratio": res.h2_value / exact.h2_value,
                "epsilon_bound": eps_bound,
                "certified": bool(res.x_solution.stabilizing
                                  and res.y_solution.stabilizing),
                "closed_loop_abscissa": res.closed_loop_abscissa,
                "status": "ok",
            }
        except ToolkitError as e:
            return {"kappa": kappa, "solve_time_s": None, "h2_norm": None,
                    "h2_ratio": None, "epsilon_bound": None,
                    "certified": None, "closed_loop_abscissa": None,
                    "status": f"error: {e}"}

    rows += [one(kappa) for kappa in config.kappa_list]
    if out_dir is not None:
        write_csv(Path(out_dir) / "kappa_sweep.csv", KAPPA_FIELDS, rows)
    return rows


def sweep_size(config: ExperimentConfig, out_dir=None) -> list[dict]:
    """Construction-time scaling of the exact versus approximate backends.

    The exact column is capped: once a row exceeds exact_time_cap_s the
    remaining exact cells are left blank.
    """
    tol = config.tolerances
    n_list = sorted(config.n_list)
    exact_dead = False
    rows = []
    for n in n_list:
        g = config.plant(n)
        partition = config.planted_partition(g, n)
        weights = config.weights(g, partition)
        from .projection import build_projection
        p = build_projection(partition, weights)
        row: dict = {"n": n, "status": "ok"}
        try:
            res_a = synthesize_hierarchical(
                g, p, are_backend="approx", kappa=config.kappa,
                method=config.method, tol=tol)
            row["time_approx_s"] = res_a.solve_time
            row["h2_approx"] = res_a.h2_value
        except ToolkitError as e:
            row["time_approx_s"] = row["h2_approx"] = None
            row["status"] = f"approx error: {e}"
        if exact_dead:
            row["time_exact_s"] = row["h2_exact"] = None
        else:
            try:
                res_e = synthesize_hierarchical(g, p, tol=tol)
                row["time_exact_s"] = res_e.solve_time
                row["h2_exact"] = res_e.h2_value
                if res_e.solve_time > config.exact_time_cap_s:
                    exact_dead = True
            except ToolkitError as e:
                row["time_exact_s"] = row["h2_exact"] = None
                row["status"] = f"exact error: {e}"
        rows.append(row)
    if out_dir is not None:
        write_csv(Path(out_dir) / "size_sweep.csv", SIZE_FIELDS, rows)
    return rows


def _partition_match(a, b) -> bool:
    """Partition equality up to cluster relabeling."""
    return set(frozenset(s) for s in a) == set(frozenset(s) for s in b)


def sweep_r(config: ExperimentConfig, out_dir=None) -> list[dict]:
    """Designed-clustering gap ratios for each r, with planted-recovery flag."""
    tol = config.tolerances
    g = config.plant()
    planted = config.network_spec().planted_partition
    yd = reference_youla_data(g, tol)
    sf = spectral_factors(yd, g.d12, g.d21, tol)
    weights = WeightVectors.ones(g.n_u, g.n_y)
    rng = np.random.default_rng(config.seed)

    def one(r: int) -> dict:
        try:
            partition = design_clusters(sf, weights, r, rng=rng,
                                        restarts=config.restarts)
            report = evaluate_partition(g, partition, weights, tol=tol)
            recovery = (_partition_match(partition.input_sets, planted)
                        if r == config.n_blocks else None)
            return {"r": r, "J1": report.j1_star, "J2": report.j2_star,
                    "ratio": report.ratio, "xi_u": report.xi_u,
                    "xi_y": report.xi_y, "xi": report.xi,
                    "bound_rhs": report.bound_rhs,
                    "partition_recovery": recovery, "status": "ok"}
        except ToolkitError as e:
            return {"r": r, "J1": None, "J2": None, "ratio": None,
                    "xi_u": None, "xi_y": None, "xi": None,
                    "bound_rhs": None, "partition_recovery": None,
                    "status": f"error: {e}"}

    rows = [one(r) for r in sorted(config.r_list)]
    if out_dir is not None:
        write_csv(Path(out_dir) / "r_sweep.csv", R_FIELDS, rows)
    return rows
