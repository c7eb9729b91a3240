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

from .config import Tolerances, tolerance_profile
from .errors import InvalidInput, ToolkitError
from .gapdesign import (design_clusters, monotone_gap_sweep,
                        reference_youla_data, spectral_factors)
from .hamiltonian import error_bound
from .plant import GeneralizedPlant, NetworkSpec, generate_consensus_network
from .projection import (ClusterPartition, WeightVectors, _policy_weights,
                         build_projection)
from .serialize import load_partition, write_csv
from .synthesis import _synthesize, synthesize_hierarchical

__all__ = ["ExperimentConfig", "load_weighted_partition", "sweep_kappa",
           "sweep_size", "sweep_r", "KAPPA_FIELDS", "SIZE_FIELDS", "R_FIELDS"]

KAPPA_FIELDS = ["kappa", "solve_time_s", "h2_norm", "h2_ratio",
                "epsilon_bound", "certified", "closed_loop_abscissa", "status"]
SIZE_FIELDS = ["n", "time_exact_s", "time_approx_s", "h2_exact", "h2_approx",
               "status"]
R_FIELDS = ["r", "J1", "J2", "ratio", "xi_u", "xi_y", "xi", "bound_rhs",
            "partition_recovery", "status"]

# the JSON values a config field takes, by its annotation
_JSON_TYPES = {"int": int, "float": (int, float), "str": str,
               "str | None": (str, type(None)), "bool": bool,
               "tuple[int, ...]": (list, tuple)}


def _of_type(value, kind: str) -> bool:
    """Whether `value` fits a config field annotated `kind`; a bool is never
    a number."""
    if kind == "tuple[int, ...]" and isinstance(value, (list, tuple)):
        return all(_of_type(v, "int") for v in value)
    return (isinstance(value, _JSON_TYPES[kind])
            and isinstance(value, bool) == (kind == "bool"))


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
        """The config of a JSON object; an unknown key or a value of the
        wrong type is an InvalidInput."""
        fields = cls.__dataclass_fields__
        unknown = set(doc) - set(fields)
        if unknown:
            raise InvalidInput(f"unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():
            if not _of_type(value, fields[key].type):
                raise InvalidInput(f"config key {key!r} takes "
                                   f"{fields[key].type}, got {value!r}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v
                      for k, v in doc.items()})

    def as_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in vars(self).items()}

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
        return _policy_weights(self.weight_policy, g, partition, self.seed,
                               self.tolerances)


def load_weighted_partition(path, policy: str, g: GeneralizedPlant, seed: int,
                            tol: Tolerances
                            ) -> tuple[ClusterPartition, WeightVectors]:
    """The partition file at `path` and its weights: the stored weights win,
    and a file without them gets the weight `policy`, run with `seed` and
    the run's tolerances `tol`."""
    partition, weights = load_partition(path)
    if weights is None:
        weights = _policy_weights(policy, g, partition, seed, tol)
    return partition, weights


def _partition_for(config: ExperimentConfig, g: GeneralizedPlant
                   ) -> tuple[ClusterPartition, WeightVectors]:
    """The sweep's partition and weights; only a partition file can carry
    weights of its own."""
    tol = config.tolerances
    if config.partition_source == "file":
        return load_weighted_partition(config.partition_file,
                                       config.weight_policy, g, config.seed,
                                       tol)
    if config.partition_source == "planted":
        partition = config.planted_partition(g)
    elif config.partition_source == "designed":
        sf = spectral_factors(reference_youla_data(g, tol), g.d12, g.d21, tol)
        partition = design_clusters(sf, WeightVectors.ones(g.n_u, g.n_y),
                                    config.n_blocks, rng=config.seed,
                                    restarts=config.restarts)
    else:
        raise InvalidInput(
            f"unknown partition source {config.partition_source!r}")
    return partition, config.weights(g, partition)


def sweep_kappa(config: ExperimentConfig, out_dir=None) -> list[dict]:
    """One row per kappa with the approx backend plus one exact row.

    The exact row is one :func:`synthesize_hierarchical` call, which checks
    the hypotheses on the plant and pair.  The kappa rows then run on the
    exact row's pair of Riccati equations (``exact.x_solution.hs``,
    ``exact.y_solution.hs``), so that the pair is built once, and with the
    dense method each equation is decomposed once, on the first row, and
    every later row reuses its cached stable subspace.  h2_ratio
    normalizes each approximate closed-loop norm by the exact-backend
    value.  ``certified``
    is the residue certificate of both truncated Riccati solutions (blank
    on the exact row), computed here, as it is read;
    ``closed_loop_abscissa`` is the abscissa that decided stability.
    """
    tol = config.tolerances
    g = config.plant()
    p = build_projection(*_partition_for(config, g))

    exact = synthesize_hierarchical(g, p, tol=tol)
    hs_x, hs_y = exact.x_solution.hs, exact.y_solution.hs
    rows = [dict.fromkeys(KAPPA_FIELDS) | {
        "kappa": "exact", "solve_time_s": exact.solve_time,
        "h2_norm": exact.h2_value, "h2_ratio": 1.0,
        "closed_loop_abscissa": exact.closed_loop_abscissa, "status": "ok"}]

    def one(kappa: int) -> dict:
        try:
            res = _synthesize(g, p, hs_x, hs_y, "approx", kappa,
                              config.method, tol)
            eps_bound = (error_bound(res.x_solution, g.b1, tol)[1]
                         if config.method == "dense" else None)
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
            return (dict.fromkeys(KAPPA_FIELDS)
                    | {"kappa": kappa, "status": f"error: {e}"})

    rows += [one(kappa) for kappa in config.kappa_list]
    if out_dir is not None:
        write_csv(Path(out_dir) / "kappa_sweep.csv", KAPPA_FIELDS, rows)
    return rows


def sweep_size(config: ExperimentConfig, out_dir=None) -> list[dict]:
    """Construction-time scaling of the exact versus approximate backends.

    The exact column is capped: once a row exceeds exact_time_cap_s the
    remaining exact cells are left blank.  A row whose plant, weights or
    projection fail reads ``error: ...``; a row where a backend fails reads
    ``approx error: ...`` or ``exact error: ...``, and both, joined by
    "; ", when both fail.
    """
    tol = config.tolerances
    exact_dead = False
    rows = []
    for n in sorted(config.n_list):
        row = dict.fromkeys(SIZE_FIELDS) | {"n": n}
        rows.append(row)
        try:
            g = config.plant(n)
            partition = config.planted_partition(g, n)
            p = build_projection(partition, config.weights(g, partition))
        except ToolkitError as e:
            row["status"] = f"error: {e}"
            continue
        errors = []
        try:
            res_a = synthesize_hierarchical(
                g, p, are_backend="approx", kappa=config.kappa,
                method=config.method, tol=tol)
            row["time_approx_s"] = res_a.solve_time
            row["h2_approx"] = res_a.h2_value
        except ToolkitError as e:
            errors.append(f"approx error: {e}")
        if not exact_dead:
            try:
                res_e = synthesize_hierarchical(g, p, tol=tol)
                row["time_exact_s"] = res_e.solve_time
                row["h2_exact"] = res_e.h2_value
                exact_dead = res_e.solve_time > config.exact_time_cap_s
            except ToolkitError as e:
                errors.append(f"exact error: {e}")
        row["status"] = "; ".join(errors) or "ok"
    if out_dir is not None:
        write_csv(Path(out_dir) / "size_sweep.csv", SIZE_FIELDS, rows)
    return rows


def _partition_match(a, b) -> bool:
    """Partition equality up to cluster relabeling."""
    return set(frozenset(s) for s in a) == set(frozenset(s) for s in b)


def sweep_r(config: ExperimentConfig, out_dir=None) -> list[dict]:
    """Designed-clustering gap ratios for each r, with planted-recovery flag.

    One :func:`monotone_gap_sweep` over the sorted r_list, seeded with
    config.seed; J1* and the clustering embeddings come from one
    unconstrained synthesis of the plant.
    """
    tol = config.tolerances
    g = config.plant()
    planted = config.network_spec().planted_partition
    yd = reference_youla_data(g, tol)
    sf = spectral_factors(yd, g.d12, g.d21, tol)
    weights = WeightVectors.ones(g.n_u, g.n_y)
    rows = []
    for row in monotone_gap_sweep(sf, weights, sorted(config.r_list),
                                  rng=config.seed, restarts=config.restarts,
                                  tol=tol):
        report = row.report
        if report is None:
            rows.append(dict.fromkeys(R_FIELDS)
                        | {"r": row.r, "status": f"error: {row.error}"})
            continue
        recovery = (_partition_match(row.partition.input_sets, planted)
                    if row.r == config.n_blocks else None)
        rows.append({"r": row.r, "J1": report.j1_star, "J2": report.j2_star,
                     "ratio": report.ratio, "xi_u": report.xi_u,
                     "xi_y": report.xi_y, "xi": report.xi,
                     "bound_rhs": report.bound_rhs,
                     "partition_recovery": recovery, "status": "ok"})
    if out_dir is not None:
        write_csv(Path(out_dir) / "r_sweep.csv", R_FIELDS, rows)
    return rows
