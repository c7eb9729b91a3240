"""JSON document family for plants, partitions, controllers, and results.

Matrices are dense row-major nested lists; every document carries a "type"
tag.  Large plant matrices can optionally be exported in Matrix Market
format as sidecar files next to the main document.  Every stored matrix or
vector, in JSON or in a sidecar, is read by one decoder that turns a bad
value or an unreadable sidecar into an InvalidInput, and every nested object
or index array by another that does the same for a value of the wrong JSON
type.  Documents are written as one line; floats, in JSON and in CSV, are
written with repr, so identical values give byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import platform
import time
from pathlib import Path

import numpy as np
import scipy

from .errors import InvalidInput
from .plant import GeneralizedPlant, Subsystem
from .projection import ClusterPartition, WeightVectors
from .statespace import StateSpace
from .synthesis import HierarchicalController

__all__ = [
    "save_plant", "load_plant", "save_partition", "load_partition",
    "save_controller", "load_controller", "write_manifest", "write_csv",
    "config_hash",
]


def _mat(m) -> list:
    return np.asarray(m, float).tolist()


def _dump(doc: dict, path) -> None:
    """Write `doc` as one line of JSON with sorted keys.  Without an indent
    the json module runs its C encoder; floats are written with repr, so a
    load and save gives the same bytes."""
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def _load(path, doc_type: str | None = None) -> dict:
    """The JSON object in the file at `path`, whose "type" tag must be
    `doc_type` when one is given.  A file that cannot be read, is not valid
    JSON, holds anything but an object or carries another tag is an
    InvalidInput, and so is reading a key that one of its objects lacks."""
    class Document(dict):
        def __missing__(self, key):
            raise InvalidInput(f"{path} has no {key!r} key")

    try:
        doc = json.loads(Path(path).read_text(), object_hook=Document)
    except (OSError, ValueError) as e:
        raise InvalidInput(f"cannot read {path}: {e}") from None
    if not isinstance(doc, dict):
        raise InvalidInput(f"{path} does not hold a JSON object")
    if doc_type is not None and doc.get("type") != doc_type:
        raise InvalidInput(f"{path} is not a {doc_type} document")
    return doc


def _array(path, key: str, value, sidecar: bool = False) -> np.ndarray:
    """The float array stored under `key` of the document at `path`: the
    JSON array `value` or, with `sidecar`, the Matrix Market file named
    `value` next to the document.  A sidecar that cannot be read, or a value
    that is not a rectangular array of numbers, is an InvalidInput naming
    the file and the key."""
    try:
        return np.asarray(scipy.io.mmread(str(Path(path).parent / value))
                          if sidecar else value, float)
    except (OSError, ValueError, TypeError) as e:
        raise InvalidInput(f"{path}: {key!r} is not a numeric array: {e}") from None


def _nested(path, key: str, value, kind: str):
    """The value stored under `key` of the document at `path`, which must be
    a JSON object (`kind` "object"), an array ("array") or an array of
    integers ("index array", returned as a tuple).  Anything else is an
    InvalidInput naming the file and the key."""
    if kind == "object":
        ok = isinstance(value, dict)
    else:
        ok = isinstance(value, list) and (kind == "array" or all(
            isinstance(j, int) and not isinstance(j, bool) for j in value))
    if not ok:
        raise InvalidInput(f"{path}: {key!r} is not a JSON {kind}")
    return tuple(value) if kind == "index array" else value


def _index_sets(path, key: str, value) -> tuple[tuple[int, ...], ...]:
    """The array of index arrays stored under `key`, as nested tuples."""
    return tuple(_nested(path, f"{key}[{i}]", s, "index array")
                 for i, s in enumerate(_nested(path, key, value, "array")))


def save_plant(g: GeneralizedPlant, path, matrix_format: str = "json") -> None:
    """Write a plant document; matrix_format 'mm' stores the matrices as
    Matrix Market sidecar files referenced from the JSON."""
    path = Path(path)
    mats = {"a": g.a, "b1": g.b1, "b2": g.b2, "c1": g.c1, "c2": g.c2,
            "d12": g.d12, "d21": g.d21}
    doc = {
        "type": "generalized_plant",
        "subsystems": [
            {"states": list(s.states), "inputs": list(s.inputs),
             "outputs": list(s.outputs)} for s in g.subsystems
        ],
    }
    if matrix_format == "json":
        doc.update({k: _mat(v) for k, v in mats.items()})
    elif matrix_format == "mm":
        doc["matrix_files"] = {}
        for k, v in mats.items():
            side = path.with_suffix(f".{k}.mtx")
            scipy.io.mmwrite(str(side), np.asarray(v))
            doc["matrix_files"][k] = side.name
    else:
        raise InvalidInput(f"unknown matrix_format {matrix_format!r}")
    _dump(doc, path)


def load_plant(path) -> GeneralizedPlant:
    path = Path(path)
    doc = _load(path, "generalized_plant")
    sidecar = "matrix_files" in doc
    source = (_nested(path, "matrix_files", doc["matrix_files"], "object")
              if sidecar else doc)
    mats = {k: _array(path, k, source[k], sidecar)
            for k in ("a", "b1", "b2", "c1", "c2", "d12", "d21")}
    subsystems = []
    for i, s in enumerate(_nested(path, "subsystems", doc["subsystems"],
                                  "array")):
        key = f"subsystems[{i}]"
        s = _nested(path, key, s, "object")
        subsystems.append(Subsystem(*(
            _nested(path, f"{key}.{part}", s[part], "index array")
            for part in ("states", "inputs", "outputs"))))
    return GeneralizedPlant(subsystems=tuple(subsystems), **mats)


def save_partition(partition: ClusterPartition, path,
                   weights: WeightVectors | None = None) -> None:
    doc = {
        "type": "cluster_partition",
        "r": partition.r,
        "input_sets": [list(s) for s in partition.input_sets],
        "output_sets": [list(s) for s in partition.output_sets],
        "subsystem_sets": (None if partition.subsystem_sets is None
                           else [list(s) for s in partition.subsystem_sets]),
    }
    if weights is not None:
        doc["weights"] = {"w_u": weights.w_u.tolist(),
                          "w_y": weights.w_y.tolist()}
    _dump(doc, path)


def load_partition(path) -> tuple[ClusterPartition, WeightVectors | None]:
    doc = _load(path, "cluster_partition")
    partition = ClusterPartition(
        input_sets=_index_sets(path, "input_sets", doc["input_sets"]),
        output_sets=_index_sets(path, "output_sets", doc["output_sets"]),
        subsystem_sets=(None if doc.get("subsystem_sets") is None else
                        _index_sets(path, "subsystem_sets",
                                    doc["subsystem_sets"])))
    stored = doc.get("weights")
    weights = None if stored is None else WeightVectors(
        *(_array(path, f"weights.{k}",
                 _nested(path, "weights", stored, "object")[k])
          for k in ("w_u", "w_y")))
    return partition, weights


def save_controller(controller: HierarchicalController, path) -> None:
    k = controller.k_tilde
    doc = {
        "type": "hierarchical_controller",
        "p_u": _mat(controller.p_u),
        "p_y": _mat(controller.p_y),
        "k_tilde": {"a": _mat(k.a), "b": _mat(k.b), "c": _mat(k.c),
                    "d": _mat(k.d)},
    }
    _dump(doc, path)


def load_controller(path) -> HierarchicalController:
    doc = _load(path, "hierarchical_controller")
    kt = _nested(path, "k_tilde", doc["k_tilde"], "object")
    return HierarchicalController(
        p_u=_array(path, "p_u", doc["p_u"]),
        k_tilde=StateSpace(*(_array(path, f"k_tilde.{k}", kt[k])
                             for k in "abcd")),
        p_y=_array(path, "p_y", doc["p_y"]))


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(out_dir, config: dict, seed: int | None,
                   wall_clock_s: float) -> Path:
    """Record config hash, seed, versions, and wall clock for one run."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    from . import __version__
    doc = {
        "config_hash": config_hash(config),
        "config": config,
        "seed": seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "hierh2": __version__,
        },
        "wall_clock_s": wall_clock_s,
        "finished_unix": time.time(),
    }
    path = out_dir / "manifest.json"
    _dump(doc, path)
    return path


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def write_csv(path, fieldnames: list[str], rows: list[dict]) -> Path:
    """Deterministic CSV: fixed column order, repr-formatted floats."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(k)) for k in fieldnames])
    return path
