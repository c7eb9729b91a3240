"""The per-layer metrics in BENCHMARK.json name public functions.

``perfbench/run.py --trace 1`` wraps each function that a per-layer metric
``[setup.]<layer>.<fn>.(calls|busy_s|self_s)`` names, looking it up by name
in ``hierh2.<layer>``; renaming or privatising one breaks the trace.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
TRACED = re.compile(r"^(?:setup\.)?(\w+)\.(\w+)\.(?:calls|busy_s|self_s)$")


def test_per_layer_metrics_name_public_functions():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    traced = [TRACED.match(name) for name in names]
    traced = [t.groups() for t in traced if t]
    assert traced
    for layer, fn in traced:
        module = importlib.import_module(f"hierh2.{layer}")
        obj = getattr(module, fn, None)
        assert not fn.startswith("_"), f"{layer}.{fn} is private"
        assert inspect.isfunction(obj), f"hierh2.{layer} has no function {fn}"
        assert obj.__module__ == module.__name__, \
            f"{layer}.{fn} is defined in {obj.__module__}"
