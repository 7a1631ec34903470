"""The package names the benchmark harness traces.

BENCHMARK.json lists per-layer metrics `<layer>.<fn>.calls`; the harness
wraps `stockrationing.<layer>.<fn>` to count them and fails when a name is
missing.  This test checks the same names without running the harness.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def traced_names():
    metrics = (entry["name"].split(".") for entry in json.loads(BENCHMARK.read_text())["per_layer"])
    return [(parts[0], parts[1]) for parts in metrics if len(parts) == 3 and parts[2] == "calls"]


def test_every_traced_name_is_a_public_function_of_its_layer():
    names = traced_names()
    assert names
    for layer, fn in names:
        module = importlib.import_module(f"stockrationing.{layer}")
        value = getattr(module, fn, None)
        assert not fn.startswith("_") and inspect.isfunction(value), f"{layer}.{fn}"
        assert (value.__module__, value.__name__) == (module.__name__, fn), \
            f"{layer}.{fn} is defined elsewhere or under another name"
