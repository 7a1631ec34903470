"""The package names the benchmark harness traces.

BENCHMARK.json lists per-layer metrics `<layer>.<fn>.calls`; the harness
wraps `stockrationing.<layer>.<fn>` to count them and fails when a name is
missing.  This test checks the same names without running the harness.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
READERS = ("stationary_distribution", "profit_linear_form", "penalty_roots", "classify_sign",
           "solve_poisson", "PoissonSolution", "potential_for_reward",
           "realization_factors_from_potential")


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


def test_the_package_leaves_the_reader_modules_to_the_benchmark():
    # `stockrationing` solves through `chain_record` alone: a fresh import
    # loads neither module of the readers above, and exports none of them.
    code = ("import sys, stockrationing; "
            "print([m for m in ('poisson', 'sensitivity') if f'stockrationing.{m}' in sys.modules]); "
            f"print([n for n in {READERS!r} if hasattr(stockrationing, n)])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True).stdout
    assert out == "[]\n[]\n"
