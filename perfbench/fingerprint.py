"""Output fingerprint at fixed instances, recorded by every run.

A later speed change compares these numbers with its parent's to show that
it moved none of them beyond the tolerances the tests assert.  The last two
instances reproduce the package's known numerical defects (a NaN potential
tail under strong downward drift, NumericalOverflow under strong upward
drift); they live here, outside the timed op set, so every workload's ops
stay correct while the defects stay visible in every run's output.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from importlib import resources

import numpy as np

from stockrationing import chain, model, optimizer, poisson, sensitivity

from workloads import EX1, EX1_COSTS


def instances() -> list[tuple[str, model.SystemParams]]:
    fixture = json.loads(resources.files("stockrationing")
                         .joinpath("fixtures/table2.json").read_text())
    return [
        ("example1/P=0.1", EX1.with_penalty(0.1)),
        ("example1/P=5", EX1.with_penalty(5.0)),
        ("example1/P=10", EX1.with_penalty(10.0)),
        ("table2", model.SystemParams.from_json_dict(fixture["params"])),
        ("example1/K=40/N=1e4/P=5", replace(EX1, capacity=10_000, threshold=40, penalty=5.0)),
        ("defect/down-drift/N=2000", replace(EX1, capacity=2000, penalty=5.0)),
        ("defect/up-drift/N=500", model.SystemParams(
            lam=5.0, mu1=0.5, mu2=0.5, capacity=500, threshold=15, penalty=5.0, **EX1_COSTS)),
    ]


def _num(x: float):
    """JSON-safe float: non-finite values become strings."""
    x = float(x)
    return x if math.isfinite(x) else str(x)


def record(name: str, p: model.SystemParams) -> dict:
    rec = {"name": name, "params": p.to_json_dict()}
    try:
        res = optimizer.global_optimal(p)
        rec.update(policy="".join(map(str, res.policy.decisions)), region=res.region,
                   eta=_num(res.eta))
        form = chain.profit_linear_form(p, res.policy)
        rec.update(D=_num(form.d_coef), F=_num(form.f_coef))
        rec["roots"] = [_num(r) for r in sensitivity.penalty_roots(p, res.policy).roots]
        sol = poisson.solve_poisson(p, res.policy)
        rec.update(residual=_num(sol.residual), finite_potential=bool(np.all(np.isfinite(sol.g))))
    except Exception as exc:  # a fixed instance that raises is recorded, not fatal
        rec["error"] = f"{type(exc).__name__}: {exc}"
    return rec


def fingerprint() -> list[dict]:
    return [record(name, p) for name, p in instances()]


def healthy(rec: dict) -> bool:
    return "error" not in rec and rec.get("finite_potential", False) \
        and isinstance(rec.get("residual"), float)
