"""Span tracing around the package's public functions, from outside the package.

`Tracer.install` wraps every public function defined in a layer module and
rebinds the wrapper at every module attribute bound to that function (for
example both `sensitivity.penalty_roots` and `optimizer.penalty_roots`), so
calls between layers are seen too.  Spans stay in memory; `write` dumps them
as JSON lines when the run ends.  Each span carries its parent span and the
id of the op that caused it.  Self time is the span's duration minus the time
its child spans cover; the probes that fill the counters below run after a
span closes and are charged to no span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import stockrationing

from checks import event_rates

LAYERS = ("model", "chain", "poisson", "sensitivity", "staticpol", "optimizer", "sim", "cli")
EPS = float(np.finfo(float).eps)


def _layer_modules():
    return {name: sys.modules[f"stockrationing.{name}"] for name in LAYERS}


def _public_functions():
    """(layer, function) for every public function defined in a layer module."""
    for layer, mod in _layer_modules().items():
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == mod.__name__):
                yield layer, value


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent, op, name, start, end, self)
        self.counters = Counter()
        self.residual_over_floor_max = 0.0
        self.op_id = None
        self._stack = []         # [span id, child time] of open spans
        self._next_id = 0
        self._saved = []         # (module, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(fn, f"{layer}.{fn.__name__}")
                    for layer, fn in _public_functions()}
        modules = [stockrationing, *_layer_modules().values()]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def _wrap(self, fn, name):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, self.op_id, name, start, end,
                                   end - start - frame[1]))
            extra = 0.0
            if probe is not None:
                probe(self, args, kwargs, result)
                extra = perf_counter() - end
            if self._stack:
                self._stack[-1][1] += end - start + extra
            return result

        return wrapper

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end, self_t in self.spans:
                fh.write(json.dumps([sid, parent, op, name, round(start * 1e6, 1),
                                     round(end * 1e6, 1), round(self_t * 1e6, 1)]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls and self time, per-layer self time, and the counters."""
        calls = Counter()
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        by_id = {}
        for span in self.spans:
            sid, parent, _, name, start, end, self_t = span
            by_id[sid] = span
            calls[name] += 1
            self_s[name] += self_t
            total_s[name] += end - start
        out: dict[str, float] = {}
        for layer, fn in _public_functions():
            name = f"{layer}.{fn.__name__}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_s[name] * 1e3
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = sum(v for k, v in self_s.items()
                                          if k.startswith(layer + ".")) * 1e3

        def parent_name(span):
            return by_id[span[1]][3] if span[1] is not None else None

        def under(span, ancestor):
            while span[1] is not None:
                span = by_id[span[1]]
                if span[3] == ancestor:
                    return True
            return False

        opt = "optimizer.global_optimal"
        n_opt = calls[opt]
        in_opt = Counter(s[3] for s in self.spans if s[3] != opt and under(s, opt))
        c = self.counters
        out["optimizer.candidates_tried"] = in_opt["chain.average_profit"]
        out["sensitivity.penalty_roots.calls_per_optimize"] = (
            in_opt["sensitivity.penalty_roots"] / n_opt if n_opt else 0.0)
        out["staticpol.fallback_calls"] = sum(
            1 for s in self.spans
            if s[3] == "chain.average_profit"
            and parent_name(s) == "staticpol.static_profit_closed_form")
        for key in ("poisson.nonfinite", "sensitivity.infinite_roots", "optimizer.iterations",
                    "optimizer.cycles", "optimizer.region.HighPenalty",
                    "optimizer.region.LowPenalty", "optimizer.region.Middle", "sim.events"):
            out[key] = c[key]
        out["poisson.residual_over_floor_max"] = self.residual_over_floor_max
        bf_s = total_s["optimizer.brute_force_optimal"]
        out["optimizer.enum_policies_per_s"] = c["optimizer.enum_policies"] / bf_s if bf_s else 0.0
        sim_s = total_s["sim.simulate"]
        out["sim.events_per_s"] = c["sim.events"] / sim_s if sim_s else 0.0
        return out


# -- probes: counters read off a call's arguments and result -----------------


def _probe_potential(tracer, args, kwargs, g):
    if not np.all(np.isfinite(g)):
        tracer.counters["poisson.nonfinite"] += 1


def _probe_solve_poisson(tracer, args, kwargs, sol):
    p = args[0] if args else kwargs["params"]
    if np.isfinite(sol.residual) and np.all(np.isfinite(sol.g)):
        floor = EPS * (1 + float(np.max(np.abs(sol.g)))) * (p.lam + p.mu1 + p.mu2)
        tracer.residual_over_floor_max = max(tracer.residual_over_floor_max, sol.residual / floor)


def _probe_penalty_roots(tracer, args, kwargs, profile):
    tracer.counters["sensitivity.infinite_roots"] += int(np.sum(np.isinf(profile.roots)))


def _probe_global_optimal(tracer, args, kwargs, result):
    c = tracer.counters
    c[f"optimizer.region.{result.region}"] += 1
    c["optimizer.iterations"] += getattr(result, "iterations", 0)
    c["optimizer.cycles"] += int(bool(getattr(result, "cycle_without_improvement", False)))


def _probe_brute_force(tracer, args, kwargs, result):
    p = args[0] if args else kwargs["params"]
    tracer.counters["optimizer.enum_policies"] += 2 ** p.threshold


def _probe_simulate(tracer, args, kwargs, est):
    """Jumps computed from the returned occupancy, not counted by the simulator."""
    p, policy = args[0], args[1]
    rates = event_rates(p, policy)
    tracer.counters["sim.events"] += int(round(
        est.replications * est.horizon * float(est.occupancy @ rates)))


PROBES = {
    "poisson.potential_for_reward": _probe_potential,
    "poisson.solve_poisson": _probe_solve_poisson,
    "sensitivity.penalty_roots": _probe_penalty_roots,
    "optimizer.global_optimal": _probe_global_optimal,
    "optimizer.brute_force_optimal": _probe_brute_force,
    "sim.simulate": _probe_simulate,
}
