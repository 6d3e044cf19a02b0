"""Per-layer counters and timers, recorded from outside the program.

`Tracer.install` rebinds each traced public function of `entwit` to a
wrapper, in every `entwit` module that holds a reference to it, and wraps
`numpy.linalg.eigvalsh` and `numpy.linalg.eigh`, which `entwit` looks up
at call time.  A wrapper records calls, inclusive time and the time spent in
traced callees, so a layer's self time is its inclusive time minus that.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

import numpy as np

# (module, function, span key); `Tracer.per_layer` turns spans into metrics.
FUNCTIONS = [
    ("entwit.operators", "partial_transpose", "operators.partial_transpose"),
    ("entwit.operators", "hs_inner", "operators.hs_inner"),
    ("entwit.families", "simplex_state", "families.simplex_state"),
    ("entwit.weyl", "weyl_expand", "weyl.weyl_expand"),
    ("entwit.witness", "certify_witness", "witness.certify_witness"),
    ("entwit.witness", "line_witness", "witness.line_witness"),
    ("entwit.witness", "hs_measure_gamma0", "witness.hs_measure_gamma0"),
    ("entwit.ppt", "min_separable_expectation", "ppt.min_separable_expectation"),
    ("entwit.ppt", "nearest_ppt", "ppt.nearest_ppt"),
    ("entwit.atlas", "classify_point", "atlas.classify_point"),
    ("entwit.atlas", "slice_sweep", "atlas.slice_sweep"),
    ("entwit.cli", "main", "cli.main"),
]
METHODS = [
    ("entwit.operators", "BipartiteOperator", "__post_init__",
     "operators.BipartiteOperator"),
    ("entwit.operators", "DensityMatrix", "__init__", "operators.DensityMatrix"),
    ("entwit.atlas", "SweepReport", "to_csv", "atlas.to_csv"),
]
NUMPY = [("eigvalsh", "linalg.eigvalsh"), ("eigh", "linalg.eigh")]
# The 16 check functions `run_battery` calls, in its order.
BATTERY_CHECKS = [
    "check_total_minimum_closed_form", "check_total_minimum_scan",
    "check_crossing_equality", "check_crossing_sign_flip",
    "check_detection_boundary", "check_detection_endpoints",
    "check_horodecki_pt_classes", "check_pt_sign_changes",
    "check_embedding", "check_gamma0_measures", "check_certifications",
    "check_sampler_floor", "check_closed_form_coefficients",
    "check_nearest_ppt", "check_spectrum_closed_form",
    "check_bell_orthonormality",
]
FUNCTIONS += [("entwit.reproduce", name, "reproduce." + name[len("check_"):])
              for name in BATTERY_CHECKS]


@dataclass
class Span:
    calls: int = 0
    total: float = 0.0
    children: float = 0.0


class Tracer:
    """Counts and times calls while `active`; costs one flag test otherwise."""

    def __init__(self):
        self.active = False
        keys = [key for _, _, key in FUNCTIONS] + [m[3] for m in METHODS] \
            + [key for _, key in NUMPY]
        self.spans: dict[str, Span] = {key: Span() for key in keys}
        self.tallies: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def tally(self, key: str, amount: float):
        self.tallies[key] = self.tallies.get(key, 0.0) + amount

    def _wrap(self, key: str, fn, observe=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                span = self.spans[key]
                span.calls += 1
                span.total += elapsed
                span.children += frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _rebind(self, owner, name: str, wrapper):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def install(self):
        """Wrap every traced name in the currently imported entwit modules."""
        observers = {
            "ppt.min_separable_expectation":
                lambda args, _r: self.tally("product_states", args[1].count),
            "ppt.nearest_ppt":
                lambda _a, r: self.tally("dykstra_iterations", r.iterations),
            "atlas.classify_point":
                lambda _a, r: self.tally("valid_points", bool(r.valid)),
        }
        modules = [m for name, m in list(sys.modules.items())
                   if name == "entwit" or name.startswith("entwit.")]
        for module_name, func_name, key in FUNCTIONS:
            original = getattr(sys.modules[module_name], func_name, None)
            if original is None:
                sys.stderr.write(f"trace: {module_name}.{func_name} not found\n")
                continue
            wrapper = self._wrap(key, original, observers.get(key))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, wrapper)
        for module_name, cls_name, method, key in METHODS:
            cls = getattr(sys.modules[module_name], cls_name, None)
            if cls is None or method not in vars(cls):
                sys.stderr.write(f"trace: {cls_name}.{method} not found\n")
                continue
            self._rebind(cls, method, self._wrap(key, vars(cls)[method]))
        for func_name, key in NUMPY:
            self._rebind(np.linalg, func_name,
                         self._wrap(key, getattr(np.linalg, func_name)))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def per_layer(self, ops: int, wall_s: float, cpu_s: float,
                  cache_misses: int) -> dict:
        """Every per-layer metric, per operation of the traced run, by layer."""
        spans, tallies = self.spans, self.tallies
        metrics = {}

        def put(name, value, unit):
            metrics[name] = {"value": value, "unit": unit}

        def calls_and_seconds(key, calls_name=None):
            put(calls_name or key + ".calls", spans[key].calls / ops, "count")
            put(key + ".s", spans[key].total / ops, "s")

        calls_and_seconds("operators.BipartiteOperator",
                          "operators.BipartiteOperator.created")
        metrics.pop("operators.BipartiteOperator.s")
        calls_and_seconds("operators.DensityMatrix",
                          "operators.DensityMatrix.created")
        for key in ("operators.partial_transpose", "operators.hs_inner",
                    "linalg.eigvalsh", "linalg.eigh", "families.simplex_state",
                    "weyl.weyl_expand", "witness.certify_witness",
                    "witness.line_witness", "witness.hs_measure_gamma0",
                    "ppt.min_separable_expectation"):
            calls_and_seconds(key)
        sampler_s = spans["ppt.min_separable_expectation"].total
        states = tallies.get("product_states", 0.0)
        put("ppt.product_states", states / ops, "count")
        put("ppt.product_states_per_s", states / sampler_s if sampler_s else 0.0,
            "1/s")
        calls_and_seconds("ppt.nearest_ppt")
        iterations = tallies.get("dykstra_iterations", 0.0)
        put("ppt.nearest_ppt.iterations", iterations / ops, "count")
        put("ppt.dykstra_iteration_s",
            spans["ppt.nearest_ppt"].total / iterations if iterations else 0.0,
            "s")
        calls_and_seconds("atlas.classify_point")
        put("atlas.slice_sweep.s", spans["atlas.slice_sweep"].total / ops, "s")
        put("atlas.to_csv.s", spans["atlas.to_csv"].total / ops, "s")
        put("atlas.points.classified", spans["atlas.classify_point"].calls / ops,
            "count")
        put("atlas.points.valid", tallies.get("valid_points", 0.0) / ops, "count")
        put("atlas.line_witness.cache_misses", cache_misses / ops, "count")
        for name in BATTERY_CHECKS:
            key = "reproduce." + name[len("check_"):]
            put(key + ".s", spans[key].total / ops, "s")
        main = spans["cli.main"]
        put("cli.main.calls", main.calls / ops, "count")
        put("cli.main.self_s", (main.total - main.children) / ops, "s")
        put("process.cpu_per_wall", cpu_s / wall_s, "ratio")
        return metrics
