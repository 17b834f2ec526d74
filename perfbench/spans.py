"""Span tracing of telab's public layer functions, recorded from outside the program.

``patched`` swaps each public function for a timing wrapper in the module
namespace where ``telab.cli``, ``telab.harness`` and ``telab.temodels`` look
it up, and restores the originals afterwards.  No private name is touched.
Spans are kept in memory: name, start, end, parent span, and counts read
from the function's arguments and result.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.solved: list[tuple] = []  # (LpProblem, LpSolution) of every solve call
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(self, span, args, result)
            return result

        return traced

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in self.spans)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Duration of the named spans minus the part their child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        return sum(s.duration - child_time[i]
                   for i, s in enumerate(self.spans) if s.name == name)


def _tunnels(tracer, span, args, ts):
    span.counts["tunnels"] = ts.total


def _model(tracer, span, args, model):
    span.counts["rows"] = model.meta.n_constraints
    span.counts["vars"] = model.meta.n_vars


def _solve(tracer, span, args, sol):
    span.counts["iterations"] = sol.iterations
    span.counts["failures"] = int(sol.status != "optimal")
    tracer.solved.append((args[0], sol))


# (module, public name, span name, count reader)
LAYERS = [
    ("cli", "calibrate_capacities", "harness.calibrate", None),
    ("cli", "run_experiment", "harness.run_experiment", None),
    ("cli", "build_tunnel_sets", "tunnels.build_tunnel_sets", _tunnels),
    ("harness", "build_tunnel_sets", "tunnels.build_tunnel_sets", _tunnels),
    ("cli", "build_te_lp", "temodels.build", _model),
    ("cli", "build_ffc_lp", "temodels.build", _model),
    ("harness", "build_te_lp", "temodels.build", _model),
    ("harness", "build_ffc_lp", "temodels.build", _model),
    ("cli", "solve_model", "temodels.solve_model", None),
    ("harness", "solve", "lpcore.solve", _solve),
    ("lpcore", "solve", "lpcore.solve", _solve),  # looked up by temodels as lpcore.solve
    ("harness", "extract_solution", "temodels.extract", None),
    ("temodels", "extract_solution", "temodels.extract", None),
    ("cli", "verify_congestion_free", "temodels.verify", None),
    ("harness", "verify_congestion_free", "temodels.verify", None),
    ("cli", "solution_to_dict", "temodels.dump", None),
    ("harness", "solution_to_dict", "temodels.dump", None),
    ("cli", "compute_metrics", "metrics.compute", None),
    ("harness", "compute_metrics", "metrics.compute", None),
]


@contextmanager
def patched(tracer: Tracer):
    """Wrap every layer function for the duration of the block.

    Yields the names that were not found, so a renamed function shows up as
    a warning rather than a crash of the benchmark.
    """
    saved, missing = [], []
    try:
        for module, name, span_name, on_return in LAYERS:
            mod = sys.modules[f"telab.{module}"]
            fn = getattr(mod, name, None)
            if fn is None:
                missing.append(f"telab.{module}.{name}")
                continue
            saved.append((mod, name, fn))
            setattr(mod, name, tracer.wrap(span_name, fn, on_return))
        yield missing
    finally:
        for mod, name, fn in reversed(saved):
            setattr(mod, name, fn)


def layer_metrics(main: Tracer, calibrate: Tracer, recheck_s: float,
                  overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of the main command, plus the calibrate command's solves."""
    solve_s = main.total("lpcore.solve")
    iterations = main.count("iterations")
    return {
        "tunnels.ksp_s": main.total("tunnels.build_tunnel_sets"),
        "tunnels.tunnels": main.count("tunnels"),
        "temodels.build_s": main.total("temodels.build"),
        "temodels.rows": main.count("rows"),
        "temodels.vars": main.count("vars"),
        "lpcore.solve_s": solve_s,
        "lpcore.iterations": iterations,
        "lpcore.s_per_iter": solve_s / iterations if iterations else 0.0,
        "lpcore.failures": main.count("failures"),
        "lpcore.recheck_s": recheck_s,
        "temodels.extract_s": main.total("temodels.extract"),
        "temodels.verify_s": main.total("temodels.verify"),
        "temodels.dump_s": main.total("temodels.dump"),
        "metrics.compute_s": main.total("metrics.compute"),
        "harness.calibrate_s": calibrate.total("harness.calibrate"),
        "harness.calibrate_solves": calibrate.calls("lpcore.solve"),
        "harness.self_s": main.self_time("harness.run_experiment"),
        "cli.self_s": main.self_time("cli.cli_main"),
        "trace.overhead_s": overhead_s,
    }


LAYER_UNITS = {name: ("s" if name.endswith("_s") or name.endswith("_iter") else "count")
               for name in layer_metrics(Tracer(), Tracer(), 0.0, 0.0)}
