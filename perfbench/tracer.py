"""Spans around the public functions of each layer, and the per-layer metrics.

The tracer wraps module and class attributes from outside the program: the
program carries no tracing code. A span records its name, start, end, its
parent span and an optional count taken from the return value (Perron
iterations, IBM events). Spans stay in memory and are written once, at exit.

A target that no longer exists at some commit (a renamed or merged
internal) is recorded as absent; the metrics that depend on it read 0.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import json
import statistics
import sys
import time

# (span name, module, attribute path, attribute of the return value to count)
# A "*" in the attribute path wraps every matching module attribute; the span
# name then ends in the matched attribute name.
TARGETS = (
    ("model.build_model", "structpop.model", "build_model", None),
    ("model.build_grids", "structpop.model", "build_grids", None),
    ("kernel.collapse", "structpop.kernel", "collapse", None),
    ("spectral.perron", "structpop.spectral", "perron", "iterations"),
    ("malthus.find_lambda_star", "structpop.malthus",
     "MalthusProblem.find_lambda_star", None),
    ("malthus.direct_profile", "structpop.malthus", "direct_profile", None),
    ("malthus.dual_profile", "structpop.malthus", "dual_profile", None),
    ("pde.run", "structpop.pde", "run", None),
    ("pde.step", "structpop.pde", "TransportSolver.step_nonlinear", None),
    ("pde.distances", "structpop.pde", "TransportSolver.distances", None),
    ("pde.growth_diag", "structpop.pde", "TransportSolver.growth_diag", None),
    ("ibm.simulate", "structpop.ibm", "simulate", "n_events"),
    ("ibm.sample_from_density", "structpop.ibm", "sample_from_density", None),
    ("ibm.martingale_series", "structpop.ibm", "martingale_series", None),
    ("cli.", "structpop.cli", "cmd_*", None),
    ("cli._write_csv", "structpop.cli", "_write_csv", None),
    ("ibm.phase.nonlinear", "ibm_workload", "nonlinear_phase", None),
    ("ibm.phase.linear", "ibm_workload", "linear_phase", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []      # [name id, start, end, parent, count]
        self._stack: list[int] = []
        self.absent: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, count_attr: str | None):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if count_attr is not None:
                    span[4] = getattr(result, count_attr, None)
                return result
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        """Wrap each target in place; record the ones that do not exist."""
        for name, module_name, path, count_attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            attrs = ([a for a in sorted(vars(owner)) if fnmatch.fnmatch(a, attr)]
                     if owner is not None and "*" in attr else [attr])
            found = False
            for a in attrs:
                fn = inspect.getattr_static(owner, a, None) if owner is not None else None
                if not inspect.isfunction(fn):
                    continue
                span_name = name + a if "*" in attr else name
                wrapped = self.wrap(fn, span_name, count_attr)
                setattr(owner, a, wrapped)
                if inspect.ismodule(owner):
                    _rebind_aliases(fn, wrapped)
                found = True
            if not found:
                self.absent.append(name + attr if "*" in attr else name)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"names": self.names, "spans": self.spans,
                       "absent": self.absent}, f)


def _rebind_aliases(fn, wrapped) -> None:
    """Point `from x import fn` copies in other loaded modules at the wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name.startswith("structpop")
                               or mod_name == "ibm_workload"):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapped)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class SpanSet:
    """Read access to a dumped trace."""

    def __init__(self, data: dict):
        self.names = data["names"]
        self.spans = data["spans"]

    def named(self, *patterns):
        return [s for s in self.spans
                if any(fnmatch.fnmatch(self.names[s[0]], p) for p in patterns)]

    def busy(self, *patterns) -> float:
        return _union_length((s[1], s[2]) for s in self.named(*patterns))

    def calls(self, *patterns) -> int:
        return len(self.named(*patterns))

    def total(self, pattern) -> int:
        return sum(int(s[4]) for s in self.named(pattern) if s[4] is not None)

    def durations_ms(self, pattern) -> list[float]:
        return [1e3 * (s[2] - s[1]) for s in self.named(pattern)]

    def has_ancestor(self, span, *patterns) -> bool:
        p = span[3]
        while p >= 0:
            anc = self.spans[p]
            if any(fnmatch.fnmatch(self.names[anc[0]], pat) for pat in patterns):
                return True
            p = anc[3]
        return False

    def under(self, child_pattern, *ancestor_patterns):
        return [s for s in self.named(child_pattern)
                if self.has_ancestor(s, *ancestor_patterns)]

    def layer_self_time(self, *layer_patterns) -> float:
        """Busy time of a layer minus the time its spans spend in other layers."""
        inside = [s for s in self.spans
                  if not any(fnmatch.fnmatch(self.names[s[0]], p) for p in layer_patterns)
                  and self.has_ancestor(s, *layer_patterns)]
        return self.busy(*layer_patterns) - _union_length((s[1], s[2]) for s in inside)


def layer_metrics(data: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json but the tracing overhead, as (value, unit)."""
    t = SpanSet(data)
    step_ms = t.durations_ms("pde.step")
    m = {
        "model.build_s": (t.busy("model.build_*"), "s"),
        "kernel.collapse.calls": (t.calls("kernel.collapse"), "count"),
        "kernel.collapse.busy_s": (t.busy("kernel.collapse"), "s"),
        "kernel.collapse.ms_p50": (_percentile(t.durations_ms("kernel.collapse"), 50), "ms"),
        "spectral.perron.calls": (t.calls("spectral.perron"), "count"),
        "spectral.perron.busy_s": (t.busy("spectral.perron"), "s"),
        "spectral.perron.iterations": (t.total("spectral.perron"), "count"),
        "malthus.find_lambda_star.busy_s": (t.busy("malthus.find_lambda_star"), "s"),
        "malthus.lambda_evals": (len(t.under("kernel.collapse",
                                             "malthus.find_lambda_star")), "count"),
        "malthus.profiles.busy_s": (t.busy("malthus.direct_profile",
                                           "malthus.dual_profile"), "s"),
        "pde.run.busy_s": (t.busy("pde.run"), "s"),
        "pde.step.calls": (len(step_ms), "count"),
        "pde.step.ms_p50": (_percentile(step_ms, 50), "ms"),
        "pde.step.ms_p99": (_percentile(step_ms, 99), "ms"),
        "pde.diagnostics.busy_s": (t.busy("pde.distances", "pde.growth_diag"), "s"),
        "ibm.estimators.busy_s": (t.busy("ibm.sample_from_density",
                                         "ibm.martingale_series"), "s"),
        "cli.self_s": (t.layer_self_time("cli.cmd_*", "cli._write_csv"), "s"),
        "cli._write_csv.busy_s": (t.busy("cli._write_csv"), "s"),
    }
    for phase in ("nonlinear", "linear"):
        sims = t.under("ibm.simulate", f"ibm.phase.{phase}")
        busy = _union_length((s[1], s[2]) for s in sims)
        events = sum(int(s[4]) for s in sims if s[4] is not None)
        m[f"ibm.simulate.calls.{phase}"] = (len(sims), "count")
        m[f"ibm.simulate.busy_s.{phase}"] = (busy, "s")
        m[f"ibm.events.{phase}"] = (events, "count")
        m[f"ibm.events_per_s.{phase}"] = (events / busy if busy > 0 else 0.0, "1/s")
    return m
