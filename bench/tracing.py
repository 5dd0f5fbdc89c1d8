"""In-memory spans around the public functions of each sarbias layer.

The tracer replaces module attributes that the layers call each other
through (``harness.simulate_unit``, ``validation.mc_infrequent_observed``,
...) with wrappers that record one span per call: name, start, end, the
enclosing span, and a work count taken from the call. Nothing under
``src/`` changes; :meth:`Tracer.uninstall` restores every attribute.

Spans nest through a plain stack, so the tracer is for single-threaded
runs only, which is the default worker count of every workload.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import time
from array import array
from typing import Callable, Optional


# Work counts: each takes the call's result and a function returning the
# call's arguments by name (binding them costs microseconds, so only the
# per-call oracle counts do it).

def _units_two_arms(result, arguments: Callable[[], dict]) -> int:
    return 2 * arguments()["units_per_arm"]


def _units_one_arm(result, arguments: Callable[[], dict]) -> int:
    return arguments()["n"]


def _infections(result, arguments: Callable[[], dict]) -> int:
    return len(result.infections)


def _tests(result, arguments: Callable[[], dict]) -> int:
    return len(result.tests)


def _analyzed(result, arguments: Callable[[], dict]) -> int:
    return int(not result.excluded and result.n_at_risk_contacts > 0)


# (module name, attribute, span name, work count of one call)
PIPELINE_SPANS = (
    ("harness", "run_scenario", "harness.run_scenario", None),
    ("harness", "simulate_unit", "simcore.simulate_unit", _infections),
    ("harness", "apply_policy", "observe.apply_policy", _tests),
    ("harness", "analyze_unit", "infer.analyze_unit", _analyzed),
    ("harness", "estimate_ve_sar", "infer.estimate_ve_sar", None),
)
ORACLE_SPANS = (
    ("validation", "run_validation_suite", "validation.run_validation_suite",
     None),
    ("validation", "mc_infrequent_observed", "mc.infrequent_observed",
     _units_two_arms),
    ("validation", "mc_symptom_prompted_ve", "mc.symptom_prompted",
     _units_two_arms),
    ("validation", "mc_fully_observed_naive", "mc.fully_observed_naive",
     _units_two_arms),
    ("validation", "mc_detection_fraction", "mc.detection_fraction",
     _units_one_arm),
)


class Tracer:
    """Records spans as parallel arrays; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.counts = array("q")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable,
              count: Optional[Callable]) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0)
            self.ends.append(0)
            self.counts.append(0)
            self._stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.starts[idx] = start
                self.ends[idx] = end
            if count is not None:
                self.counts[idx] = count(
                    result, lambda: signature.bind(*args, **kwargs).arguments)
            return result

        return traced

    def install(self, spans) -> None:
        """Wrap each ``(module, attribute, span name, count)`` of ``spans``,
        module names being relative to the ``sarbias`` package."""
        for module_name, attr, span_name, count in spans:
            module = importlib.import_module(f"sarbias.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def durations_ns(self, name: str) -> list[int]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends)
                if n == name]

    def total_count(self, name: str) -> int:
        return sum(c for n, c in zip(self.names, self.counts) if n == name)

    def self_times_ns(self, name: str) -> list[int]:
        """Duration of each ``name`` span minus its direct children's."""
        child_ns = [0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[idx] - self.starts[idx]
        return [self.ends[i] - self.starts[i] - child_ns[i]
                for i, n in enumerate(self.names) if n == name]

    def write_csv(self, path: str) -> None:
        """Writes the spans as gzipped CSV, times in ns from the first start."""
        t0 = min(self.starts, default=0)
        with gzip.open(path, "wt", encoding="utf-8", newline="",
                       compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "start_ns", "end_ns", "parent",
                          "count"))
            out.writerows(zip(range(len(self.names)), self.names,
                              (s - t0 for s in self.starts),
                              (e - t0 for e in self.ends),
                              self.parents, self.counts))
