"""Per-layer spans for the traced run, recorded from outside the program.

The tracer replaces public obsavg functions by timing wrappers in every
obsavg module namespace (and class) that holds them, so the calls the
program makes internally are timed too. Each call records a span: name,
start, end and parent. Spans stay in memory and are written out when the
run ends. A layer's self time is its span time minus the time its child
spans cover. A function that no longer exists is skipped, and the metrics
that read only from it are reported as absent.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

MB = 2.0**20

# (module, attribute path) of every wrapped public function or method
TARGETS = [
    ("obsavg.jsonio", "load_operator"),
    ("obsavg.jsonio", "load_povm"),
    ("obsavg.jsonio", "dumps"),
    ("obsavg.jsonio", "write_text"),
    ("obsavg.jsonio", "matrix_to_json"),
    ("obsavg.jsonio", "distribution_csv"),
    ("obsavg.jsonio", "rows_csv"),
    ("obsavg.linops", "tensor_power"),
    ("obsavg.linops", "eigh"),
    ("obsavg.symspace", "copy_average"),
    ("obsavg.symspace", "twirl"),
    ("obsavg.symspace", "invariant_basis"),
    ("obsavg.povm", "Povm.probabilities"),
    ("obsavg.povm", "Povm.sample"),
    ("obsavg.povm", "Povm.validate"),
    ("obsavg.estimators", "canonical_povm"),
    ("obsavg.estimators", "repeated_measurement_distribution"),
    ("obsavg.adversary", "project_unbiased_povm"),
    ("obsavg.adversary", "compare"),
    ("obsavg.polarization", "reconstruct_from_diagonal"),
    ("obsavg.polarization", "reconstruct_from_moments"),
    ("obsavg.polarization", "coefficient_extract"),
]

# per-round self time in seconds, summed over the listed spans
SELF_TIME_METRICS = {
    "jsonio.load_s": ["jsonio.load_operator", "jsonio.load_povm"],
    "jsonio.dump_s": ["jsonio.dumps", "jsonio.write_text", "jsonio.matrix_to_json",
                      "jsonio.distribution_csv", "jsonio.rows_csv"],
    "linops.tensor_power_s": ["linops.tensor_power"],
    "linops.eigh_s": ["linops.eigh"],
    "symspace.copy_average_s": ["symspace.copy_average"],
    "symspace.twirl_s": ["symspace.twirl"],
    "symspace.invariant_basis_s": ["symspace.invariant_basis"],
    "povm.probabilities_s": ["povm.Povm.probabilities"],
    "povm.sample_s": ["povm.Povm.sample"],
    "povm.validate_s": ["povm.Povm.validate"],
    "estimators.canonical_povm_s": ["estimators.canonical_povm"],
    "estimators.repeated_distribution_s": ["estimators.repeated_measurement_distribution"],
    "adversary.project_s": ["adversary.project_unbiased_povm"],
    "adversary.compare_s": ["adversary.compare"],
    "polarization.diagonal_s": ["polarization.reconstruct_from_diagonal"],
    "polarization.moments_s": ["polarization.reconstruct_from_moments"],
    "polarization.coefficient_s": ["polarization.coefficient_extract"],
}
CALL_METRICS = {
    "linops.tensor_power_calls": "linops.tensor_power",
    "povm.probabilities_calls": "povm.Povm.probabilities",
}
# metrics filled by a wrapper's hook, with the span their hook belongs to
HOOK_METRICS = {
    "povm.element_mb": "povm.Povm.probabilities",
    "estimators.canonical_povm_peak_mb": "estimators.canonical_povm",
    "estimators.canonical_outcomes": "estimators.canonical_povm",
    "estimators.repeated_outcomes": "estimators.repeated_measurement_distribution",
    "polarization.oracle_calls": "polarization.reconstruct_from_diagonal",
}
ORACLE_TAKERS = ("polarization.reconstruct_from_diagonal", "polarization.reconstruct_from_moments")


class Tracer:
    """Installs the wrappers and turns one round's spans into layer metrics."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.stack: list[int] = []
        self.all_spans: list[list] = []
        self.originals: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()
        self.counters: dict[str, float] = {}

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        for module_name, attr in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                continue
            name = f"{module_name.split('.', 1)[1]}.{attr}"
            wrapper = self._wrap(name, fn)
            self.wrapped.add(name)
            if outer:
                self._replace(owner, leaf, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "obsavg" or mod_name.startswith("obsavg."):
                    if getattr(module, leaf, None) is fn:
                        self._replace(module, leaf, wrapper)

    def _replace(self, owner, attr: str, wrapper) -> None:
        self.originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.originals):
            setattr(owner, attr, original)
        self.originals.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        peak = name == "estimators.canonical_povm"
        counts_oracle = name in ORACLE_TAKERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_oracle and args:
                args = (self._counting(args[0]),) + args[1:]
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            if peak:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if peak:
                    self._max("estimators.canonical_povm_peak_mb",
                              tracemalloc.get_traced_memory()[1] / MB)
                    tracemalloc.stop()
            self._after(name, args, result)
            return result

        return wrapper

    def _counting(self, oracle):
        def counted(*args, **kwargs):
            self._add("polarization.oracle_calls", 1)
            return oracle(*args, **kwargs)
        return counted

    def _after(self, name: str, args, result) -> None:
        if name.startswith("povm.Povm."):
            povm = args[0]
            self._max("povm.element_mb", povm.n_outcomes * povm.dim**2 * 16 / MB)
        elif name == "estimators.canonical_povm":
            self._add("estimators.canonical_outcomes", result.n_outcomes)
        elif name == "estimators.repeated_measurement_distribution":
            self._add("estimators.repeated_outcomes", len(result))

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _max(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    # -- per-job root spans ---------------------------------------------------
    def begin_job(self, label: str) -> None:
        self.stack.append(len(self.spans))
        self.spans.append([f"job:{label}", time.perf_counter(), 0.0, -1])

    def end_job(self) -> int:
        """Close the job's span; returns its index for self-time lookup."""
        index = self.stack.pop()
        self.spans[index][2] = time.perf_counter()
        return index

    # -- reduction ------------------------------------------------------------
    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def finish_round(self, small_jobs: list[int]) -> dict[str, float]:
        """Layer metrics of the round just run; the spans move to the archive."""
        self_time = self.self_times()
        by_name: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span, own in zip(self.spans, self_time):
            by_name[span[0]] = by_name.get(span[0], 0.0) + own
            calls[span[0]] = calls.get(span[0], 0) + 1
        out: dict[str, float] = {}
        for metric, names in SELF_TIME_METRICS.items():
            if any(n in self.wrapped for n in names):
                out[metric] = sum(by_name.get(n, 0.0) for n in names)
        for metric, name in CALL_METRICS.items():
            if name in self.wrapped:
                out[metric] = calls.get(name, 0)
        for metric, name in HOOK_METRICS.items():
            if name in self.wrapped:
                out[metric] = self.counters.get(metric, 0)
        if small_jobs:
            out["cli.self_ms"] = 1e3 * statistics.median(self_time[i] for i in small_jobs)
        out["trace.calls"] = sum(c for n, c in calls.items() if not n.startswith("job:"))
        offset = len(self.all_spans)
        self.all_spans.extend([n, s, e, p + offset if p >= 0 else -1]
                              for n, s, e, p in self.spans)
        self.spans.clear()
        self.counters.clear()
        return out

    def write(self, path: Path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.all_spans]
        path.write_text(json.dumps(rows), encoding="utf-8")


def wrapper_cost(calls: int = 20000, repeats: int = 3) -> float:
    """Seconds one span wrapper adds to a call, measured on a no-op."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap("calibration", noop)
    best = {}
    for _ in range(repeats):
        for fn in (noop, wrapped):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            elapsed = time.perf_counter() - start
            best[fn] = min(best.get(fn, elapsed), elapsed)
            tracer.spans.clear()
    return max(0.0, (best[wrapped] - best[noop]) / calls)
