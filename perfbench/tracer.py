"""Outside-in span recorder for the traced benchmark run.

``install`` replaces module attributes of the already imported ``chaospi``
package with timing wrappers, in the benchmark's own process only; the
program's source is never touched. Every binding of a wrapped function is
replaced (``cli`` and ``pipeline`` import names from sibling modules), so
calls through any of them are seen.

A span records name, start, end, parent, thread and thread CPU time, and
stays in memory until ``Recorder.dump`` at the end of the process, which
adds its self time: duration minus the part its child spans cover. Hot
functions (the metric kernels, the objective callback) are not spans; they
feed per-thread call counters and time totals instead, which keeps the cost
per call at two clock reads.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

# (module, attribute, span name); spans nest through a per-thread stack.
SPANS = [
    ("chaospi.cli", "main", "cli.main"),
    ("chaospi.series", "load_series", "series.load_series"),
    ("chaospi.chaos", "analyze", "chaos.analyze"),
    ("chaospi.chaos", "autocorrelation", "chaos.autocorrelation"),
    ("chaospi.chaos", "cao_min_dimension", "chaos.cao_min_dimension"),
    ("chaospi.chaos", "lyapunov_rosenstein", "chaos.lyapunov_rosenstein"),
    ("chaospi.pipeline", "run_experiment", "pipeline.run_experiment"),
    ("chaospi.pipeline", "_run_seeded", "pipeline.seed"),
    ("chaospi.pipeline", "fit_stage2", "pipeline.fit_stage2"),
    ("chaospi.pipeline", "fit_stage3", "pipeline.fit_stage3"),
    ("chaospi.pipeline", "grid_search_r", "pipeline.grid_search_r"),
    ("chaospi.eaf", "attainment_surface", "eaf.attainment_surface"),
]
# Functions whose peak traced allocation is recorded on the span.
PEAK_MEMORY = {"chaos.cao_min_dimension", "chaos.lyapunov_rosenstein"}
# (module, attribute) counted, not spanned.
COUNTED = [
    ("chaospi.metrics", "smape"),
    ("chaospi.metrics", "directional_symmetry"),
    ("chaospi.metrics", "picp"),
    ("chaospi.metrics", "piaw"),
]


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters: list[dict] = []
        self._ids = itertools.count(1)
        self._main_stack = self._stack()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def counters(self) -> dict:
        """This thread's ``name -> [calls, seconds]`` table."""
        table = getattr(self._local, "counters", None)
        if table is None:
            table = self._local.counters = {}
            with self._lock:
                self._counters.append(table)
        return table

    def open(self, name: str) -> dict:
        stack = self._stack()
        # A pool thread's first span belongs to whatever the main thread is
        # inside, which is the call that submitted the work.
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = {
            "name": name,
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "parent_name": parent["name"] if parent else None,
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "cpu0": time.thread_time(),
        }
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["cpu"] = time.thread_time() - span.pop("cpu0")
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def dump(self) -> dict:
        totals: dict[str, list] = {}
        for table in self._counters:
            for name, (calls, seconds) in table.items():
                t = totals.setdefault(name, [0, 0.0])
                t[0] += calls
                t[1] += seconds
        _add_self_times(self.spans)
        return {"spans": self.spans, "counters": totals}


def _add_self_times(spans: list[dict]) -> None:
    """Set each span's ``self_s``: its duration minus the part of it that its
    child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted((c["start"], c["end"]) for c in children[s["id"]]):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        s["self_s"] = (s["end"] - s["start"]) - covered


def _span_wrapper(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        if name == "pipeline.run_experiment":
            span["workers"] = kwargs.get("workers", args[3] if len(args) > 3 else 1)
        peak = name in PEAK_MEMORY
        if peak:
            tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
        finally:
            if peak:
                span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            rec.close(span)
        _annotate(span, result)
        return result

    return wrapper


def _annotate(span: dict, result) -> None:
    """Counts read off a span's return value."""
    name = span["name"]
    if name == "chaos.analyze":
        span["tau"], span["m"] = int(result.tau), int(result.m)
    elif name == "chaos.lyapunov_rosenstein":
        span["pairs"] = int(result.n_pairs)
    elif name == "eaf.attainment_surface":
        span["vertices"] = int(result.vertices.shape[0])


def _counted_wrapper(rec: Recorder, name: str, fn):
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            entry = rec.counters().setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += perf() - t

    return wrapper


def _nsga_run_wrapper(rec: Recorder, fn):
    """Span around ``nsga2.run`` that also wraps ``Problem.evaluate`` to count
    evaluations, time inside the objective and repeated decision vectors."""
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(problem, params, *args, **kwargs):
        keys: list[bytes] = []
        spent = [0.0]
        inner = problem.evaluate

        def evaluate(x):
            keys.append(x.tobytes())
            t = perf()
            try:
                return inner(x)
            finally:
                spent[0] += perf() - t

        traced = dataclasses.replace(problem, evaluate=evaluate)
        span = rec.open("nsga2.run")
        try:
            front = fn(traced, params, *args, **kwargs)
        finally:
            rec.close(span)
        stage = {"pipeline.fit_stage2": "stage2", "pipeline.fit_stage3": "stage3"}
        span["stage"] = stage.get(span["parent_name"], "other")
        span["evals"] = len(keys)
        span["eval_s"] = spent[0]
        span["dup_evals"] = len(keys) - len(set(keys))
        span["front0_size"] = len(front)
        return front

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every target in the loaded ``chaospi`` modules."""
    targets = [(m, a, functools.partial(_span_wrapper, rec, n)) for m, a, n in SPANS]
    targets += [(m, a, functools.partial(_counted_wrapper, rec, f"{m[8:]}.{a}")) for m, a in COUNTED]
    targets.append(("chaospi.nsga2", "run", functools.partial(_nsga_run_wrapper, rec)))
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "chaospi"]
    for module_name, attr, make in targets:
        original = getattr(sys.modules[module_name], attr)
        wrapped = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
