"""Per-layer measurement from outside the program.

Two recorders share one set of patch points around the program's
public calls:

* :class:`Spans` keeps timed spans (name, start, end, parent) in memory
  and writes them out when the run ends — the traced run;
* :class:`CallCounter` counts interpreter calls (Python and C) with
  ``sys.setprofile`` inside each span — the counted pass.  Counts
  repeat exactly across processes and hash seeds, so they are the
  per-layer numbers to trust on a noisy host.

:func:`instrument` installs either recorder around the calls the
profiler makes internally (fingerprinting, backend compile, AR/OAR
construction, layer mapping); the workloads wrap the
calls they make themselves (``build_model``, ``Profiler.profile``,
``compile_plan``, ``ExecutionPlan.run``, ``execute``) in
``recorder.span``.
"""
from __future__ import annotations

import gc
import json
import math
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple


class Spans:
    """In-memory span recorder, safe for a few client threads."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1)
        self.records: List[Tuple[str, float, float, int]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.records)
            self.records.append((name, 0.0, 0.0, stack[-1] if stack else -1))
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.records[index] = (name, start, end,
                                       self.records[index][3])

    def inclusive(self) -> Dict[str, float]:
        """Seconds per span name."""
        out: Dict[str, float] = {}
        for name, start, end, _ in self.records:
            out[name] = out.get(name, 0.0) + end - start
        return out

    def self_time(self, name: str) -> float:
        """Seconds inside spans called ``name`` not covered by their
        direct child spans."""
        total = 0.0
        wanted = set()
        for i, rec in enumerate(self.records):
            if rec[0] == name:
                total += rec[2] - rec[1]
                wanted.add(i)
            elif rec[3] in wanted:
                total -= rec[2] - rec[1]
        return total

    def write(self, path: Path) -> None:
        """Chrome-trace JSON (open in Perfetto)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.records[0][1] if self.records else 0.0
        events = [{"name": n, "ph": "X", "pid": 1, "tid": 1,
                   "ts": (s - t0) * 1e6, "dur": (e - s) * 1e6,
                   "args": {"id": i, "parent": p}}
                  for i, (n, s, e, p) in enumerate(self.records)]
        path.write_text(json.dumps({"traceEvents": events}))


class CallCounter:
    """Inclusive interpreter-call counts per span name.

    Only the thread that calls :meth:`counting` is counted; O3 plans
    run with ``threads=1`` so every call lands on it.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.totals: Dict[str, int] = {}

    def _profile(self, frame, event, arg) -> None:
        if event == "call" or event == "c_call":
            self.calls += 1

    @contextmanager
    def counting(self) -> Iterator[None]:
        # a collection may run finalizers at points that depend on the
        # allocation history; keep it out of the counted region
        gc.collect()
        gc.disable()
        sys.setprofile(self._profile)
        try:
            yield
        finally:
            sys.setprofile(None)
            gc.enable()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = self.calls
        try:
            yield
        finally:
            self.totals[name] = self.totals.get(name, 0) + \
                self.calls - start

    def take(self) -> Dict[str, int]:
        out, self.totals = self.totals, {}
        return out


class _Null:
    """Recorder that records nothing (the untraced runs)."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


NULL = _Null()


def _wrap(fn: Callable, name: str, recorder) -> Callable:
    def wrapped(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)
    wrapped.__wrapped__ = fn
    return wrapped


@contextmanager
def instrument(recorder) -> Iterator[None]:
    """Route the profiler's internal public calls through ``recorder``
    for the duration of the block.

    Shape inference is not among them: zoo graphs carry shapes from
    their builder, so the profile path never runs it (see
    ``profile_cold.reinfer_shapes``).
    """
    from repro.analysis import cache as cache_mod
    from repro.backends import BACKENDS
    from repro.core import profiler as profiler_mod

    patches = [(cache_mod, "graph_fingerprint", "ir.graph_fingerprint"),
               (cache_mod, "AnalyzeRepresentation", "analysis.arep"),
               (profiler_mod, "OptimizedAnalyzeRepresentation",
                "analysis.oar"),
               (profiler_mod, "map_layers", "backends.mapping")]
    # compile is inherited; patch the class that defines it, once
    owners = []
    for cls in BACKENDS.values():
        owner = next(c for c in cls.__mro__ if "compile" in vars(c))
        if owner not in owners:
            owners.append(owner)
    patches += [(owner, "compile", "backends.compile") for owner in owners]
    saved = [(obj, attr, vars(obj)[attr]) for obj, attr, _ in patches]
    try:
        for obj, attr, name in patches:
            setattr(obj, attr, _wrap(vars(obj)[attr], name, recorder))
        yield
    finally:
        for obj, attr, original in saved:
            setattr(obj, attr, original)


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def counted_pass(profile_requests: Sequence[Tuple[str, str, str]],
                 plan_models: Sequence[str],
                 plan_image_size: int) -> Dict[str, float]:
    """Interpreter-call counts per stage and per plan run.

    ``profile_requests`` are (model, backend, precision) cold profiles;
    the exponent fit wants one backend and precision across models of
    different sizes.  Run first in a fresh process: the counts then do
    not depend on what ran before.
    """
    import numpy as np
    from repro.analysis.cache import AnalysisCache
    from repro.core.profiler import Profiler
    from repro.models.registry import build_model

    counter = CallCounter()
    nodes: List[int] = []
    per_request: List[Dict[str, int]] = []
    with instrument(counter):
        for model, backend, precision in profile_requests:
            graph = build_model(model)
            profiler = Profiler(backend, "a100", precision,
                                analysis_cache=AnalysisCache())
            with counter.counting():
                with counter.span("core.profile"):
                    profiler.profile(graph)
            nodes.append(len(graph.nodes))
            per_request.append(counter.take())

    with np.errstate(all="ignore"):  # the BatchNorm fault overflows
        plan_calls, plan_steps = _count_plans(counter, plan_models,
                                              plan_image_size)

    def total(stage: str) -> int:
        return sum(r.get(stage, 0) for r in per_request)

    def series(stage: str) -> List[int]:
        return [r.get(stage, 0) for r in per_request]

    all_nodes = sum(nodes)
    return {
        "core.profile_calls": total("core.profile"),
        "backends.compile_calls_per_node": total("backends.compile")
        / all_nodes,
        "backends.mapping_calls_per_node": total("backends.mapping")
        / all_nodes,
        "backends.compile_calls_exponent": loglog_slope(
            nodes, series("backends.compile")),
        "backends.mapping_calls_exponent": loglog_slope(
            nodes, series("backends.mapping")),
        "ir.plan_run_calls_o1": plan_calls[1],
        "ir.plan_run_calls_o3": plan_calls[3],
        "ir.plan_steps_o1": plan_steps[1],
        "ir.plan_steps_o3": plan_steps[3],
    }


def _count_plans(counter: CallCounter, models: Sequence[str],
                 image_size: int) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Calls in one steady ``ExecutionPlan.run`` and plan steps, summed
    over ``models``, per level (1 and 3)."""
    import numpy as np
    from repro.ir.plan import compile_plan
    from repro.models.registry import build_model

    calls = {1: 0, 3: 0}
    steps = {1: 0, 3: 0}
    for model in models:
        graph = build_model(model, image_size=image_size)
        feeds = {t.name: np.ones([d if isinstance(d, int) else 1
                                  for d in t.shape], np.float32)
                 for t in graph.inputs}
        for level in calls:
            plan = compile_plan(graph, seed=0, optimize=level, threads=1)
            plan.run(feeds)  # first run: O3 calibrates, arenas allocate
            with counter.counting():
                with counter.span("plan.run"):
                    plan.run(feeds)
            calls[level] += counter.take()["plan.run"]
            steps[level] += plan.num_steps
    return calls, steps
