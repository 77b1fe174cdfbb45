"""plan-exec: repeated ``ExecutionPlan.run`` on the numpy runtime.

Six zoo models at 64 px, batch 1, each compiled at O1 (the
``proof run --execute`` default, O0-O2 kernel family) and at O3 (static
arena plus the ``_o3_*`` writers).  A round runs all twelve plans once
in a seeded order; runs attempt whole rounds.  Inputs and weights do
not depend on the seed, so the BatchNorm-fault ops fail in every run.
"""
from __future__ import annotations

import random
import time
from contextlib import nullcontext
from typing import Dict, List, Tuple

from common import (OUT, SETUP_REPS, OpLog, Outcome, import_seconds,
                    hd_median, median, self_peak_rss_mb, tail_note)
from layers import Spans

MODELS = ("resnet34", "resnet50", "mobilenetv2-10", "efficientnet-b0",
          "shufflenetv2-10", "vit-tiny")
LEVELS = (1, 3)
IMAGE_SIZE = 64
WEIGHT_SEED = 0
FEED_SEED = 20240812
#: O3 re-associates sums (BatchNorm folding, pre-packed GEMMs); the
#: absolute tolerance is this share of the output's largest magnitude.
#: The worst re-association error seen is 6.1e-5 (shufflenetv2-10); the
#: BatchNorm fault puts mobilenetv2-10 near 1e-1.
O3_RTOL = 1e-5
O3_ATOL_SHARE = 1e-4
#: ops failing because BatchNorm divides by sqrt(var**2 + eps) over
#: variances drawn from N(0, sigma) (ir/executor.py, ir/passes.py):
#: resnet50 overflows to NaN at every level, mobilenetv2-10 O3 lands
#: about 10% off the reference.  Counted as failed until mended.
KNOWN_FAULTS = {("resnet50", 1), ("resnet50", 3), ("mobilenetv2-10", 3)}

Op = Tuple[str, int]


def feeds_for(graph) -> Dict[str, "object"]:
    import numpy as np

    rng = np.random.default_rng(FEED_SEED)
    return {t.name: rng.standard_normal(
        [d if isinstance(d, int) else 1 for d in t.shape]).astype(np.float32)
        for t in graph.inputs}


def check_output(out, ref, level: int) -> List[str]:
    """Finite, and O1 byte-equal / O3 within tolerance of the executor."""
    import numpy as np

    problems = []
    for name, want in ref.items():
        got = out.get(name)
        if got is None or got.shape != want.shape or got.dtype != want.dtype:
            problems.append(f"{name}: missing or mis-shaped output")
            continue
        if not np.isfinite(got).all():
            problems.append(f"{name}: non-finite output")
        if level == 1:
            if got.tobytes() != want.tobytes():
                problems.append(f"{name}: O1 not byte-equal to executor")
            continue
        finite = np.abs(want[np.isfinite(want)])
        scale = float(finite.max()) if finite.size else 0.0
        if not np.allclose(got, want, rtol=O3_RTOL,
                           atol=O3_ATOL_SHARE * scale):
            problems.append(f"{name}: O3 outside tolerance of executor")
    return problems


def round_order(seed: int, index: int) -> List[Op]:
    order = [(m, lvl) for m in MODELS for lvl in LEVELS]
    random.Random(seed * 1_000_003 + index).shuffle(order)
    return order


def prepare(spans, traced: bool):
    """Graphs, feeds, executor references and compiled plans."""
    from repro.ir.executor import execute
    from repro.ir.plan import compile_plan
    from repro.models.registry import build_model

    def span(name):
        return spans.span(name) if traced else nullcontext()

    state = {}
    for model in MODELS:
        with span("models.build"):
            graph = build_model(model, image_size=IMAGE_SIZE)
        feeds = feeds_for(graph)
        with span("ir.executor"):
            ref = execute(graph, feeds, seed=WEIGHT_SEED)
        for level in LEVELS:
            # one O3 worker: the numbers must not depend on core count
            with span(f"ir.compile_plan_o{level}"):
                plan = compile_plan(graph, seed=WEIGHT_SEED,
                                    optimize=level, threads=1)
            state[(model, level)] = (plan, feeds, ref)
    return state


def run(seed: int, seconds: float, traced: bool = False,
        setup_reps: int = SETUP_REPS) -> Tuple[Outcome, Dict[str, float]]:
    import numpy as np

    spans = Spans()
    log = OpLog()
    setup_times: List[float] = []
    first_runs: List[float] = []
    with np.errstate(all="ignore"):  # the BatchNorm fault overflows
        for _ in range(max(1, setup_reps)):
            state = None  # one rep's weights (~0.9 GB) live at a time
            t_import = import_seconds()
            t0 = time.perf_counter()
            state = prepare(spans, traced)
            setup_times.append(t_import + time.perf_counter() - t0)
            # a fresh plan's first run allocates its arena and (O3)
            # calibrates: the cold op, timed apart from set-up
            for (model, level), (plan, feeds, ref) in state.items():
                t0 = time.perf_counter()
                out = plan.run(feeds)
                first_runs.append(time.perf_counter() - t0)
                log.record(check_output(out, ref, level),
                           known_fault=(model, level) in KNOWN_FAULTS,
                           label=f"{model} O{level} first run")

        steady: Dict[int, List[float]] = {lvl: [] for lvl in LEVELS}
        #: traced runs span every other round; the rest is the
        #: untraced baseline for the overhead note
        spanned: Dict[bool, List[float]] = {True: [], False: []}
        start = time.perf_counter()
        rounds = 0
        while True:
            span_on = traced and rounds % 2 == 0
            for model, level in round_order(seed, rounds):
                plan, feeds, ref = state[(model, level)]
                with spans.span(f"ir.plan_run_o{level}") if span_on \
                        else nullcontext():
                    t0 = time.perf_counter()
                    out = plan.run(feeds)
                    dt = time.perf_counter() - t0
                steady[level].append(dt)
                spanned[span_on].append(dt)
                log.record(check_output(out, ref, level),
                           known_fault=(model, level) in KNOWN_FAULTS,
                           label=f"{model} O{level}")
            rounds += 1
            if time.perf_counter() - start >= seconds:
                break

    runs_ms = [t * 1e3 for t in steady[1] + steady[3]]
    first_ms = [t * 1e3 for t in first_runs]
    out = Outcome(attempted=log.attempted, failed=log.failed,
                  correct=not log.unexpected)
    out.metrics = {
        "setup_s": (median(setup_times), "s"),
        "ops_per_s": (len(runs_ms) * 1e3 / sum(runs_ms), "1/s"),
        "p50_ms": (hd_median(runs_ms), "ms"),
        "cold_p50_ms": (hd_median(first_ms), "ms"),
        "warm_p50_ms": (hd_median(runs_ms), "ms"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
    }
    out.notes += [f"rounds {rounds} of {len(MODELS) * len(LEVELS)} plans; "
                  f"set-up reps {[round(t, 3) for t in setup_times]}",
                  tail_note("steady plan run", runs_ms)]
    out.notes += [tail_note(f"O{lvl} run", [t * 1e3 for t in steady[lvl]])
                  for lvl in LEVELS]
    out.notes.append(tail_note("first run of a fresh plan", first_ms))
    out.notes += [f"unexpected failure: {u}" for u in log.unexpected[:5]]
    layer: Dict[str, float] = {}
    if traced:
        totals = spans.inclusive()

        def mean_ms(name: str) -> float:
            count = sum(1 for r in spans.records if r[0] == name)
            return totals.get(name, 0.0) * 1e3 / max(1, count)

        layer = {name + "_ms": mean_ms(name) for name in (
            "ir.executor", "ir.compile_plan_o1", "ir.compile_plan_o3",
            "ir.plan_run_o1", "ir.plan_run_o3")}
        layer["ir.o3_arena_peak_mb"] = sum(
            plan.arena_peak_bytes for (_, lvl), (plan, _, _) in state.items()
            if lvl == 3) / (1 << 20)
        if spanned[False]:
            out.notes.append(
                f"tracing overhead: traced p50 "
                f"{median(spanned[True]) * 1e3:.3f} ms vs untraced "
                f"{median(spanned[False]) * 1e3:.3f} ms")
        spans.write(OUT / f"spans-plan-exec-{seed}.json")
    return out, layer
