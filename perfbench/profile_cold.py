"""profile-cold: in-process ``Profiler.profile`` with nothing cached.

Each op profiles a freshly built graph through a fresh
``AnalysisCache``: the cost every ``proof run`` and every service cache
miss pays.  A round is the fixed request set below in a seeded order;
runs attempt whole rounds.  After each cold op the same profiler
re-profiles a copy of the graph on its now-warm cache
(``warm_p50_ms``), as a repeated request would.
"""
from __future__ import annotations

import gc
import math
import random
import time
from contextlib import nullcontext
from typing import Dict, List, Sequence, Tuple

from common import (OUT, SETUP_REPS, OpLog, Outcome, hd_median, median,
                    repeated_setup, self_peak_rss_mb, tail_note)
from layers import NULL, Spans, instrument

#: graph sizes from 125 to 1296 nodes; two above 1000 (swin-small,
#: sd-unet) carry the superlinear compile and mapping costs
MODELS = ("resnet34", "mobilenetv2-10", "distilbert", "shufflenetv2-10",
          "efficientnet-b0", "vit-tiny", "efficientnetv2-s", "swin-small",
          "sd-unet")
BACKENDS = ("trt-sim", "ort-sim", "ov-sim")
PRECISIONS = ("fp16", "fp32", "int8")
PLATFORM = "a100"
#: Table 3 GFLOP may differ from the profiler's count by this share
GFLOP_RTOL = 0.05
#: trt-sim rejects int8 sd-unet by design; the set never asks for it
REJECTED = ("sd-unet", "trt-sim", "int8")

Request = Tuple[str, str, str]


def request_set() -> List[Request]:
    """Every model on every backend, precisions in a Latin square so
    each model also sees every precision."""
    out = []
    for i, model in enumerate(MODELS):
        for j, backend in enumerate(BACKENDS):
            out.append((model, backend, PRECISIONS[(i + j + 1) % 3]))
    assert REJECTED not in out
    return out


def round_order(seed: int, index: int) -> List[Request]:
    order = request_set()
    random.Random(seed * 1_000_003 + index).shuffle(order)
    return order


def check_report(report, graph, model: str,
                 flop_by_model: Dict[str, float]) -> List[str]:
    """Independent properties every profile must have."""
    from repro.models.registry import model_entry

    problems = []
    nodes = {n.name for n in graph.nodes}
    covered = set()
    for layer in report.layers:
        named = set(layer.model_layers) | set(layer.folded_layers)
        outside = named - nodes
        if outside:
            problems.append(f"layer {layer.name} names "
                            f"{len(outside)} nodes outside the graph")
        covered |= named
        if layer.latency_seconds > 0:
            if layer.achieved_flops > report.peak_flops * (1 + 1e-9):
                problems.append(f"layer {layer.name} exceeds peak FLOP/s")
            if layer.achieved_bandwidth > \
                    report.peak_bandwidth * (1 + 1e-9):
                problems.append(f"layer {layer.name} exceeds peak "
                                f"bandwidth")
    if nodes - covered:
        problems.append(f"{len(nodes - covered)} graph nodes in no layer")
    e2e = report.end_to_end
    layer_sum = sum(layer.latency_seconds for layer in report.layers)
    if not math.isclose(layer_sum, e2e.latency_seconds, rel_tol=1e-9):
        problems.append(f"end-to-end latency {e2e.latency_seconds} != "
                        f"layer sum {layer_sum}")
    gflop = e2e.flop / max(1, report.batch_size) / 1e9
    paper = model_entry(model).paper_gflop
    if abs(gflop / paper - 1) > GFLOP_RTOL:
        problems.append(f"{gflop:.3f} GFLOP vs Table 3 {paper:.3f}")
    first = flop_by_model.setdefault(model, e2e.flop)
    if not math.isclose(first, e2e.flop, rel_tol=1e-9):
        problems.append(f"total FLOP {e2e.flop} differs across backends "
                        f"(first seen {first})")
    return problems


def run(seed: int, seconds: float, traced: bool = False,
        setup_reps: int = SETUP_REPS) -> Tuple[Outcome, Dict[str, float]]:
    from repro.analysis.cache import AnalysisCache
    from repro.core.profiler import Profiler
    from repro.ir.fingerprint import report_digest
    from repro.models.registry import build_model

    spans = Spans()

    def build_round(index: int):
        built = []
        for request in round_order(seed, index):
            with spans.span("models.build") if traced else nullcontext():
                built.append((request, build_model(request[0])))
        return built

    setup_times, graphs = repeated_setup(lambda: build_round(0),
                                         reps=setup_reps)
    log = OpLog()
    flop_by_model: Dict[str, float] = {}
    cold: List[float] = []
    warm: List[float] = []
    #: cold seconds per request, spanned or not (traced runs span
    #: every other op; a request alternates between rounds)
    by_span: Dict[bool, Dict[Request, float]] = {True: {}, False: {}}
    traced_ops = 0
    start = time.perf_counter()
    rounds = 0
    while True:
        # the round's prebuilt graphs are this harness's, not the
        # program's: keep them out of the collections the ops trigger
        gc.collect()
        gc.freeze()
        for request, graph in graphs:
            model, backend, precision = request
            recorder = spans if traced and log.attempted % 2 == 0 else NULL
            # each op starts from an empty young generation, so where a
            # collection lands inside it does not depend on the ops
            # before it
            gc.collect()
            with instrument(recorder) if recorder is spans else \
                    nullcontext():
                t0 = time.perf_counter()
                with recorder.span("core.profile"):
                    profiler = Profiler(backend, PLATFORM, precision,
                                        analysis_cache=AnalysisCache())
                    report = profiler.profile(graph)
                dt = time.perf_counter() - t0
            # a repeat request hands over a new graph object, which is
            # fingerprinted again before the cache can answer
            again_graph = graph.copy()
            gc.collect()
            t0 = time.perf_counter()
            again = profiler.profile(again_graph)
            warm.append(time.perf_counter() - t0)
            if recorder is spans:
                reinfer_shapes(graph, spans)
            cold.append(dt)
            by_span[recorder is spans][request] = dt
            traced_ops += recorder is spans
            problems = check_report(report, graph, model, flop_by_model)
            if report_digest(again) != report_digest(report):
                problems.append("warm re-profile digest differs")
            log.record(problems, label=f"{model}/{backend}/{precision}")
        gc.unfreeze()
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
        graphs = build_round(rounds)

    out = Outcome(attempted=log.attempted, failed=log.failed,
                  correct=not log.unexpected)
    cold_ms = [t * 1e3 for t in cold]
    warm_ms = [t * 1e3 for t in warm]
    out.metrics = {
        "setup_s": (median(setup_times), "s"),
        "ops_per_s": (len(cold) / sum(cold), "1/s"),
        "p50_ms": (hd_median(cold_ms), "ms"),
        "cold_p50_ms": (hd_median(cold_ms), "ms"),
        "warm_p50_ms": (hd_median(warm_ms), "ms"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
    }
    out.notes += [f"rounds {rounds} of {len(request_set())} requests; "
                  f"set-up reps {[round(t, 3) for t in setup_times]}",
                  tail_note("cold profile", cold_ms),
                  tail_note("warm re-profile", warm_ms)]
    out.notes += [f"unexpected failure: {u}" for u in log.unexpected[:5]]
    layer: Dict[str, float] = {}
    if traced:
        layer = profiling_layers(spans, traced_ops)
        layer["obs.trace_overhead_ms"] = tracer_overhead_ms()
        both = by_span[True].keys() & by_span[False].keys()
        if both:
            spanned = sum(by_span[True][r] for r in both)
            plain = sum(by_span[False][r] for r in both)
            out.notes.append(f"tracing overhead: {spanned / plain - 1:+.1%} "
                             f"over {len(both)} requests timed both ways")
        spans.write(OUT / f"spans-profile-cold-{seed}.json")
    return out, layer


def reinfer_shapes(graph, spans: Spans) -> None:
    """Zoo graphs carry shapes from their builder, so the profile path
    never runs shape inference; time a full re-inference of a copy of
    the op's graph so that layer still has a number."""
    from repro.ir.shape_inference import infer_shapes

    bare = graph.copy()
    bare.value_info = {}
    with spans.span("ir.infer_shapes"):
        infer_shapes(bare)


def profiling_layers(spans: Spans, ops: int) -> Dict[str, float]:
    """Mean milliseconds per profiled op in each profiler stage."""
    totals = spans.inclusive()
    builds = sum(1 for r in spans.records if r[0] == "models.build")

    def per_op(name: str) -> float:
        return totals.get(name, 0.0) * 1e3 / max(1, ops)

    return {
        "models.build_ms": totals.get("models.build", 0.0) * 1e3
        / max(1, builds),
        "ir.infer_shapes_ms": per_op("ir.infer_shapes"),
        "ir.graph_fingerprint_ms": per_op("ir.graph_fingerprint"),
        "backends.compile_ms": per_op("backends.compile"),
        "backends.mapping_ms": per_op("backends.mapping"),
        "analysis.arep_ms": per_op("analysis.arep"),
        "analysis.oar_ms": per_op("analysis.oar"),
        "core.profile_ms": per_op("core.profile"),
        "core.other_ms": spans.self_time("core.profile") * 1e3
        / max(1, ops),
    }


def tracer_overhead_ms(requests: Sequence[Request] = (
        ("resnet34", "trt-sim", "fp16"), ("vit-tiny", "ort-sim", "int8")),
        pairs: int = 60) -> float:
    """``Profiler.profile`` with an enabled ``Tracer`` minus with the
    no-op default, median per call.  Measured on warm profiles, where
    the span cost is not lost in a cold profile's run-to-run noise."""
    from repro.analysis.cache import AnalysisCache
    from repro.core.profiler import Profiler
    from repro.models.registry import build_model
    from repro.obs.trace import Tracer

    diffs = []
    for model, backend, precision in requests:
        graph = build_model(model)
        cache = AnalysisCache()
        plain = Profiler(backend, PLATFORM, precision, analysis_cache=cache)
        traced = Profiler(backend, PLATFORM, precision, analysis_cache=cache,
                          tracer=Tracer())
        plain.profile(graph)
        plain_t, traced_t = [], []
        for _ in range(pairs):
            t0 = time.perf_counter()
            plain.profile(graph)
            t1 = time.perf_counter()
            traced.profile(graph)
            t2 = time.perf_counter()
            plain_t.append(t1 - t0)
            traced_t.append(t2 - t1)
        diffs.append(median(traced_t) - median(plain_t))
    return sum(diffs) / len(diffs) * 1e3
