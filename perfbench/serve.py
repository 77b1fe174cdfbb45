"""serve-threads and serve-fleet: ``proof serve`` under a closed loop.

The server runs as its own process (``--workers 2`` or
``--processes 2``).  This process is the only load generator: two
client threads, each on one keep-alive HTTP/1.1 connection, post
``wait: true`` requests back to back.

The request set is fixed: small and medium zoo models x batch size x
precision x backend; the seed only orders it (see :func:`drive` for
how the two clients share it).  Many new requests share layers or a
precision sibling with earlier ones (layer store and assemble path).
"""
from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional, Tuple

from common import (OUT, OpLog, Outcome, hd_median, median, program_env,
                    tail_note, tree_peak_rss_mb)
from layers import Spans, instrument

MODELS = ("resnet34", "resnet50", "mobilenetv2-05", "mobilenetv2-10",
          "efficientnet-b0", "shufflenetv2-05", "shufflenetv2-10",
          "shufflenetv2-10-mod", "distilbert", "vit-tiny", "mlp-mixer-b16")
BATCHES = (1, 2, 4, 8)
PRECISIONS = ("fp16", "fp32", "int8")
BACKENDS = ("trt-sim", "ort-sim", "ov-sim")
PLATFORM = "a100"
TIER_ARGS = {"threads": ["--workers", "2"], "fleet": ["--processes", "2"]}
LAUNCH_TIMEOUT = 60.0
#: a launch is sub-second and noisier than the in-process set-ups, and
#: cheap enough to repeat more often
SERVE_SETUP_REPS = 5

Request = Tuple[str, int, str, str]


def request_set() -> List[Request]:
    return [(m, b, p, be) for m in MODELS for b in BATCHES
            for p in PRECISIONS for be in BACKENDS]


def new_requests(rng: random.Random) -> Iterator[Request]:
    """The request set in a seeded order, by cycles: every cycle has
    each model once, so any run sees the same model mix whatever the
    seed (the median cold request is then the same kind of request)."""
    combos = {m: [r[1:] for r in request_set() if r[0] == m]
              for m in MODELS}
    for per_model in combos.values():
        rng.shuffle(per_model)
    for cycle in range(len(combos[MODELS[0]])):
        models = list(MODELS)
        rng.shuffle(models)
        for m in models:
            yield (m, *combos[m][cycle])


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class Server:
    """One ``proof serve`` process and its shard processes."""

    def __init__(self, tier: str) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self._log = open(OUT / f"server-{tier}.log", "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.core.cli", "serve", "--port", "0",
             *TIER_ARGS[tier]],
            stdout=subprocess.PIPE, stderr=self._log, env=program_env(),
            start_new_session=True, preexec_fn=_default_sigint)
        try:
            line = self.proc.stdout.readline().decode()
            if "http://" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split("http://")[1].split()[0]
                            .rsplit(":", 1)[1])
            self._wait_healthy(t0 + LAUNCH_TIMEOUT)
        except BaseException:
            self.stop()
            raise
        #: launch until the first /healthz answer
        self.setup_seconds = time.perf_counter() - t0

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.01)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def get_json(self, path: str) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def get_text(self, path: str) -> str:
        conn = self.connect()
        try:
            conn.request("GET", path)
            return conn.getresponse().read().decode()
        finally:
            conn.close()

    def stop(self) -> None:
        """^C is the server's clean shutdown (it stops its shards);
        the whole process group is killed if that does not end it, and
        this returns once no process of the group is left."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.perf_counter() + 10
        while time.perf_counter() < deadline:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            if self.proc.poll() is None:
                self.proc.wait()
            time.sleep(0.01)
        self.proc.stdout.close()
        self._log.close()


def _default_sigint() -> None:
    """A process started with SIGINT ignored (a background job) passes
    that on, and the server would then ignore its shutdown signal."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------
class Response(SimpleNamespace):
    """One request's outcome: index, request, repeat, seconds, status,
    body."""


def drive(server: Server, seed: int, seconds: float,
          spans: Optional[Spans]) -> Tuple[List[Response], float]:
    """Two keep-alive clients in a closed loop for ``seconds``.

    One posts the seed's new requests in order; the other re-posts
    requests the first has already sent (report-cache reads, or a
    single-flight join while the first is still in flight).  Cold
    profiles therefore never queue behind each other, so cold latency
    does not depend on how a seed happens to pair them, and warm reads
    run concurrently with a cold profile as they would on a live
    service.  Returns the responses in send order and the wall time from
    the first send to the last reply.
    """
    fresh = new_requests(random.Random(seed))
    picker = random.Random(f"repeats-{seed}")
    issued: List[Request] = []
    lock = threading.Lock()
    first_sent = threading.Event()
    responses: List[Response] = []
    errors: List[BaseException] = []
    start = time.perf_counter()
    deadline = start + seconds

    def take_new() -> Optional[Response]:
        with lock:
            request = next(fresh, None)
            if request is None:
                return None  # every request sent: repeats carry on
            issued.append(request)
            resp = Response(index=len(responses), request=request,
                            repeat=False)
            responses.append(resp)
        first_sent.set()
        return resp

    def take_repeat() -> Optional[Response]:
        first_sent.wait()
        with lock:
            resp = Response(index=len(responses),
                            request=picker.choice(issued), repeat=True)
            responses.append(resp)
        return resp

    def client(take) -> None:
        conn = server.connect()
        try:
            while time.perf_counter() < deadline:
                resp = take()
                if resp is None:
                    break
                model, batch, precision, backend = resp.request
                body = json.dumps({"model": model, "batch_size": batch,
                                   "precision": precision,
                                   "backend": backend, "platform": PLATFORM,
                                   "wait": True})
                with spans.span("service.http") if spans \
                        else nullcontext():
                    t0 = time.perf_counter()
                    conn.request("POST", "/profile", body,
                                 {"Content-Type": "application/json"})
                    reply = conn.getresponse()
                    resp.body = reply.read()
                    resp.seconds = time.perf_counter() - t0
                    resp.status = reply.status
        except BaseException as exc:  # reported after the join
            errors.append(exc)
            first_sent.set()  # never leave the other client waiting
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(take,))
               for take in (take_new, take_repeat)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return responses, wall


def body_digest(body: bytes) -> Optional[str]:
    from repro.ir.fingerprint import report_digest

    doc = json.loads(body).get("report")
    if doc is None:
        return None
    return report_digest(SimpleNamespace(to_dict=lambda: doc))


def reference_digests(requests: List[Request],
                      spans: Optional[Spans]) -> Dict[Request, str]:
    """In-process cold ``Profiler.profile`` of each distinct request."""
    from repro.analysis.cache import AnalysisCache
    from repro.core.profiler import Profiler
    from repro.ir.fingerprint import report_digest
    from repro.models.registry import build_model
    from profile_cold import reinfer_shapes

    out = {}
    with instrument(spans) if spans else nullcontext():
        for request in requests:
            model, batch, precision, backend = request
            with spans.span("models.build") if spans else nullcontext():
                graph = build_model(model, batch_size=batch)
            with spans.span("core.profile") if spans else nullcontext():
                report = Profiler(backend, PLATFORM, precision,
                                  analysis_cache=AnalysisCache()
                                  ).profile(graph)
            if spans:
                reinfer_shapes(graph, spans)
            out[request] = report_digest(report)
    return out


def _delta(after: dict, before: dict, name: str) -> float:
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def _hist_delta(after: dict, before: dict, name: str) -> Tuple[int, float]:
    a = after["histograms"].get(name, {"count": 0, "sum": 0.0})
    b = before["histograms"].get(name, {"count": 0, "sum": 0.0})
    return a["count"] - b["count"], a["sum"] - b["sum"]


def _tier_ratio(after: dict, before: dict, tier: str) -> Optional[float]:
    if "analysis_cache" not in after:
        return None  # fleet: the caches are private to the shards
    a, b = after["analysis_cache"][tier], before["analysis_cache"][tier]
    hits = a["hits"] - b["hits"]
    total = hits + a["misses"] - b["misses"]
    return hits / total if total else 0.0


def run(tier: str, seed: int, seconds: float, traced: bool = False,
        setup_reps: int = SERVE_SETUP_REPS
        ) -> Tuple[Outcome, Dict[str, float]]:
    spans = Spans() if traced else None
    setup_times = []
    server = None
    try:
        for _ in range(max(1, setup_reps)):
            if server is not None:
                server.stop()
                server = None
            server = Server(tier)
            setup_times.append(server.setup_seconds)
        before = server.get_json("/stats")
        metrics_before = server.get_text("/metrics") if traced else ""
        responses, wall = drive(server, seed, seconds, spans)
        after = server.get_json("/stats")
        metrics_after = server.get_text("/metrics") if traced else ""
        peak_rss = tree_peak_rss_mb(server.proc.pid)
        rtt = []
        if traced:
            conn = server.connect()
            try:
                for _ in range(20):
                    t0 = time.perf_counter()
                    conn.request("GET", "/healthz")
                    conn.getresponse().read()
                    rtt.append(time.perf_counter() - t0)
            finally:
                conn.close()
    finally:
        if server is not None:
            server.stop()

    # checks, after the timed phase
    distinct = [r.request for r in responses if not r.repeat]
    refs = reference_digests(distinct, spans)
    log = OpLog()
    first_digest: Dict[Request, Optional[str]] = {}
    for r in responses:
        problems = []
        digest = body_digest(r.body) if r.status == 200 else None
        if r.status != 200:
            problems.append(f"HTTP {r.status}")
        elif r.repeat:
            if digest != first_digest.get(r.request):
                problems.append("repeat digest differs from first response")
        else:
            first_digest[r.request] = digest
            if digest != refs[r.request]:
                problems.append("report differs from in-process profile")
        log.record(problems, label=f"#{r.index} {r.request}")
    profiles_run = _delta(after, before, "jobs.succeeded")
    run_checks = []
    if profiles_run != len(distinct):
        run_checks.append(f"server ran {profiles_run} profiles for "
                          f"{len(distinct)} distinct requests")

    all_ms = [r.seconds * 1e3 for r in responses]
    cold_ms = [r.seconds * 1e3 for r in responses if not r.repeat]
    warm_ms = [r.seconds * 1e3 for r in responses if r.repeat]
    out = Outcome(attempted=log.attempted, failed=log.failed,
                  correct=not log.unexpected and not run_checks)
    out.metrics = {
        "setup_s": (median(setup_times), "s"),
        "ops_per_s": (len(responses) / wall, "1/s"),
        "p50_ms": (hd_median(all_ms), "ms"),
        "cold_p50_ms": (hd_median(cold_ms), "ms"),
        "warm_p50_ms": (hd_median(warm_ms), "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    out.notes += [f"{len(responses)} responses ({len(distinct)} distinct) "
                  f"in {wall:.2f} s; set-up reps "
                  f"{[round(t, 3) for t in setup_times]}",
                  tail_note("all responses", all_ms),
                  tail_note("cold (first of a kind)", cold_ms),
                  tail_note("warm (repeat)", warm_ms)]
    out.notes += [f"unexpected failure: {u}" for u in log.unexpected[:5]]
    out.notes += run_checks
    layer: Dict[str, float] = {}
    if traced:
        from profile_cold import profiling_layers, tracer_overhead_ms

        layer = profiling_layers(spans, len(distinct))
        layer["obs.trace_overhead_ms"] = tracer_overhead_ms()
        jobs, job_s = _hist_delta(after, before, "service.seconds")
        waits, wait_s = _hist_delta(after, before, "queue.wait_seconds")
        layer.update({
            "service.http_rtt_ms": median(rtt) * 1e3,
            "service.response_kb": sum(len(r.body) for r in responses)
            / len(responses) / 1024,
            "service.job_ms": job_s / max(1, jobs) * 1e3,
            "service.report_cache_hits": _delta(after, before,
                                                "jobs.cache_hits"),
            "service.dedup_joins": _delta(after, before, "jobs.deduplicated"),
            "service.profiles_run": profiles_run,
            # busy share of the two execution slots (workers or shards)
            "service.shard_utilization": job_s / (2 * wall),
            "service.shed": _delta(after, before, "jobs.shed")
            + _delta(after, before, "jobs.rejected"),
            "service.respawns": _delta(after, before, "shard.respawns"),
        })
        if waits:  # thread tier only
            layer["service.queue_wait_ms"] = wait_s / waits * 1e3
        for tier_name in ("layer", "structure"):
            ratio = _tier_ratio(after, before, tier_name)
            if ratio is not None:
                layer[f"analysis.{tier_name}_hit_ratio"] = ratio
        spans.write(OUT / f"spans-serve-{tier}-{seed}.json")
        (OUT / f"scrape-serve-{tier}-{seed}.json").write_text(json.dumps({
            "stats_before": before, "stats_after": after,
            "metrics_before": metrics_before,
            "metrics_after": metrics_after}))
    return out, layer
