"""perfbench: the repository's end-to-end and per-layer benchmark.

One run::

    python3 perfbench/run.py --workload profile-cold --seed 1 \\
        --seconds 12 --trace 0

measures one workload for ``--seconds`` seconds, checks every output,
and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (a traced
replay, the complements that cover layers the workload does not reach,
and a counted pass).  Lines before it are notes for a human reader.

Steadiness self-check (runs every workload repeatedly in alternating
order and prints each metric's median, quartiles and spread against
its bound)::

    python3 perfbench/run.py --steady 5 [--workloads a,b] [--seconds 12]

See perfbench/README.md for the workloads, metrics and known faults.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402  (sibling module, path set above)

WORKLOADS = ("profile-cold", "serve-threads", "serve-fleet", "plan-exec")
#: workloads whose traced replays cover the layers a traced run's own
#: workload does not reach, in order of preference (serve-threads also
#: profiles in process, so profile-cold is rarely needed)
COMPLEMENTS = ("plan-exec", "serve-threads", "profile-cold")
COMPLEMENT_SECONDS = 4.0


def benchmark_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 **kwargs):
    if name == "profile-cold":
        import profile_cold
        return profile_cold.run(seed, seconds, traced, **kwargs)
    if name == "plan-exec":
        import plan_exec
        return plan_exec.run(seed, seconds, traced, **kwargs)
    import serve
    return serve.run(name.split("-", 1)[1], seed, seconds, traced, **kwargs)


def counted() -> dict:
    import plan_exec
    import profile_cold
    from layers import counted_pass

    requests = [(m, "trt-sim", "fp16") for m in profile_cold.MODELS]
    return counted_pass(requests, plan_exec.MODELS, plan_exec.IMAGE_SIZE)


def traced_run(workload: str, seed: int, seconds: float):
    spec = benchmark_spec()
    wanted = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    # counted first, while nothing else has run in this process
    layer = counted()
    outcome, own = run_workload(workload, seed, seconds, traced=True,
                                setup_reps=1)
    layer.update(own)
    sources = {workload: sorted(own)}
    for other in COMPLEMENTS:
        missing = [m for m in wanted if m not in layer]
        if not missing:
            break
        if other == workload:
            continue
        extra_outcome, extra = run_workload(other, seed, COMPLEMENT_SECONDS,
                                            traced=True, setup_reps=1)
        taken = [k for k in extra if k not in layer and k in wanted]
        for k in taken:
            layer[k] = extra[k]
        sources[other] = taken
        # attempted/failed stay the workload's own, so the failed share
        # of a traced run matches its untraced runs
        outcome.correct = outcome.correct and extra_outcome.correct
        outcome.notes += [f"[{other}] {n}" for n in extra_outcome.notes]
    missing = [m for m in wanted if m not in layer]
    if missing:
        raise RuntimeError(f"no traced replay produced {missing}")
    outcome.notes += [f"per-layer from {k}: {', '.join(v)}"
                      for k, v in sources.items()]
    outcome.metrics = {m: (layer[m], units[m]) for m in wanted}
    return outcome


def single(args) -> int:
    if not (common.SRC / "repro").is_dir():
        print(f"program source not found under {common.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    ref_before = common.reference_loop_ms()
    stall, t0 = common.cpu_stall_seconds(), time.perf_counter()
    if args.trace:
        outcome = traced_run(args.workload, args.seed, args.seconds)
    else:
        outcome, _ = run_workload(args.workload, args.seed, args.seconds,
                                  traced=False)
    stall_share = (common.cpu_stall_seconds() - stall) \
        / (time.perf_counter() - t0)
    ref_after = common.reference_loop_ms()
    print(f"reference loop: {ref_before:.2f} ms before, "
          f"{ref_after:.2f} ms after; runnable tasks waited for a CPU "
          f"{stall_share:.1%} of the run")
    for note in outcome.notes:
        print(note)
    print(json.dumps({
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }), flush=True)
    return 0


def steady(args) -> int:
    """Alternating repeated runs; spread of each metric against its
    bound."""
    spec = benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    results = {w: [] for w in names}
    for r in range(args.steady):
        order = names if r % 2 == 0 else names[::-1]
        for w in order:
            seed = args.seed + r
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], capture_output=True, text=True,
                timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}")
                return 1
            doc = json.loads(lines[-1])
            ref = next((ln for ln in lines if ln.startswith("reference")),
                       "")
            results[w].append(doc)
            values = "  ".join(f"{k} {v['value']:.4g}"
                               for k, v in doc["metrics"].items())
            print(f"{w} seed {seed}: {time.perf_counter() - t0:.1f} s wall, "
                  f"{doc['failed']}/{doc['attempted']} failed, "
                  f"correct {doc['correct']}; {ref}\n  {values}",
                  flush=True)
    worst = 0.0
    for w, docs in results.items():
        shares = {d["failed"] / d["attempted"] for d in docs}
        print(f"\n{w}: failed share {sorted(shares)}")
        for name, bound in bounds.items():
            values = [d["metrics"][name]["value"] for d in docs]
            if len(values) < 2:
                print(f"  {name:12s} {values}")
                continue
            q1, q2, q3 = statistics.quantiles(values, n=4)
            sp = common.spread(values)
            if name != "setup_s":
                worst = max(worst, sp / bound)
            print(f"  {name:12s} median {q2:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {sp:6.3f}  bound {bound}  "
                  f"{'OK' if sp < bound / 3 else 'WIDE'}")
    print(f"\nworst spread / bound (setup_s aside): {worst:.2f}")
    return 0


def _terminate(signum, frame) -> None:
    # unwind, so that servers this run started are stopped
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # pin thread pools before numpy loads, here and in every child
    os.environ.update(common.PINNED_ENV)
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="N",
                    help="self-check: N alternating runs per workload")
    ap.add_argument("--workloads", default="",
                    help="comma-separated subset for --steady")
    args = ap.parse_args(argv)
    if args.steady:
        return steady(args)
    if args.workload is None:
        ap.error("--workload is required")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
