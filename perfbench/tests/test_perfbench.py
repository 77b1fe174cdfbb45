"""Fast tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import common  # noqa: E402
import plan_exec  # noqa: E402
import profile_cold  # noqa: E402
import serve  # noqa: E402


# -- each workload at a tiny length passes its checks --------------------
@pytest.mark.parametrize("tier", ["threads", "fleet"])
def test_serve_tiny(tier):
    out, _ = serve.run(tier, seed=5, seconds=1.0, setup_reps=1)
    assert out.correct, out.notes
    assert out.attempted >= 1 and out.failed == 0
    assert set(out.metrics) == {m["name"] for m in
                                json.loads((ROOT / "BENCHMARK.json")
                                           .read_text())["end_to_end"]}


def test_profile_cold_tiny():
    out, _ = profile_cold.run(seed=5, seconds=0.0, setup_reps=1)
    assert out.correct, out.notes
    assert out.attempted == len(profile_cold.request_set())
    assert out.failed == 0


def test_plan_exec_tiny_fails_exactly_the_known_fault_ops():
    out, _ = plan_exec.run(seed=5, seconds=0.0, setup_reps=1)
    assert out.correct, out.notes
    per_round = len(plan_exec.MODELS) * len(plan_exec.LEVELS)
    # the set-up first runs plus one timed round
    assert out.attempted == 2 * per_round
    assert out.failed == 2 * len(plan_exec.KNOWN_FAULTS)


def test_command_prints_contract_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "serve-threads", "--seed", "2", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["attempted"] >= 1
    for metric in doc["metrics"].values():
        assert metric["value"] > 0 and metric["unit"]


def test_fails_without_the_program():
    lone = BENCH / "out" / "lone-checkout"
    shutil.rmtree(lone, ignore_errors=True)
    lone.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", lone)
        shutil.copytree(BENCH, lone / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "profile-cold", "--seed", "1", "--seconds", "1", "--trace",
             "0"], capture_output=True, text=True, timeout=170, cwd=lone,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(lone, ignore_errors=True)


# -- statistics ----------------------------------------------------------
def test_tail_needs_ten_samples_beyond():
    assert common.tail(list(range(39))) is None
    for n in (40, 41, 99, 100, 199, 200, 1000, 1009, 10000):
        pct, value, count = common.tail([float(i) for i in range(n)])
        rank = math.ceil(n * pct / 100.0)
        assert count == n and value == rank - 1
        assert n - rank >= 10
        higher = [p for p in (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)
                  if p > pct]
        for p in higher:
            assert n - math.ceil(n * p / 100.0) < 10


# -- seeds order the inputs, never change their make-up -------------------
def test_seed_orders_serve_requests_only():
    import random

    def first(seed, n):
        gen = serve.new_requests(random.Random(seed))
        return [next(gen) for _ in range(n)]

    per_cycle = len(serve.MODELS)
    a, b = first(1, 7 * per_cycle), first(2, 7 * per_cycle)
    assert a != b
    assert first(1, 7 * per_cycle) == a
    for new in (a, b):
        assert len(new) == len(set(new))
        assert set(new) <= set(serve.request_set())
        # whole cycles hold every model equally often, whatever the seed
        assert all([r[0] for r in new].count(m) == 7 for m in serve.MODELS)
    everything = list(serve.new_requests(random.Random(3)))
    assert sorted(everything) == sorted(serve.request_set())


def test_seed_orders_rounds_only():
    for module in (profile_cold, plan_exec):
        one, two = module.round_order(1, 0), module.round_order(2, 0)
        assert one != two
        assert sorted(one) == sorted(two)
        assert module.round_order(1, 0) == one
    assert profile_cold.REJECTED not in profile_cold.request_set()


# -- the counted pass repeats exactly -------------------------------------
COUNT_SNIPPET = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
from layers import counted_pass
print(json.dumps(counted_pass(
    [("resnet34", "trt-sim", "fp16"), ("mobilenetv2-10", "ort-sim", "int8"),
     ("vit-tiny", "ov-sim", "fp32")], ["shufflenetv2-10"], 64)))
"""


def test_two_counted_passes_agree_exactly():
    code = COUNT_SNIPPET.format(bench=str(BENCH), src=str(ROOT / "src"))
    results = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout))
    assert results[0] == results[1]
    assert results[0]["core.profile_calls"] > 0
