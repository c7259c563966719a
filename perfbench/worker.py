"""One workload run in a fresh process: set up, print READY, measure, check
every answer against its oracle, and print one JSON line.

Started by ``run.py`` under an address-space cap; run it directly only for
debugging (from the repository root, with ``PYTHONPATH=src``)::

    PYTHONPATH=src python3 perfbench/worker.py --workload small-nets --seed 1 --seconds 2 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from tracing import PER_LAYER, Tracer
from workloads import WORKLOADS, ChildRss, build, over_budget_plan_log2

OUT_DIR = Path("perfbench") / "out"
STARTUP_SAMPLES = 5


def run_op(op) -> tuple[float, object, bool]:
    """Time one call; any exception (MemoryError included) is a failure."""
    t0 = time.perf_counter()
    try:
        out, ok = op.run(), True
    except Exception as exc:  # the loop must survive every failure mode
        out, ok = type(exc).__name__, False
    return time.perf_counter() - t0, out, ok


def failure_kinds(outcomes) -> dict[str, int]:
    """Maps "kind: exception" to the number of operations that raised it."""
    return dict(Counter(f"{op.kind}: {out}" for op, out, ok in outcomes if not ok))


def kind_latencies(outcomes, latencies) -> dict[str, dict]:
    """Operation kind -> sample count and median latency (ms)."""
    by_kind: dict[str, list[float]] = {}
    for (op, _, _), dt in zip(outcomes, latencies):
        by_kind.setdefault(op.kind, []).append(dt)
    return {kind: {"n": len(v), "p50_ms": percentile(v, 0.5) * 1e3} for kind, v in sorted(by_kind.items())}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed operations enter as +inf."""
    ranked = sorted(values)
    return ranked[max(math.ceil(q * len(ranked)) - 1, 0)]


def measure(ops, pass_len: int, seconds: float, rss: ChildRss, in_process_rss: bool) -> dict:
    """Closed loop over ``ops`` for ``seconds``, ended at a pass boundary so
    every run times the same mix of operation kinds; answers are checked
    after."""
    timings, outcomes = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(outcomes) % pass_len:
        op = ops[len(outcomes) % len(ops)]
        dt, out, ok = run_op(op)
        timings.append(dt)
        outcomes.append((op, out, ok))
    wall = time.perf_counter() - start
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if in_process_rss else rss.max_kib
    good = [ok and bool(op.check(out)) for op, out, ok in outcomes]
    wrong = sum(ok and not g for (_, _, ok), g in zip(outcomes, good))
    # a failed operation, wrong answers included, never meets a latency limit
    latencies = [dt if g else math.inf for dt, g in zip(timings, good)]
    return {
        "attempted": len(outcomes),
        "failed": len(outcomes) - sum(good),
        "wrong": wrong,
        "metrics": {
            "ops_per_s": sum(good) / wall,
            "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
            "peak_rss_mib": rss_kib / 1024,
        },
        "failures": failure_kinds(outcomes),
        "record": {
            # p90 needs ten samples beyond it
            "latency_p90_ms": percentile(latencies, 0.9) * 1e3 if len(latencies) >= 100 else None,
            "passes": len(outcomes) // pass_len,
            "kinds": kind_latencies(outcomes, latencies),
        },
    }


def timed_passes(ops, seconds: float, tracers: list | None = None) -> tuple[float, list]:
    """Repeat the pass over ``ops`` until ``seconds`` have elapsed (at least
    once), each pass under a fresh Tracer when ``tracers`` is given.
    Return operations that returned per second, and the first pass's
    outcomes (checked by the caller)."""
    start = time.perf_counter()
    done, outcomes = 0, []
    while not outcomes or time.perf_counter() - start < seconds:
        tracer = Tracer() if tracers is not None else None
        first = not outcomes
        with tracer or contextlib.nullcontext():
            for op_id, op in enumerate(ops):
                if tracer:
                    tracer.op_id = op_id
                _, out, ok = run_op(op)
                done += ok
                if first:
                    outcomes.append((op, out, ok))
        if tracer:
            tracers.append(tracer)
    return done / (time.perf_counter() - start), outcomes


def startup_ms() -> float:
    """Median wall time of a child that only imports tensornet."""
    env = dict(os.environ, PYTHONPATH="src")
    samples = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import tensornet"], env=env, check=True)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def traced(workload: str, seed: int, ops, seconds: float) -> dict:
    """Per-layer metrics: the median over traced passes of each pass's value,
    and the contraction memory peak from one more pass."""
    untraced_rate, _ = timed_passes(ops, seconds / 2)
    tracers = []
    traced_rate, outcomes = timed_passes(ops, seconds / 2, tracers)
    per_pass = [t.metrics() for t in tracers]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    memory = Tracer(track_memory=True)
    with memory:
        for op in ops:
            run_op(op)
    metrics["network.contract_peak_mib"] = memory.metrics()["network.contract_peak_mib"]
    metrics["network.over_budget_plan_log2"] = over_budget_plan_log2(workload, seed)
    metrics["cli.startup_ms"] = startup_ms() if workload == "cli" else 0.0
    metrics["trace.ops_per_s_untraced"] = untraced_rate
    metrics["trace.ops_per_s_traced"] = traced_rate
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracers[0].dump(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    errors = sum(not ok for _, _, ok in outcomes)
    wrong = sum(ok and not op.check(out) for op, out, ok in outcomes)
    return {
        "attempted": len(outcomes),
        "failed": errors + wrong,
        "wrong": wrong,
        "failures": failure_kinds(outcomes),
        "metrics": {name: metrics[name] for name in PER_LAYER},
        "units": PER_LAYER,
        "record": {"traced_passes": len(tracers), "ops_per_pass": len(ops)},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    rss = ChildRss()
    inputs = OUT_DIR / f"inputs-{os.getpid()}"
    try:
        ops, warm, pass_len = build(args.workload, args.seed, inputs, args.trace == 1, rss)
        run_op(warm)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = traced(args.workload, args.seed, ops[:pass_len], args.seconds)
        else:
            result = measure(ops, pass_len, args.seconds, rss, in_process_rss=args.workload != "cli")
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    result["numpy"] = np.__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
