"""Tests of the benchmark itself (run from the repository root):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from tensornet import network  # noqa: E402

# per-layer metrics that must be non-zero on each workload's trace pass
EXERCISED = {
    "sat-count": ["network.plan_s", "network.contract_s", "network.connect_calls", "network.plan_peak_log2_max",
                  "network.over_budget_plan_log2", "network.contract_peak_mib", "counting.parse_s",
                  "counting.build_s", "catalog.elements", "tensor.new_calls"],
    "small-nets": ["network.plan_s", "network.connect_s", "network.invariant_s", "counting.build_s",
                   "catalog.s", "tensor.new_mib"],
    "mps-sweep": ["decomp.svd_s", "decomp.svd_flops", "mps.factor_s", "mps.compress_s", "mps.inner_calls",
                  "mps.to_dense_s", "mps.entropy_s", "mps.max_bond"],
    "cli": ["fileio.parse_s", "counting.parse_s", "network.invariant_s", "decomp.svd_calls", "mps.max_bond",
            "network.over_budget_plan_log2", "cli.startup_ms"],
}


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT, seconds: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digests(workload: str, seed: int, tmp_path: Path) -> list[str]:
    ops, _, _ = workloads.build(workload, seed, tmp_path / f"{workload}-{seed}")
    return [op.input_digest for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_inputs(workload, tmp_path):
    first = digests(workload, 5, tmp_path / "a")
    assert first == digests(workload, 5, tmp_path / "b")
    assert first != digests(workload, 6, tmp_path / "c")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat(workload):
    a, b = (result_of(run_bench(workload, 3, trace=1)) for _ in range(2))
    assert a["correct"] and b["correct"]
    assert set(a["metrics"]) == set(tracing.PER_LAYER)
    for name in tracing.EXACT:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name
    for name in EXERCISED[workload]:
        assert a["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_run(workload):
    result = result_of(run_bench(workload, 4, trace=0))
    assert result["correct"]
    assert result["failed"] == 0
    assert set(result["metrics"]) == {"ops_per_s", "latency_p50_ms", "peak_rss_mib", "setup_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_runs_end_at_a_pass_boundary():
    for workload in workloads.WORKLOADS:
        ops, _, pass_len = workloads.build(workload, 1, ROOT / "perfbench" / "out" / "pass-check")
        assert len(ops) % pass_len == 0, workload
    shutil.rmtree(ROOT / "perfbench" / "out" / "pass-check", ignore_errors=True)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("small-nets", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_invariant_oracles():
    ghz = np.zeros(8, dtype=complex)
    ghz[[0, 7]] = 2**-0.5
    w = np.zeros(8, dtype=complex)
    w[[1, 2, 4]] = 3**-0.5
    assert workloads.tangle_oracle(ghz) == pytest.approx(1.0)
    assert workloads.tangle_oracle(w) == pytest.approx(0.0)
    assert workloads.concurrence_oracle(np.array([1, 0, 0, 1]) / 2**0.5) == pytest.approx(1.0)
    state = workloads.random_state(np.random.default_rng(0), 3)
    assert workloads.kempe_oracle(state) == pytest.approx(network.kempe(workloads.ket_of(state)))
    assert workloads.tangle_oracle(state) == pytest.approx(network.three_tangle(workloads.ket_of(state)))


def test_tracer_restores_every_patch():
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracing.Tracer().patches()]
    with tracing.Tracer():
        assert any(owner.__dict__[attr] is not original for owner, attr, original in before)
    assert all(owner.__dict__[attr] is original for owner, attr, original in before)
