"""Seeded benchmark of the tensornet library and its ``tnet`` CLI.

Run from the repository root::

    python3 perfbench/run.py --workload sat-count --seed 1 --seconds 30 --trace 0

Each run starts fresh worker processes (``worker.py``) under a fixed
address-space cap, so a runaway allocation fails with ``MemoryError`` in
the worker instead of exhausting the machine.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is one JSON object; the line before it
is the run record (machine, versions, cap, sample counts).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = Path("perfbench") / "out"
WORKLOADS = ("sat-count", "small-nets", "mps-sweep", "cli")

CAP_MIB = 1024  # RLIMIT_AS of every worker and of the CLI children it starts
BLAS_THREADS = 1
SETUP_SAMPLES = 3  # worker start-ups timed per run; setup_s is their median
DEADLINE_S = 170  # a run that takes longer is killed and reported as an error

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CAP_MIB * 2**20, CAP_MIB * 2**20))


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def start_worker(args, setup_only: bool, deadline: float):
    """Start a worker; return (process, deadline timer, seconds from spawn
    to READY, or None if it never got ready)."""
    env = dict(os.environ, PYTHONPATH="src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.perf_counter()
    # its own session, so a kill at the deadline also reaches CLI children
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, preexec_fn=cap_address_space,
                            start_new_session=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 0), kill_group, (proc.pid,))
    killer.start()
    ready = proc.stdout.readline()
    setup = time.perf_counter() - t0
    return proc, killer, setup if ready.strip() == b"READY" else None


def finish(proc, killer) -> tuple[int, bytes]:
    out = proc.stdout.read()
    proc.stdout.close()
    code = proc.wait()
    killer.cancel()
    return code, out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not Path("src/tensornet/__init__.py").is_file():
        print("error: run from the repository root; src/tensornet is missing", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    setups = []
    for _ in range(SETUP_SAMPLES - 1 if args.trace == 0 else 0):
        proc, killer, setup = start_worker(args, True, deadline)
        code, _ = finish(proc, killer)
        if setup is None or code != 0:
            print(f"error: setup worker exited {code}", file=sys.stderr)
            return 1
        setups.append(setup)
    proc, killer, setup = start_worker(args, False, deadline)
    code, out = finish(proc, killer)
    if setup is None or code != 0:
        print(f"error: worker exited {code}", file=sys.stderr)
        return 1
    setups.append(setup)
    result = json.loads(out.decode().strip().splitlines()[-1])

    if args.trace == 0:
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        units = END_TO_END_UNITS
    else:
        values = result["metrics"]
        units = result["units"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": result["numpy"],
        "blas_threads": BLAS_THREADS, "cap_mib": CAP_MIB, "setup_samples": len(setups),
        "attempted": result["attempted"], "failed": result["failed"], "wrong": result["wrong"],
        "failures": result["failures"],
    }
    record.update(result.get("record", {}))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("record: " + json.dumps(record))
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
