"""Seeded inputs, operations and oracles for the four benchmark workloads.

Every workload is a fixed cycle of operation kinds; the seed only decides
the contents of each input (clauses, amplitudes, MPS cores), so the cost
of a run depends on sizes the benchmark fixes, not on the seed.  Library
functions are looked up on their modules at call time, so the tracing
patches in ``tracing.py`` see every call the operations make.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from tensornet import cli, counting, decomp, mps, network
from tensornet.tensor import UPPER, Tensor, WireSpec

WORKLOADS = ("sat-count", "small-nets", "mps-sweep", "cli")

# Random 3-SAT formulas take their clause structure (which variables share
# a clause) from a fixed stream and their literal signs from the seed.  The
# contraction plan, and so the cost of every operation, depends only on the
# structure, so runs at different seeds do the same work on different
# formulas with different counts.
STRUCTURE_SEED = 1708

# Random 3-SAT tiers.  Over every generated structure, the counted tier
# (m/n = 2) has greedy plan peaks of 2^12..2^22 elements (64 MiB at most),
# far below the 1 GiB address-space cap, so no operation fails.  The
# over-budget tiers (m/n ~ 4.2) have plan peaks of 2^29 elements (8 GiB) and
# more: at the parent their contraction fails with MemoryError under the
# cap.  They are planned but never contracted, and their plan peak is the
# per-layer metric network.over_budget_plan_log2.
SAT_TIER = (8, 16)
SAT_PASS = 48  # distinct formulas in one pass of sat-count
SAT_OVER_TIERS = ((6, 26), (7, 30))
CLI_OVER = (6, 25)  # the over-budget CNF size planned for the cli workload
OVER_STRUCTURES = 4  # over-budget structures planned per tier

SMALL_CNF = (6, 12)
PRISM_SIDES = (3, 4)  # 9 and 12 edges: the brute-force oracle takes 0.1 s

FACTOR_SIZES = ((16, 16), (17, 32), (18, 32))  # (qubits, max rank)
COMPRESS_SIZES = ((14, 32), (14, 48))  # (sites, chi) compressed to chi / 2

CLI_MPS_QUBITS = 14
CLI_MPS_CHI = 16

TOL = 1e-9


class OperationFailed(Exception):
    """A CLI child exited with a non-zero code."""


@dataclass
class Op:
    """One timed call and the oracle that judges its answer afterwards."""

    kind: str
    input_digest: str  # identifies the generated input
    run: Callable[[], object]
    check: Callable[[object], bool]


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()[:16]


# -- input generators --------------------------------------------------


def clause_structures(n: int, m: int, count: int) -> list[list[tuple[int, int, int]]]:
    """``count`` random 3-SAT clause sets (3 distinct variables per clause),
    drawn from a stream that does not depend on the seed."""
    rng = random.Random(f"{STRUCTURE_SEED}-{n}-{m}")
    return [[tuple(rng.sample(range(1, n + 1), 3)) for _ in range(m)] for _ in range(count)]


def signed(rng: random.Random, structure) -> list[tuple[int, ...]]:
    """Give every literal a random sign: a uniform random 3-SAT formula."""
    return [tuple(v if rng.random() < 0.5 else -v for v in clause) for clause in structure]


def dimacs(n: int, clauses) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def prism_edges(k: int) -> list[tuple[int, int]]:
    """Prism over a k-gon, labelled so the default wire order is planar."""
    outer = [(i, (i + 1) % k) for i in range(k)]
    inner = [(k + i, k + (i + 1) % k) for i in range(k)]
    return outer + inner + [(i, k + i) for i in range(k)]


def graph_text(k: int) -> str:
    return f"nodes {2 * k}\n" + "".join(f"{u} {v}\n" for u, v in prism_edges(k))


def random_state(nrng: np.random.Generator, qubits: int) -> np.ndarray:
    v = nrng.normal(size=2**qubits) + 1j * nrng.normal(size=2**qubits)
    return v / np.linalg.norm(v)


def ket_of(vec: np.ndarray) -> Tensor:
    qubits = vec.size.bit_length() - 1
    return Tensor(vec, [WireSpec(f"s{k}", 2, UPPER) for k in range(qubits)])


def amplitudes_text(vec: np.ndarray) -> str:
    qubits = vec.size.bit_length() - 1
    lines = ["dims " + " ".join(["2"] * qubits)]
    lines += [f"{c.real:.17g} {c.imag:.17g}" for c in vec]
    return "\n".join(lines) + "\n"


def random_mps_cores(nrng: np.random.Generator, sites: int, chi: int) -> list[np.ndarray]:
    """Gaussian open-boundary cores with bonds min(chi, 2^k, 2^(n-k)),
    scaled to unit norm with a two-index transfer zipper."""
    cores, left = [], 1
    for k in range(sites):
        right = min(chi, 2 ** (k + 1), 2 ** (sites - k - 1))
        cores.append(nrng.normal(size=(left, 2, right)) + 1j * nrng.normal(size=(left, 2, right)))
        left = right
    env = np.ones((1, 1), dtype=complex)
    for c in cores:
        env = np.einsum("bpr,bps->rs", np.tensordot(env, np.conj(c), axes=(0, 0)), c)
    cores[-1] = cores[-1] / np.sqrt(env[0, 0].real)
    return cores


# -- oracles -----------------------------------------------------------


def concurrence_oracle(v: np.ndarray) -> float:
    a, b, c, d = v
    return 2 * abs(a * d - b * c)


def tangle_oracle(v: np.ndarray) -> float:
    """4 |Cayley hyperdeterminant| of the 2x2x2 amplitude array."""
    a = v.reshape(2, 2, 2)
    d1 = (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2 + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
          + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2 + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2)
    d2 = (a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
          + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
          + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
          + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
          + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
          + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1])
    d3 = (a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
          + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0])
    return 4 * abs(d1 - 2 * d2 + 4 * d3)


def kempe_oracle(v: np.ndarray) -> complex:
    p = v.reshape(2, 2, 2)
    q = np.conj(p)
    return complex(np.einsum("ijk,ilm,nlo,pjo,pqm,nqk->", p, q, p, q, p, q))


def close(x, y) -> bool:
    return abs(x - y) <= TOL * max(1.0, abs(y))


def mps_report_ok(bond_dims, fidelity: float, bound: float, chi: int) -> bool:
    return max(bond_dims) <= chi and fidelity >= bound - TOL


# Oracle values are cached: operations cycle, and brute force is costly.


@functools.cache
def sat_oracle(n: int, clauses: tuple[tuple[int, ...], ...]) -> int:
    return counting.brute_force_sat(counting.CnfFormula(n, list(clauses)))


@functools.cache
def prism_oracle(k: int) -> int:
    return counting.brute_force_colorings(counting.Graph(2 * k, prism_edges(k)))


# -- operations --------------------------------------------------------


def sat_op(kind: str, n: int, clauses) -> Op:
    text = dimacs(n, clauses)

    def run():
        return counting.count_sat(counting.parse_dimacs(text)).count

    return Op(kind, digest(text), run, lambda count: count == sat_oracle(n, tuple(clauses)))


def prism_op(k: int) -> Op:
    text = graph_text(k)

    def run():
        return counting.count_3_edge_colorings(counting.parse_graph(text)).count

    return Op(f"prism{k}", digest(text), run, lambda count: count == prism_oracle(k))


def invariant_ops(vec2: np.ndarray, vec3a: np.ndarray, vec3b: np.ndarray) -> list[Op]:
    s2, s3a, s3b = ket_of(vec2), ket_of(vec3a), ket_of(vec3b)
    return [
        Op("concurrence", digest(vec2), lambda: network.concurrence(s2), lambda x: close(x, concurrence_oracle(vec2))),
        Op("tangle", digest(vec3a), lambda: network.three_tangle(s3a), lambda x: close(x, tangle_oracle(vec3a))),
        Op("kempe", digest(vec3b), lambda: network.kempe(s3b), lambda x: close(x, kempe_oracle(vec3b))),
    ]


def factor_op(vec: np.ndarray, chi: int) -> Op:
    state = ket_of(vec)
    qubits = len(state.wires)

    def run():
        m, rep = mps.mps_from_dense(state, decomp.TrimPolicy.max_rank(chi))
        entropy = mps.bond_entropy(m, qubits // 2)
        return rep.bond_dims, rep.fidelity, rep.fidelity_bound, entropy

    def check(out):
        bond_dims, fid, bound, entropy = out
        # a cut of rank r carries at most ln(r) entanglement
        return mps_report_ok(bond_dims, fid, bound, chi) and -TOL <= entropy <= np.log(chi) + TOL

    return Op(f"factor{qubits}", digest(vec, chi), run, check)


def compress_op(cores: list[np.ndarray], chi: int) -> Op:
    state = mps.MPS(cores)

    def run():
        _, rep = mps.compress(state, decomp.TrimPolicy.max_rank(chi // 2))
        return rep.bond_dims, rep.fidelity, rep.fidelity_bound

    return Op(f"compress{chi}", digest(*cores, chi), run, lambda out: mps_report_ok(*out, chi // 2))


# -- the CLI, as child processes or in-process -------------------------


class ChildRss:
    """Largest max-RSS over the CLI children reaped by ``run_child``."""

    def __init__(self):
        self.max_kib = 0


def run_child(argv: list[str], rss: ChildRss) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "tensornet.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
    )
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss.max_kib = max(rss.max_kib, usage.ru_maxrss)
    return proc.returncode, out.decode()


def run_in_process(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_op(kind: str, argv: list[str], text: str, check_json: Callable[[dict], bool], runner) -> Op:
    def run():
        code, out = runner(argv + ["--json"])
        if code != 0:
            raise OperationFailed(f"tnet {argv[0]} exited {code}")
        return out

    def check(out):
        try:
            return check_json(json.loads(out))
        except (ValueError, KeyError, TypeError):
            return False

    return Op(kind, digest(argv[0], argv[2:], text), run, check)


# -- workload construction ---------------------------------------------


def build(workload: str, seed: int, workdir: Path, in_process: bool = False, rss: ChildRss | None = None):
    """Return (cycle of ops, warm-up op, number of ops in one pass).

    The cycle is a whole number of passes; every pass holds the same
    operation kinds at the same sizes.

    ``workdir`` receives the CLI workload's input files.  ``in_process``
    runs the CLI through ``tensornet.cli.main`` instead of children.
    """
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    if workload == "sat-count":
        ops = [sat_op("sat", SAT_TIER[0], signed(rng, structure))
               for structure in clause_structures(*SAT_TIER, SAT_PASS)]
        warm = sat_op("warm", 4, signed(rng, clause_structures(4, 8, 1)[0]))
        return ops, warm, SAT_PASS
    if workload == "small-nets":
        ops = []
        for i, structure in enumerate(clause_structures(*SMALL_CNF, 200)):
            ops.append(sat_op("cnf6", SMALL_CNF[0], signed(rng, structure)))
            ops.append(prism_op(PRISM_SIDES[i % len(PRISM_SIDES)]))
            ops += invariant_ops(random_state(nrng, 2), random_state(nrng, 3), random_state(nrng, 3))
        warm = invariant_ops(random_state(nrng, 2), random_state(nrng, 3), random_state(nrng, 3))[1]
        return ops, warm, 50  # ten cycles of the five kinds
    if workload == "mps-sweep":
        ops = []
        for _ in range(4):
            ops += [factor_op(random_state(nrng, q), chi) for q, chi in FACTOR_SIZES]
            ops += [compress_op(random_mps_cores(nrng, n, chi), chi) for n, chi in COMPRESS_SIZES]
        warm = factor_op(random_state(nrng, 10), 8)
        return ops, warm, len(FACTOR_SIZES) + len(COMPRESS_SIZES)
    if workload == "cli":
        return _build_cli(rng, nrng, workdir, in_process, rss or ChildRss())
    raise ValueError(f"unknown workload {workload!r}")


def _build_cli(rng, nrng, workdir: Path, in_process: bool, rss: ChildRss):
    workdir.mkdir(parents=True, exist_ok=True)
    runner = run_in_process if in_process else (lambda argv: run_child(argv, rss))

    def op(kind, name, text, argv, check_json):
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        return cli_op(kind, [argv[0], str(path), *argv[1:]], text, check_json, runner)

    def sat(kind, n, structure, tag):
        clauses = signed(rng, structure)
        return op(kind, f"{tag}.cnf", dimacs(n, clauses), ["count-sat"],
                  lambda j: j["count"] == sat_oracle(n, tuple(clauses)))

    def color(k, tag):
        return op("color-count", f"{tag}.txt", graph_text(k), ["color-count"],
                  lambda j: j["count"] == prism_oracle(k))

    def mps_file(tag):
        return op("mps", f"{tag}.amp", amplitudes_text(random_state(nrng, CLI_MPS_QUBITS)),
                  ["mps", "--max-bond", str(CLI_MPS_CHI)],
                  lambda j: mps_report_ok(j["bond_dims"], j["fidelity"], j["fidelity_bound"], CLI_MPS_CHI))

    def invariant(which, tag):
        vec = random_state(nrng, 2 if which == "concurrence" else 3)
        if which == "concurrence":
            ok = lambda j: close(j["concurrence"], concurrence_oracle(vec))
        elif which == "tangle":
            ok = lambda j: close(j["tangle"], tangle_oracle(vec))
        else:
            ok = lambda j: close(complex(j["kempe_real"], j["kempe_imag"]), kempe_oracle(vec))
        return op(f"invariant-{which}", f"{tag}.amp", amplitudes_text(vec), ["invariant", "--which", which], ok)

    cycles = 12
    tier = iter(clause_structures(*SAT_TIER, 2 * cycles))
    ops = []
    for c in range(cycles):
        ops += [
            sat("count-sat", SAT_TIER[0], next(tier), f"sat{c}a"),
            color(PRISM_SIDES[c % len(PRISM_SIDES)], f"prism{c}"),
            mps_file(f"mps{c}"),
            invariant(("concurrence", "tangle", "kempe")[c % 3], f"inv{c}a"),
            sat("count-sat", SAT_TIER[0], next(tier), f"sat{c}b"),
            invariant(("tangle", "kempe", "concurrence")[c % 3], f"inv{c}b"),
        ]
    warm = invariant("concurrence", "warm")
    return ops, warm, 6


# -- over-budget formulas, planned only --------------------------------

OVER_BUDGET = {"sat-count": SAT_OVER_TIERS, "cli": (CLI_OVER,)}


def over_budget_plan_log2(workload: str, seed: int) -> float:
    """Largest greedy plan peak (log2 of elements) over the workload's
    over-budget formulas, as ``count_sat`` would build and plan them; 0
    for a workload without any.  Nothing is contracted."""
    rng = random.Random(f"{seed}-over")
    peaks = [0.0]
    for n, m in OVER_BUDGET.get(workload, ()):
        for structure in clause_structures(n, m, OVER_STRUCTURES):
            formula = counting.parse_dimacs(dimacs(n, signed(rng, structure)))
            peaks.append(math.log2(counting.formula_to_network(formula).greedy_plan().peak_size))
    return max(peaks)
