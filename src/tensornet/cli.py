"""Command-line front end: counting, MPS compression, and invariant
evaluation over the package's text file formats.

Exit codes: 0 success, 2 input error (including a contraction refused as
too large), 3 numerical failure (including a count of 2^53 or more, past
exact complex128 integers) or out of memory, 4 oracle mismatch.  Set
``TNET_LOG`` (debug/info/warning) for log verbosity; any other value
means warning.  ``debug`` logs the network size, plan peak, planning
time and contraction time of every count.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from . import counting, mps, network
from .decomp import TrimPolicy, _check_order
from .errors import (
    DegenerateTrimError,
    NonIntegralError,
    ParseError,
    ShapeError,
    SizeLimitError,
    TensorError,
)
from .fileio import read_amplitudes
from .tensor import Tensor, _unit

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_MISMATCH = 4

PLANARITY_CAVEAT = (
    "note: the contraction counts colorings only for planar graphs with a "
    "planar wire order; planarity is not verified"
)

log = logging.getLogger("tensornet")


def _fmt(x) -> str:
    return f"{float(x):.15g}"


def _num(x) -> float:
    """Round-trip through the printed precision so human and JSON output
    carry identical values."""
    return float(_fmt(x))


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report))
    else:
        for key, value in report.items():
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            print(f"{key}: {value}")


def _emit_checked(args, report: dict, oracle, problem) -> int:
    """Emit a count report.  With ``--brute-force``, first add the count
    ``oracle(problem)`` and whether it matches ``report["count"]``, and
    follow human output with MATCH or MISMATCH; a mismatch exits 4."""
    if args.brute_force:
        report["brute_force"] = oracle(problem)
        report["match"] = report["count"] == report["brute_force"]
    _emit(report, args.json)
    if not args.brute_force:
        return EXIT_OK
    if not args.json:
        print("MATCH" if report["match"] else "MISMATCH")
    return EXIT_OK if report["match"] else EXIT_MISMATCH


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# -- subcommands --------------------------------------------------------


def cmd_count_sat(args) -> int:
    formula = counting.parse_dimacs(_read_text(args.file))
    result = counting.count_sat(formula)
    report = {
        "count": result.count,
        "raw_real": _num(result.raw.real),
        "raw_imag": _num(result.raw.imag),
        "residual": _num(result.residual),
    }
    return _emit_checked(args, report, counting.brute_force_sat, formula)


def cmd_color_count(args) -> int:
    graph = counting.parse_graph(_read_text(args.file))
    result = counting.count_3_edge_colorings(graph)
    report = {
        "raw": _num(result.raw.real),
        "count": result.count,
        "residual": _num(result.residual),
    }
    code = _emit_checked(args, report, counting.brute_force_colorings, graph)
    if not args.json:
        print(PLANARITY_CAVEAT)
    return code


def cmd_mps(args) -> int:
    if args.entropy is not None:
        _check_order(args.entropy)  # here too: a state without cuts computes no entropy
    state = read_amplitudes(args.file)
    policy = None
    if args.max_bond is not None:
        policy = TrimPolicy.max_rank(args.max_bond)
    elif args.cutoff is not None:
        policy = TrimPolicy.cutoff(args.cutoff)
        # 1/sqrt(dim) for a unit state, scaled with the state as an absolute cutoff is
        level = state.norm() / math.sqrt(math.prod(w.dim for w in state.wires))
        if args.cutoff >= level:
            print(
                f"warning: cutoff {_fmt(args.cutoff)} >= norm/sqrt(dim) = "
                f"{_fmt(level)}; truncation may discard most of the state",
                file=sys.stderr,
            )
    factored, rep = mps.mps_from_dense(state, policy)
    report = {
        "bond_dims": list(rep.bond_dims),
        "fidelity_bound": _num(rep.fidelity_bound),
        "fidelity": _num(rep.fidelity),
    }
    for k, w in enumerate(rep.discarded_weights):
        report[f"discarded_weight_cut_{k + 1}"] = _num(w)
    if args.entropy is not None:
        for cut, s in enumerate(mps._schmidt_spectra(factored), start=1):
            report[f"entropy_cut_{cut}"] = _num(mps._entropy(s, args.entropy))
    _emit(report, args.json)
    return EXIT_OK


def cmd_invariant(args) -> int:
    state = read_amplitudes(args.file)
    # scaled by a power of two first: 1 / nrm of a subnormal nrm overflows
    # or has lost bits
    unit, size, e = _unit(state.data)
    if size == 0:
        raise ShapeError("zero state has no invariants")
    state = Tensor(unit, state.wires) * (1.0 / size)
    if args.which == "concurrence":
        value = network.concurrence(state)
        report = {"concurrence": _num(value)}
    elif args.which == "tangle":
        value = network.three_tangle(state)
        report = {"tangle": _num(value)}
    else:
        value = network.kempe(state)
        report = {"kempe_real": _num(value.real), "kempe_imag": _num(value.imag)}
    report["input_norm"] = _num(math.ldexp(size, e))
    _emit(report, args.json)
    return EXIT_OK


# -- driver -------------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type of a count of at least 1; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnet",
        description="Tensor-network counting, MPS compression, and entanglement invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count-sat", help="count satisfying assignments of a DIMACS CNF file")
    p.add_argument("file", help="DIMACS CNF file")
    p.add_argument("--brute-force", action="store_true", help="cross-check with exhaustive enumeration")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_count_sat)

    p = sub.add_parser("color-count", help="count proper 3-edge-colorings of a 3-regular graph")
    p.add_argument("file", help="edge-list graph file")
    p.add_argument("--brute-force", action="store_true", help="cross-check with exhaustive enumeration")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_color_count)

    p = sub.add_parser("mps", help="factor an amplitude file into an MPS, optionally truncated")
    p.add_argument("file", help="amplitude file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--cutoff", type=float, metavar="XI", help="drop singular values below XI")
    group.add_argument("--max-bond", type=_positive_int, metavar="CHI", help="keep at most CHI singular values per cut")
    p.add_argument("--entropy", type=float, metavar="Q", help="also print Renyi-Q bond entropies")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_mps)

    p = sub.add_parser("invariant", help="evaluate an entanglement invariant of an amplitude file")
    p.add_argument("file", help="amplitude file (2 qubits for concurrence, 3 for tangle/kempe)")
    p.add_argument("--which", choices=("concurrence", "tangle", "kempe"), required=True)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_invariant)

    return parser


def main(argv=None) -> int:
    level = logging.getLevelName(os.environ.get("TNET_LOG", "warning").upper())  # a number only for a level name
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {args.file}:{exc.line}: {exc.message}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NonIntegralError, DegenerateTrimError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_NUMERICAL
    except (TensorError, SizeLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
