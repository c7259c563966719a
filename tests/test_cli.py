"""Command-line interface and the amplitude file format."""

import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tensornet as tn
from tensornet.cli import main
from tensornet.fileio import format_amplitudes, parse_amplitudes, read_amplitudes, write_amplitudes

rng = np.random.default_rng(55)
SRC = Path(__file__).resolve().parents[1] / "src"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def state_file(tmp_path, name, values, dims):
    t = tn.ket(np.asarray(values, dtype=complex), dims=dims)
    return write(tmp_path, name, format_amplitudes(t))


def parse_human(out):
    pairs = {}
    for line in out.splitlines():
        if ": " in line:
            k, v = line.split(": ", 1)
            pairs[k] = v
    return pairs


# -- amplitude files ----------------------------------------------------


def test_amplitude_round_trip(tmp_path):
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    t = tn.ket(v, dims=[2, 2, 2])
    back = parse_amplitudes(format_amplitudes(t))
    assert np.allclose(back.data, t.data)
    assert [w.dim for w in back.wires] == [2, 2, 2]
    # through a file: 17 significant digits give back every double
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    v[3] = 0
    t = tn.ket(v, labels=["s0", "s1", "s2"], dims=[2, 3, 2])  # the file's wire labels
    write_amplitudes(tmp_path / "state.txt", t)
    back = read_amplitudes(tmp_path / "state.txt")
    assert np.array_equal(back.data, t.data)
    assert back.wires == t.wires


AMPLITUDE_ERRORS = {  # text: (line, message)
    "2 2\n1 0\n": (1, "expected header 'dims d1 d2 ...'"),  # missing 'dims'
    "dims 2 x\n": (1, "non-integer dimension"),
    "dims 0\n": (1, r"dimensions must be positive integers, got \[0\]"),
    "dims 2\n1 0\n": (2, r"got 1 amplitudes, dims \[2\] require 2"),  # too few, at the last line
    "dims 2\n1 0\n0 0\n1 0\n": (4, r"more than 2 amplitudes for dims \[2\]"),
    "dims 2\n1\n0 0\n": (2, "expected 're im' pair, got '1'"),
    "dims 2\nez 0\n0 0\n": (2, "non-numeric amplitude 'ez"),
    "dims 2\nnan 0\n0 0\n": (2, "non-finite amplitude 'nan"),  # not a number
    "dims 2\n1 0\n0 -inf\n": (3, "non-finite amplitude"),
    "dims 2\n\n1e400 0\n0 0\n": (3, "non-finite amplitude '1e400"),  # past the float range
    # each finite, the norm (3e308) not: at the last line
    "dims 2 2\n1.5e308 0\n1.5e308 0\n1.5e308 0\n1.5e308 0\n": (5, "amplitudes too large: their norm overflows"),
    # blank lines count, and a trailing one is the last line; there is no comment syntax
    "": (1, "expected header 'dims d1 d2 ...'"),
    "\n\n": (1, "expected header 'dims d1 d2 ...'"),
    "\n\ndims 2\n\n1 0\n\n0 x\n\n": (7, "non-numeric amplitude"),
    "dims 2\n1 0\n\n\n": (4, r"got 1 amplitudes, dims \[2\] require 2"),
    "dims 2 2\n1.5e308 0\n1.5e308 0\n1.5e308 0\n1.5e308 0\n\n": (6, "their norm overflows"),
    "dims 2\n# a note\n1 0\n0 0\n": (2, "expected 're im' pair, got '# a note'"),
}


@pytest.mark.parametrize("text", AMPLITUDE_ERRORS)
def test_amplitude_parse_errors(text):
    line, match = AMPLITUDE_ERRORS[text]
    with pytest.raises(tn.ParseError, match=match) as err:
        parse_amplitudes(text)
    assert err.value.line == line


def test_parse_errors_name_the_first_bad_token():
    with pytest.raises(tn.ParseError, match="non-integer literal 'y'") as err:
        tn.parse_dimacs("p cnf 3 1\n1 y z 0\n")
    assert err.value.line == 2
    with pytest.raises(tn.ParseError, match="non-integer endpoint 'a'"):
        tn.parse_graph("nodes 2\na b\n")
    with pytest.raises(tn.ParseError, match="non-numeric amplitude '1,5'"):
        parse_amplitudes("dims 2\n1 0\n1,5 x\n")
    # a non-finite value is refused at its own line, before a later line that is no pair
    with pytest.raises(tn.ParseError, match="non-finite amplitude 'inf'") as err:
        parse_amplitudes("dims 2\n0 inf\n1\n")
    assert err.value.line == 2


NOT_ASCII_DIGITS = {  # text -> (line, message): int() and float() take each refused token
    ("count-sat", "p cnf 10 1\n1_0 0\n"): (2, "non-integer literal '1_0'"),
    ("count-sat", "p cnf 1_0 1\n1 0\n"): (1, "non-integer count '1_0'"),
    ("count-sat", "c\np cnf 3 1\n1 ３ 0\n"): (3, "non-integer literal '３'"),
    ("count-sat", "p cnf 3 1\n1_0 x 0\n"): (2, "non-integer literal '1_0'"),
    ("color-count", "nodes 4\n0 1_0\n"): (2, "non-integer endpoint '1_0'"),
    ("color-count", "nodes ３\n"): (1, "non-integer node count '３'"),
    ("mps", "dims 2\n1_000.5 0\n0 0\n"): (2, "non-numeric amplitude '1_000.5'"),
    ("mps", "dims 2\n1 0\n\n0 ３\n"): (4, "non-numeric amplitude '３'"),
    ("mps", "dims 1_0\n"): (1, "non-integer dimension '1_0'"),
}
PARSERS = {"count-sat": tn.parse_dimacs, "color-count": tn.parse_graph, "mps": parse_amplitudes}


@pytest.mark.parametrize("command, text", NOT_ASCII_DIGITS)
def test_numbers_with_underscores_or_non_ascii_digits_are_refused(tmp_path, capsys, command, text):
    line, message = NOT_ASCII_DIGITS[command, text]
    with pytest.raises(tn.ParseError, match=message) as err:
        PARSERS[command](text)
    assert err.value.line == line
    f = tmp_path / "input.txt"
    f.write_text(text, encoding="utf-8")
    assert main([command, str(f)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {f}:{line}: {message}")


def test_a_leading_plus_is_a_number():
    assert tn.parse_dimacs("p cnf +2 1\n+1 -2 0\n") == tn.parse_dimacs("p cnf 2 1\n1 -2 0\n")
    assert tn.parse_graph("nodes +2\n+0 1\n").edges == [(0, 1)]
    assert parse_amplitudes("dims 2\n+1 0\n0 +0.5e+0\n").data.tolist() == [1, 0.5j]


@pytest.mark.parametrize("text, line", [
    ("dims 2\nnan 0\n0 0\n", 2),
    ("dims 2\n\n1 0\n\n0 inf\n", 5),
    ("dims 2\n1.5e308 0\n1.5e308 0\n", 3),
])
def test_non_finite_amplitudes_are_refused_at_their_line(text, line):
    with pytest.raises(tn.ParseError) as err:
        parse_amplitudes(text)
    assert err.value.line == line


# -- count-sat ----------------------------------------------------------


def test_count_sat_with_oracle(tmp_path, capsys):
    f = write(tmp_path, "f.cnf", "p cnf 2 1\n1 2 0\n")
    assert main(["count-sat", f, "--brute-force"]) == 0
    out = capsys.readouterr().out
    pairs = parse_human(out)
    assert pairs["count"] == "3"
    assert "MATCH" in out and "MISMATCH" not in out


def test_count_sat_unsat_is_success(tmp_path, capsys):
    f = write(tmp_path, "f.cnf", "p cnf 1 2\n1 0\n-1 0\n")
    assert main(["count-sat", f]) == 0
    assert parse_human(capsys.readouterr().out)["count"] == "0"


def test_count_sat_parse_error_exit_2(tmp_path, capsys):
    f = write(tmp_path, "bad.cnf", "p cnf 1 1\nbroken 0\n")
    assert main(["count-sat", f]) == 2
    err = capsys.readouterr().err
    assert ":2:" in err


def test_count_sat_satlib_file_matches_brute_force(tmp_path, capsys):
    # SATLIB's uf20-91 and its kin end with a "%" line and a "0" line
    f = write(tmp_path, "uf4-3.cnf", "c SATLIB style\np cnf 4 3\n 1 -2 3 0\n-1 2 4 0\n2 -3 -4 0\n%\n0\n\n")
    assert main(["count-sat", f, "--brute-force", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["match"] is True and out["count"] == out["brute_force"] == 10


@pytest.mark.parametrize("value", ["basic_format", "nonsense", "10"])
def test_tnet_log_that_is_no_level_name_means_warning(tmp_path, value):
    # logging.BASIC_FORMAT is a format string: passed on as a level, it raised
    # "Unknown level" outside main's error handling (traceback, exit 1)
    f = write(tmp_path, "f.cnf", "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n")
    env = dict(os.environ, PYTHONPATH=str(SRC), TNET_LOG=value)
    proc = subprocess.run([sys.executable, "-m", "tensornet.cli", "count-sat", f, "--json"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == 2 and proc.stderr == ""
    env["TNET_LOG"] = "debug"
    proc = subprocess.run([sys.executable, "-m", "tensornet.cli", "count-sat", f, "--json"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and "count_sat:" in proc.stderr


def test_count_sat_missing_file_exit_2(tmp_path, capsys):
    assert main(["count-sat", str(tmp_path / "nope.cnf")]) == 2


def random_3sat_text(num_vars, num_clauses, seed):
    r = random.Random(seed)
    lines = [f"p cnf {num_vars} {num_clauses}"]
    for _ in range(num_clauses):
        lines.append(" ".join(str(v if r.random() < 0.5 else -v) for v in r.sample(range(1, num_vars + 1), 3)) + " 0")
    return "\n".join(lines) + "\n"


def test_count_sat_dense_six_variable_formula(tmp_path, capsys):
    f = write(tmp_path, "f.cnf", random_3sat_text(6, 25, 1))
    assert main(["count-sat", f, "--brute-force", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["match"] is True


def test_count_sat_oversized_is_refused_exit_2(tmp_path, capsys):
    text = random_3sat_text(80, 340, 1)
    assert tn.formula_to_network(tn.parse_dimacs(text)).greedy_plan().peak_size > 2**26
    f = write(tmp_path, "big.cnf", text)
    t0 = time.perf_counter()
    assert main(["count-sat", f]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith("error: contraction needs")


def test_count_sat_past_exact_integers_exit_3(tmp_path, capsys):
    f = write(tmp_path, "wide.cnf", "p cnf 60 1\n" + " ".join(map(str, range(1, 61))) + " 0\n")
    assert main(["count-sat", f]) == 3
    assert "2^53" in capsys.readouterr().err


def test_count_sat_overflowing_count_exit_3(tmp_path, capsys):
    # 2^1100 overflows complex128 to inf; refused like any count past 2^53
    f = write(tmp_path, "empty.cnf", "p cnf 1100 0\n")
    assert main(["count-sat", f]) == 3
    assert "2^53" in capsys.readouterr().err


def test_count_sat_unsatisfiable_with_1100_variables_counts_0(tmp_path, capsys):
    # 1099 unused variables: their factor 2^1099 overflows to inf, and a count
    # of 0 must not become NaN (exit 3)
    f = write(tmp_path, "unsat.cnf", "p cnf 1100 2\n1 0\n-1 0\n")
    assert main(["count-sat", f, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 0


def test_count_sat_on_20000_unused_variables_finishes(tmp_path):
    # a 14-byte input; planning it by rescanning every pair per merge hangs
    f = write(tmp_path, "empty.cnf", "p cnf 20000 0\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "tensornet.cli", "count-sat", f],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3, proc.stderr
    assert "2^53" in proc.stderr


def test_count_sat_on_200000_unused_variables_multiplies_scalars(tmp_path):
    # every unused variable is a closed spider group, a scalar factor 2; the
    # product overflows and is refused without one tensordot per variable
    # (8.1 s when the 200000 scalar pieces were outer-multiplied)
    f = write(tmp_path, "empty.cnf", "p cnf 200000 0\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "tensornet.cli", "count-sat", f],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "2^53" in proc.stderr
    assert time.perf_counter() - t0 < 4.0


def test_memory_error_exit_3(tmp_path, capsys, monkeypatch):
    def exhausted(formula):
        raise MemoryError

    monkeypatch.setattr(tn.counting, "count_sat", exhausted)
    f = write(tmp_path, "f.cnf", "p cnf 2 1\n1 2 0\n")
    assert main(["count-sat", f]) == 3
    assert capsys.readouterr().err == "error: out of memory\n"


def test_json_and_human_agree(tmp_path, capsys):
    f = write(tmp_path, "f.cnf", "p cnf 3 2\n1 -2 0\n2 3 0\n")
    main(["count-sat", f])
    human = parse_human(capsys.readouterr().out)
    main(["count-sat", f, "--json"])
    machine = json.loads(capsys.readouterr().out)
    assert int(human["count"]) == machine["count"]
    assert float(human["raw_real"]) == machine["raw_real"]


# -- color-count --------------------------------------------------------


def test_color_count_theta(tmp_path, capsys):
    f = write(tmp_path, "theta.txt", "nodes 2\n0 1\n0 1\n0 1\n")
    assert main(["color-count", f, "--brute-force"]) == 0
    out = capsys.readouterr().out
    assert parse_human(out)["count"] == "6"
    assert "planar" in out  # caveat line


def test_color_count_k33_mismatch_exit_4(tmp_path, capsys):
    lines = ["nodes 6"] + [f"{i} {j}" for i in range(3) for j in range(3, 6)]
    f = write(tmp_path, "k33.txt", "\n".join(lines) + "\n")
    assert main(["color-count", f, "--brute-force"]) == 4
    out = capsys.readouterr().out
    pairs = parse_human(out)
    assert pairs["count"] == "0"
    assert pairs["brute_force"] == "12"
    assert "MISMATCH" in out


def test_color_count_not_3_regular_exit_2(tmp_path, capsys):
    f = write(tmp_path, "path.txt", "nodes 2\n0 1\n")
    assert main(["color-count", f]) == 2


def test_color_count_not_3_regular_error_names_one_node(tmp_path, capsys):
    # the error listed every degree: 300040 bytes for this 20-byte file
    f = write(tmp_path, "sparse.txt", "nodes 100000\n0 1\n")
    assert main(["color-count", f]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 1024
    assert "graph is not 3-regular: node 0 has degree 1" in err


def test_color_count_refuses_a_large_declared_graph_in_constant_memory(tmp_path, capsys):
    # the degree check built a list over every declared node: 160 MB here
    f = write(tmp_path, "empty.txt", "nodes 20000000\n")
    tracemalloc.start()
    try:
        code = main(["color-count", f])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 2**20
    assert "graph is not 3-regular: node 0 has degree 0" in capsys.readouterr().err
    # the first node whose degree is not 3 is named, past nodes that have 3
    k4_and_one = tn.Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    with pytest.raises(tn.ShapeError, match="graph is not 3-regular: node 4 has degree 0$"):
        tn.count_3_edge_colorings(k4_and_one)


def test_color_count_negative_node_count_exit_2(tmp_path, capsys):
    f = write(tmp_path, "neg.txt", "nodes -3\n")
    assert main(["color-count", f]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "neg.txt:1: negative node count" in captured.err


# -- mps ----------------------------------------------------------------


def test_mps_ghz_max_bond(tmp_path, capsys):
    amp = np.zeros(16)
    amp[0] = amp[-1] = 1 / math.sqrt(2)
    f = state_file(tmp_path, "ghz.txt", amp, [2, 2, 2, 2])
    assert main(["mps", f, "--max-bond", "2"]) == 0
    pairs = parse_human(capsys.readouterr().out)
    assert pairs["bond_dims"] == "2,2,2"
    assert float(pairs["fidelity"]) == pytest.approx(1.0)


def test_mps_entropy_flag(tmp_path, capsys):
    amp = np.zeros(16)
    amp[0] = amp[-1] = 1 / math.sqrt(2)
    f = state_file(tmp_path, "ghz.txt", amp, [2, 2, 2, 2])
    assert main(["mps", f, "--entropy", "1"]) == 0
    pairs = parse_human(capsys.readouterr().out)
    for cut in (1, 2, 3):
        assert float(pairs[f"entropy_cut_{cut}"]) == pytest.approx(math.log(2))


def test_mps_cutoff_bound_holds(tmp_path, capsys):
    v = rng.normal(size=256) + 1j * rng.normal(size=256)
    v /= np.linalg.norm(v)
    f = state_file(tmp_path, "rand.txt", v, [2] * 8)
    assert main(["mps", f, "--cutoff", "1e-2"]) == 0
    pairs = parse_human(capsys.readouterr().out)
    assert float(pairs["fidelity"]) >= float(pairs["fidelity_bound"]) - 1e-12


def test_mps_large_cutoff_warns(tmp_path, capsys):
    v = rng.normal(size=16)
    v /= np.linalg.norm(v)
    f = state_file(tmp_path, "s.txt", v, [2] * 4)
    main(["mps", f, "--cutoff", "0.5"])
    assert "warning" in capsys.readouterr().err


def test_mps_cutoff_warning_scales_with_the_state_norm(tmp_path, capsys):
    # 1/sqrt(dim) = 0.5 warned here though every singular value is 100
    f = write(tmp_path, "big.txt", "dims 2 2\n100 0\n0 0\n0 0\n100 0\n")
    assert main(["mps", f, "--cutoff", "0.5"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert float(parse_human(captured.out)["fidelity"]) == pytest.approx(1.0, abs=1e-12)
    # and stayed silent here below 0.5, at a cutoff close to the singular values 0.01
    f = write(tmp_path, "small.txt", "dims 2 2\n0.01 0\n0 0\n0 0\n0.01 0\n")
    assert main(["mps", f, "--cutoff", "0.008"]) == 0
    err = capsys.readouterr().err
    assert "warning: cutoff 0.008 >= norm/sqrt(dim) = 0.00707106781186548" in err


def test_mps_degenerate_cutoff_exit_3(tmp_path, capsys):
    v = rng.normal(size=16)
    v /= np.linalg.norm(v)
    f = state_file(tmp_path, "s.txt", v, [2] * 4)
    assert main(["mps", f, "--cutoff", "1e6"]) == 3


@pytest.mark.parametrize("amp, xi", [("1e-300", "1e-5"), ("1e-320", "0.1")])
def test_mps_tiny_state_degenerate_cutoff_names_it_exit_3(tmp_path, capsys, amp, xi):
    # 1e-300 named the cutoff divided by 2^e (6.696928794914171e+294), and
    # 1e-320 printed "error: math range error"
    f = write(tmp_path, "bell.txt", f"dims 2 2\n{amp} 0\n0 0\n0 0\n{amp} 0\n")
    assert main(["mps", f, "--cutoff", xi]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: cutoff {float(xi)} discards every singular value" in captured.err


def test_mps_entropy_of_a_product_cut_is_positive_zero(tmp_path, capsys):
    f = write(tmp_path, "product.txt", "dims 2 2\n1 0\n0 0\n0 0\n0 0\n")
    assert main(["mps", f, "--entropy", "1", "--json"]) == 0
    assert '"entropy_cut_1": 0.0' in capsys.readouterr().out  # it printed -0.0


@pytest.mark.parametrize("xi", ["nan", "-1"])
def test_mps_cutoff_nan_or_negative_is_an_input_error_exit_2(tmp_path, capsys, xi):
    # nan exited 3 ("discards every singular value"), -1 was accepted
    f = state_file(tmp_path, "s.txt", [1, 0, 0, 1], [2, 2])
    assert main(["mps", f, f"--cutoff={xi}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: cutoff must be a number >= 0" in captured.err


def test_mps_entropy_order_nan_is_an_input_error_exit_2(tmp_path, capsys):
    # printed entropy_cut_1: nan with exit 0
    f = state_file(tmp_path, "bell.txt", [1, 0, 0, 1], [2, 2])
    assert main(["mps", f, "--entropy", "nan"]) == 2
    captured = capsys.readouterr()
    assert "nan" not in captured.out
    assert "error: order q must be >= 0, got nan" in captured.err


@pytest.mark.parametrize("q", ["nan", "-3"])
def test_mps_entropy_order_is_checked_on_a_state_without_cuts(tmp_path, capsys, q):
    # one qubit has no cut, so no entropy checked the order: exit 0
    f = state_file(tmp_path, "one.txt", [1, 0], [2])
    assert main(["mps", f, "--entropy", q]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: order q must be >= 0, got {float(q)}" in captured.err


def test_mps_entropy_json_equals_bond_entropy_per_cut(tmp_path, capsys):
    gen = np.random.default_rng(16)  # its own stream: later tests keep their draws of rng
    v = gen.normal(size=64) + 1j * gen.normal(size=64)
    f = state_file(tmp_path, "rand.txt", v / np.linalg.norm(v), [2] * 6)
    for q in ("1", "2", "0.5"):
        assert main(["mps", f, "--entropy", q, "--json"]) == 0
        machine = json.loads(capsys.readouterr().out)
        m, _ = tn.mps_from_dense(read_amplitudes(f))
        for cut in range(1, 6):
            assert machine[f"entropy_cut_{cut}"] == float(f"{tn.bond_entropy(m, cut, float(q)):.15g}")


@pytest.mark.parametrize("q", ["2", "1e308", "inf"])
def test_mps_entropy_of_large_orders(tmp_path, capsys, q):
    # a product cut printed -0.0 at q = 2; inf and 1e308 gave nan or inf
    bell = state_file(tmp_path, "bell.txt", [1, 0, 0, 1], [2, 2])
    product = state_file(tmp_path, "product.txt", [1, 0, 0, 0], [2, 2])
    assert main(["mps", bell, "--entropy", q]) == 0
    assert float(parse_human(capsys.readouterr().out)["entropy_cut_1"]) == pytest.approx(math.log(2), rel=1e-14)
    assert main(["mps", product, "--entropy", q]) == 0
    assert parse_human(capsys.readouterr().out)["entropy_cut_1"] == "0.0"


def test_mps_flags_mutually_exclusive(tmp_path, capsys):
    f = state_file(tmp_path, "s.txt", [1, 0], [2])
    assert main(["mps", f, "--cutoff", "0.1", "--max-bond", "2"]) == 2


@pytest.mark.parametrize("bond", ["0", "-3", "two"])
def test_mps_max_bond_below_one_is_a_usage_error_exit_2(tmp_path, capsys, bond):
    # a max bond of 0 reached the library's DegenerateTrimError, exit 3
    f = state_file(tmp_path, "s.txt", [1, 0, 0, 1], [2, 2])
    assert main(["mps", f, f"--max-bond={bond}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and f"expected a positive integer, got '{bond}'" in captured.err


# -- invariant ----------------------------------------------------------


def test_invariant_concurrence_bell(tmp_path, capsys):
    amp = np.array([1, 0, 0, 1]) / math.sqrt(2)
    f = state_file(tmp_path, "bell.txt", amp, [2, 2])
    assert main(["invariant", f, "--which", "concurrence"]) == 0
    pairs = parse_human(capsys.readouterr().out)
    assert float(pairs["concurrence"]) == pytest.approx(1.0)


def test_invariant_kempe_basis(tmp_path, capsys):
    amp = np.zeros(8)
    amp[0] = 1.0
    f = state_file(tmp_path, "zzz.txt", amp, [2, 2, 2])
    assert main(["invariant", f, "--which", "kempe"]) == 0
    pairs = parse_human(capsys.readouterr().out)
    assert float(pairs["kempe_real"]) == pytest.approx(1.0)


def test_invariant_tangle_ghz(tmp_path, capsys):
    amp = np.zeros(8)
    amp[0] = amp[-1] = 1 / math.sqrt(2)
    f = state_file(tmp_path, "ghz.txt", amp, [2, 2, 2])
    assert main(["invariant", f, "--which", "tangle", "--json"]) == 0
    machine = json.loads(capsys.readouterr().out)
    assert machine["tangle"] == pytest.approx(1.0)


def test_overflowing_ghz_is_refused_exit_2(tmp_path, capsys):
    # each amplitude is finite, but the norm (2.1e308) overflows: at 1e308
    # the invariants came out 0.0 (true values 0.25 and 1.0) and the
    # fidelity NaN, with exit 0
    f = write(tmp_path, "ghz.txt", "dims 2 2 2\n1.5e308 0\n" + "0 0\n" * 6 + "1.5e308 0\n")
    for argv in (["invariant", f, "--which", "kempe"], ["invariant", f, "--which", "tangle"], ["mps", f]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{f}:9: amplitudes too large" in captured.err


def test_huge_ghz_with_a_finite_norm_is_measured(tmp_path, capsys):
    # norm 1.4e308: the file was refused, its sum of squares overflowing
    f = write(tmp_path, "ghz.txt", "dims 2 2 2\n1e308 0\n" + "0 0\n" * 6 + "1e308 0\n")
    assert main(["invariant", f, "--which", "tangle", "--json"]) == 0
    machine = json.loads(capsys.readouterr().out)
    assert machine["tangle"] == pytest.approx(1.0, rel=0, abs=1e-12)
    assert machine["input_norm"] == pytest.approx(math.sqrt(2) * 1e308, rel=1e-14)
    assert main(["invariant", f, "--which", "kempe", "--json"]) == 0
    machine = json.loads(capsys.readouterr().out)
    assert machine["kempe_real"] == pytest.approx(0.25, rel=0, abs=1e-12)
    assert machine["kempe_imag"] == pytest.approx(0.0, rel=0, abs=1e-12)
    assert main(["mps", f, "--json"]) == 0
    machine = json.loads(capsys.readouterr().out)
    assert machine["fidelity"] == pytest.approx(1.0, rel=0, abs=1e-12) and machine["fidelity_bound"] == 1.0


def test_invariant_zero_state_exit_2(tmp_path, capsys):
    f = state_file(tmp_path, "zero.txt", [0, 0, 0, 0], [2, 2])
    assert main(["invariant", f, "--which", "concurrence"]) == 2
    assert "zero state" in capsys.readouterr().err


def test_mps_unnormalized_state_reports_fractions_of_its_norm(tmp_path, capsys):
    # squared norm 8: the fidelity read 8.0, and with --max-bond 1 the weight 4.0 and the bound -3.0
    f = write(tmp_path, "u.txt", "dims 2 2\n2 0\n0 0\n0 0\n2 0\n")
    assert main(["mps", f, "--json"]) == 0
    machine = json.loads(capsys.readouterr().out)
    assert machine["fidelity"] == pytest.approx(1.0) and machine["fidelity_bound"] == 1.0
    assert main(["mps", f, "--max-bond", "1", "--json"]) == 0
    machine = json.loads(capsys.readouterr().out)
    assert machine["discarded_weight_cut_1"] == pytest.approx(0.5)
    assert machine["fidelity_bound"] == pytest.approx(0.5) and machine["fidelity"] == pytest.approx(0.5)


@pytest.mark.parametrize("amp", ["1e-160", "1e-320"])
def test_tiny_bell_state_is_factored_and_measured(tmp_path, capsys, amp):
    # squares of the amplitudes underflow: the fidelity read 0.0 and the
    # concurrence 1.00001113294126 at 1e-160, and 1e-320 was a zero state
    f = write(tmp_path, "bell.txt", f"dims 2 2\n{amp} 0\n0 0\n0 0\n{amp} 0\n")
    assert main(["mps", f, "--json"]) == 0
    machine = json.loads(capsys.readouterr().out)
    assert machine["fidelity"] == pytest.approx(1.0, rel=0, abs=1e-12) and machine["fidelity_bound"] == 1.0
    assert main(["mps", f, "--max-bond", "1", "--json"]) == 0
    machine = json.loads(capsys.readouterr().out)
    assert machine["discarded_weight_cut_1"] == pytest.approx(0.5, rel=0, abs=1e-12)
    assert machine["fidelity"] == pytest.approx(0.5, rel=0, abs=1e-12)
    assert main(["invariant", f, "--which", "concurrence", "--json"]) == 0
    machine = json.loads(capsys.readouterr().out)
    assert machine["concurrence"] == pytest.approx(1.0, rel=0, abs=1e-12)
    assert machine["input_norm"] == pytest.approx(math.sqrt(2) * float(amp), rel=1e-3 if amp == "1e-320" else 1e-14)


@pytest.mark.parametrize("amp", ["1e-300", "1e-200", "1e200"])
def test_bell_state_far_from_unit_norm_has_entropy_ln2(tmp_path, capsys, amp):
    # the squared Schmidt values underflowed or overflowed: at 1e-200 the
    # entropy was refused as a zero-norm state, at 1e200 it read -0.0 (q=1)
    # and inf (q=2); and a 1e200 file was refused, its norm overflowing
    f = write(tmp_path, "bell.txt", f"dims 2 2\n{amp} 0\n0 0\n0 0\n{amp} 0\n")
    for q in ("0", "1", "2"):
        assert main(["mps", f, "--entropy", q, "--json"]) == 0
        machine = json.loads(capsys.readouterr().out)
        assert machine["entropy_cut_1"] == pytest.approx(math.log(2), rel=0, abs=1e-12)
        assert machine["fidelity"] == pytest.approx(1.0, rel=0, abs=1e-12)
    assert main(["invariant", f, "--which", "concurrence", "--json"]) == 0
    machine = json.loads(capsys.readouterr().out)
    assert machine["concurrence"] == pytest.approx(1.0, rel=0, abs=1e-12)


def test_mps_zero_state_exit_2(tmp_path, capsys):
    f = state_file(tmp_path, "zero.txt", [0, 0, 0, 0], [2, 2])
    assert main(["mps", f, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "zero-norm state" in captured.err


def test_invariant_wrong_shape_exit_2(tmp_path, capsys):
    f = state_file(tmp_path, "bell.txt", [1, 0, 0, 0], [2, 2])
    assert main(["invariant", f, "--which", "tangle"]) == 2


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2
