"""Command-line interface and the amplitude file format."""

import json
import math
import random
import time

import numpy as np
import pytest

import tensornet as tn
from tensornet.cli import main
from tensornet.fileio import format_amplitudes, parse_amplitudes

rng = np.random.default_rng(55)


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


def test_amplitude_round_trip():
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    t = tn.ket(v, dims=[2, 2, 2])
    back = parse_amplitudes(format_amplitudes(t))
    assert np.allclose(back.data, t.data)
    assert [w.dim for w in back.wires] == [2, 2, 2]


@pytest.mark.parametrize(
    "text",
    [
        "2 2\n1 0\n",  # missing 'dims'
        "dims 2 x\n",  # non-integer dim
        "dims 0\n",  # non-positive dim
        "dims 2\n1 0\n",  # too few amplitudes
        "dims 2\n1 0\n0 0\n1 0\n",  # too many
        "dims 2\n1\n0 0\n",  # not a pair
        "dims 2\nez 0\n0 0\n",  # non-numeric
    ],
)
def test_amplitude_parse_errors(text):
    with pytest.raises(tn.ParseError):
        parse_amplitudes(text)


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
    f = write(tmp_path, "big.cnf", random_3sat_text(30, 128, 1))
    t0 = time.perf_counter()
    assert main(["count-sat", f]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith("error: contraction needs")


def test_count_sat_past_exact_integers_exit_3(tmp_path, capsys):
    f = write(tmp_path, "wide.cnf", "p cnf 60 1\n" + " ".join(map(str, range(1, 61))) + " 0\n")
    assert main(["count-sat", f]) == 3
    assert "2^53" in capsys.readouterr().err


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


def test_mps_degenerate_cutoff_exit_3(tmp_path, capsys):
    v = rng.normal(size=16)
    v /= np.linalg.norm(v)
    f = state_file(tmp_path, "s.txt", v, [2] * 4)
    assert main(["mps", f, "--cutoff", "1e6"]) == 3


def test_mps_flags_mutually_exclusive(tmp_path, capsys):
    f = state_file(tmp_path, "s.txt", [1, 0], [2])
    assert main(["mps", f, "--cutoff", "0.1", "--max-bond", "2"]) == 2


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


def test_invariant_wrong_shape_exit_2(tmp_path, capsys):
    f = state_file(tmp_path, "bell.txt", [1, 0, 0, 0], [2, 2])
    assert main(["invariant", f, "--which", "tangle"]) == 2


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2
