"""#SAT and 3-edge-coloring counts against brute-force oracles."""

import itertools
import logging
import math
import random
import time

import numpy as np
import pytest

import tensornet as tn
from tensornet.counting import boolean_norm_value, formula_state_network, formula_to_network

rng = np.random.default_rng(1234)

THETA = tn.Graph(2, [(0, 1), (0, 1), (0, 1)])
K4 = tn.Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
PRISM = tn.Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
K33 = tn.Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])


def random_formula(num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        width = rng.integers(1, 4)
        vs = rng.choice(num_vars, size=min(width, num_vars), replace=False) + 1
        clauses.append(tuple(int(v) * (1 if rng.random() < 0.5 else -1) for v in vs))
    return tn.CnfFormula(num_vars, clauses)


def test_parse_dimacs_basic():
    f = tn.parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n")
    assert f.num_vars == 3
    assert f.clauses == [(1, -2), (2, 3)]


def test_parse_dimacs_multiline_clause():
    f = tn.parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
    assert f.clauses == [(1, 2, 3)]


@pytest.mark.parametrize(
    "text, line",
    [
        ("1 2 0\n", 1),  # clause before header
        ("p cnf x 1\n1 0\n", 1),  # bad header
        ("p cnf 2 1\n1 3 0\n", 2),  # literal out of range
        ("p cnf 2 1\nfoo 0\n", 2),  # non-integer literal
        ("p cnf 2 2\n1 0\n", 2),  # clause count mismatch
        ("p cnf 2 1\n1 2\n", 2),  # missing terminator
    ],
)
def test_parse_dimacs_errors_carry_line_numbers(text, line):
    with pytest.raises(tn.ParseError) as err:
        tn.parse_dimacs(text)
    assert err.value.line == line


def test_tautological_clauses_are_removed():
    f = tn.CnfFormula(2, [(1, -1), (1, 2)])
    assert f.clauses == [(1, 2)]
    assert f.tautologies_removed == 1


def test_count_or_clause():
    f = tn.CnfFormula(2, [(1, 2)])
    assert tn.count_sat(f).count == 3


def test_count_unsat():
    f = tn.CnfFormula(1, [(1,), (-1,)])
    assert tn.count_sat(f).count == 0


def test_count_empty_formula_is_full_cube():
    f = tn.CnfFormula(3, [])
    assert tn.count_sat(f).count == 8


def test_count_matches_brute_force_random():
    for _ in range(25):
        f = random_formula(int(rng.integers(1, 7)), int(rng.integers(1, 9)))
        assert tn.count_sat(f).count == tn.brute_force_sat(f)


def test_norm_network_equals_count():
    f = random_formula(5, 6)
    assert boolean_norm_value(f).real == pytest.approx(tn.brute_force_sat(f))


def messy_formula(num_vars):
    """Unit clauses, literals repeated within a clause, and the top two
    variables unused whenever num_vars > 2."""
    used = max(1, num_vars - 2)
    clauses = []
    for _ in range(int(rng.integers(0, 10))):
        vs = rng.integers(1, used + 1, size=int(rng.integers(1, 5)))  # with replacement
        clauses.append(tuple(int(v) if rng.random() < 0.5 else -int(v) for v in vs))
    return tn.CnfFormula(num_vars, clauses)


EDGE_FORMULAS = [
    tn.CnfFormula(0, []),
    tn.CnfFormula(3, []),
    tn.CnfFormula(3, [(2,)]),
    tn.CnfFormula(3, [(1, 1, -2), (-2,)]),
    tn.CnfFormula(4, [(1,), (-1, 2, 2), (-2, -2)]),
    tn.CnfFormula(2, [(1, 2), (1, 2), (-1,)]),
]


def truth_table(f):
    table = np.zeros((2,) * f.num_vars)
    for bits in itertools.product(range(2), repeat=f.num_vars):
        table[bits] = all(any((bits[abs(l) - 1] == 1) == (l > 0) for l in c) for c in f.clauses)
    return table


def random_3sat(num_vars, num_clauses, seed):
    r = random.Random(seed)
    return tn.CnfFormula(num_vars, [tuple(v if r.random() < 0.5 else -v for v in r.sample(range(1, num_vars + 1), 3))
                                    for _ in range(num_clauses)])


@pytest.mark.parametrize("f", EDGE_FORMULAS + [messy_formula(int(n)) for n in rng.integers(1, 8, size=30)])
def test_formula_state_is_truth_table_and_norm_is_count(f):
    net, ends = formula_state_network(f)
    assert len(ends) == f.num_vars
    assert np.array_equal(net.contract_all().data, truth_table(f))
    count = tn.brute_force_sat(f)
    assert boolean_norm_value(f) == count
    assert tn.count_sat(f).count == count


@pytest.mark.parametrize("num_vars, num_clauses, bound", [(8, 16, 14), (6, 25, 16)])
def test_plan_peak_regression(num_vars, num_clauses, bound):
    for seed in range(12):
        f = random_3sat(num_vars, num_clauses, seed)
        peak = formula_to_network(f).greedy_plan().peak_size
        assert peak <= 2**bound, (seed, math.log2(peak))
        assert tn.count_sat(f).count == tn.brute_force_sat(f)


def test_network_nodes_have_low_order():
    f = random_3sat(20, 85, 0)
    net = formula_to_network(f)
    assert max(len(t.wires) for t in net.nodes.values()) <= 3


def test_wide_clause_is_a_chain_of_order_3_pieces():
    # one clause over all 24 variables: a dense clause tensor would hold 2^24 elements
    f = tn.CnfFormula(24, [tuple(v if v % 3 else -v for v in range(1, 25))])
    net = formula_to_network(f)
    assert max(t.data.size for t in net.nodes.values()) <= 8
    assert net.greedy_plan().peak_size <= 2**4
    assert tn.count_sat(f).count == tn.brute_force_sat(f) == 2**24 - 1


def test_clause_wider_than_the_brute_force_guard():
    f = tn.CnfFormula(40, [tuple(range(1, 41))])
    assert tn.count_sat(f).count == 2**40 - 1


def test_counts_at_or_above_2_53_are_refused():
    # complex128 rounds 2^60 - 1 to 2^60, which would pass as integral
    with pytest.raises(tn.NonIntegralError, match="2\\^53"):
        tn.count_sat(tn.CnfFormula(60, [tuple(range(1, 61))]))
    with pytest.raises(tn.NonIntegralError):
        tn.count_sat(tn.CnfFormula(53, []))
    assert tn.count_sat(tn.CnfFormula(53, [tuple(range(1, 54))])).count == 2**53 - 1


def mixed_width_formula(num_vars, seed):
    r = random.Random(seed)
    clauses = []
    for _ in range(r.randint(1, 8)):
        vs = r.sample(range(1, num_vars + 1), r.randint(1, num_vars))
        clauses.append(tuple(v if r.random() < 0.5 else -v for v in vs))
    return tn.CnfFormula(num_vars, clauses)


@pytest.mark.parametrize("seed", range(12))
def test_mixed_width_formulas_match_brute_force(seed):
    f = mixed_width_formula(9, seed)
    net, _ = formula_state_network(f)
    assert max(len(t.wires) for t in net.nodes.values()) <= 3
    assert np.array_equal(net.contract_all().data, truth_table(f))
    count = tn.brute_force_sat(f)
    assert boolean_norm_value(f) == count
    assert tn.count_sat(f).count == count


def test_oversized_count_is_refused_before_contracting(monkeypatch):
    f = random_3sat(30, 128, 0)

    def no_tensordot(*args, **kwargs):
        raise AssertionError("contracted before the size check")

    monkeypatch.setattr(np, "tensordot", no_tensordot)
    t0 = time.perf_counter()
    with pytest.raises(tn.SizeLimitError):
        tn.count_sat(f)
    assert time.perf_counter() - t0 < 1.0


def test_count_logs_network_size_at_debug(caplog):
    caplog.set_level(logging.DEBUG, logger="tensornet")
    tn.count_sat(tn.CnfFormula(2, [(1, 2)]))
    tn.count_3_edge_colorings(THETA)
    lines = [r.getMessage() for r in caplog.records if r.name == "tensornet"]
    assert len(lines) == 2
    assert lines[0].startswith("count_sat: 5 nodes, 4 bonds, plan peak 2^")
    assert lines[1].startswith("count_3_edge_colorings: 2 nodes, 3 bonds, plan peak 2^")
    assert all("contract" in line for line in lines)


def test_brute_force_guard():
    with pytest.raises(tn.SizeLimitError):
        tn.brute_force_sat(tn.CnfFormula(30, [(1,)]))


def test_parse_graph_basic():
    g = tn.parse_graph("# comment\nnodes 3\n0 1\n1 2 # inline\n")
    assert g.num_nodes == 3
    assert g.edges == [(0, 1), (1, 2)]


@pytest.mark.parametrize(
    "text",
    [
        "0 1\n",  # missing header
        "nodes x\n",
        "nodes 2\n0 5\n",  # endpoint out of range
        "nodes 2\n0 0\n",  # self-loop
        "nodes 2\n0 1 2\n",  # malformed edge line
    ],
)
def test_parse_graph_errors(text):
    with pytest.raises(tn.ParseError):
        tn.parse_graph(text)


def test_negative_sizes_are_refused():
    with pytest.raises(tn.ParseError) as info:
        tn.parse_graph("# header next\nnodes -3\n")
    assert info.value.line == 2
    with pytest.raises(ValueError, match="negative"):
        tn.CnfFormula(-2, [])
    with pytest.raises(ValueError, match="negative"):
        tn.Graph(-2, [])


def test_coloring_requires_3_regular():
    with pytest.raises(tn.ShapeError):
        tn.count_3_edge_colorings(tn.Graph(2, [(0, 1)]))


def test_theta_graph_count():
    result = tn.count_3_edge_colorings(THETA)
    assert result.count == 6
    assert result.count == tn.brute_force_colorings(THETA)


def test_planar_suite_matches_brute_force():
    cube = tn.Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                        (4, 5), (5, 6), (6, 7), (7, 4),
                        (0, 4), (1, 5), (2, 6), (3, 7)])
    for g in (K4, PRISM, cube):
        assert tn.count_3_edge_colorings(g).count == tn.brute_force_colorings(g)


def test_k33_contraction_vanishes_but_colorings_exist():
    assert tn.count_3_edge_colorings(K33).count == 0
    assert tn.brute_force_colorings(K33) == 12


def test_coloring_brute_force_guard():
    g = tn.Graph(14, [(i, (i + 1) % 14) for i in range(14)]
                 + [(i, (i + 7) % 14) for i in range(7)])
    big = tn.Graph(16, [(i, (i + 1) % 16) for i in range(16)]
                   + [(i, (i + 8) % 16) for i in range(8)])
    assert len(big.edges) == 24
    with pytest.raises(tn.SizeLimitError):
        tn.brute_force_colorings(big)
    assert len(g.edges) == 21
    with pytest.raises(tn.SizeLimitError):
        tn.brute_force_colorings(g)
