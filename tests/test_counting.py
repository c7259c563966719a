"""#SAT and 3-edge-coloring counts against brute-force oracles."""

import gc
import itertools
import logging
import math
import random
import re
import time
import tracemalloc

import numpy as np
import pytest

import tensornet as tn
from tensornet.counting import (
    _formula_layer,
    boolean_norm_value,
    formula_state_network,
    formula_to_network,
)

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
        ("p cnf 2 1\np cnf 2 1\n1 0\n", 2),  # duplicate header
        ("p cnf 2\n1 0\n", 1),  # header without a clause count
        ("p cnf 2 -1\n", 1),  # negative count
        ("p cnf 2 1\n0\n", 2),  # a lone terminator: an empty clause
        ("c a comment\nc and another\n", 2),  # comments only: no header
        ("\n\n", 2),  # blank lines only: no header, at the last line
        ("", 1),
        ("c x\n\np cnf 2 1\nc mid\n\n1 x 0\n", 6),  # comment and blank lines count
        ("p cnf 2 2\n1 0\n\n", 3),  # clause count mismatch, at the trailing blank line
        ("p cnf 2 1\n1 2\nc trailing comment\n\n", 4),  # missing terminator, at the last line
        ("p cnf 2 2\n1 2 0\n%\n\n", 3),  # but a "%" line ends the list: count mismatch there
    ],
)
def test_parse_dimacs_errors_carry_line_numbers(text, line):
    with pytest.raises(tn.ParseError) as err:
        tn.parse_dimacs(text)
    assert err.value.line == line


# SATLIB's uniform random 3-SAT files (uf20-91, ...) end with a "%" line and a "0" line
SATLIB_TAIL = "%\n0\n\n"


def test_parse_dimacs_stops_at_satlib_trailer():
    text = "c uf-style\np cnf 4 3\n 1 -2 3 0\n-1 2 4 0\n2 -3 -4 0\n" + SATLIB_TAIL
    f = tn.parse_dimacs(text)
    assert f.clauses == [(1, -2, 3), (-1, 2, 4), (2, -3, -4)]
    assert tn.count_sat(f).count == tn.brute_force_sat(f)
    # what follows the "%" line is never read, however malformed
    assert tn.parse_dimacs("p cnf 2 1\n1 2 0\n% end\nfoo 0\np cnf 9 9\n").clauses == [(1, 2)]


def test_parse_dimacs_trailer_before_the_promised_clauses_is_refused_at_its_line():
    with pytest.raises(tn.ParseError, match="header promises 3 clauses, found 2") as err:
        tn.parse_dimacs("p cnf 3 3\n1 2 0\n-1 3 0\n" + SATLIB_TAIL)
    assert err.value.line == 4
    with pytest.raises(tn.ParseError, match="missing its 0 terminator") as err:
        tn.parse_dimacs("p cnf 3 1\n1 2\n%\n0\n")
    assert err.value.line == 3
    with pytest.raises(tn.ParseError, match="non-integer literal '%x'"):
        tn.parse_dimacs("p cnf 3 1\n%x\n1 0\n")  # only a "%" token ends the list


def test_tautological_clauses_are_removed():
    f = tn.CnfFormula(2, [(1, -1), (1, 2)])
    assert f.clauses == [(1, 2)]
    assert f.tautologies_removed == 1


def test_wide_clauses_parse_in_linear_time():
    # the tautology check was quadratic in clause width: 0.57 s at 8000 literals
    n = 200_000
    wide = list(range(1, n + 1))
    hidden = wide[: n // 2] + [-(n // 3)] + wide[n // 2:]  # x and -x far apart
    text = f"p cnf {n} 3\n{' '.join(map(str, wide))} 0\n{' '.join(map(str, hidden))} 0\n1 -2 0\n"
    t0 = time.perf_counter()
    f = tn.parse_dimacs(text)
    assert time.perf_counter() - t0 < 1.0
    assert f.clauses == [tuple(wide), (1, -2)]
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


@pytest.mark.parametrize("num_vars", range(8, 31, 2))
def test_fused_plan_peak_is_at_most_the_truth_table(num_vars):
    # COPY spiders fuse into one index per variable, so every tensor of the
    # plan is indexed by distinct variables: never more than brute force's 2^n
    for num_clauses in (2 * num_vars, (17 * num_vars) // 4):
        for seed in range(3):
            f = random_3sat(num_vars, num_clauses, seed)
            assert formula_to_network(f).greedy_plan().peak_size <= 2**num_vars, (num_clauses, seed)


@pytest.mark.parametrize("seed, count", [(1, 9), (2, 2)])
def test_random_3sat_n20_m85_matches_brute_force(seed, count):
    f = random_3sat(20, 85, seed)
    assert tn.count_sat(f).count == tn.brute_force_sat(f) == count


@pytest.mark.parametrize("seed, count", [(1, 35), (2, 25)])
def test_random_3sat_n24_m100_counts(seed, count):
    # brute-force values; the oracle takes about 7 s per formula at 24 variables
    assert tn.count_sat(random_3sat(24, 100, seed)).count == count


@pytest.mark.parametrize("seed", [1, 2])
def test_random_3sat_n30_m128_is_counted_within_the_limit(seed):
    f = random_3sat(30, 128, seed)
    assert formula_to_network(f).greedy_plan().peak_size <= 2**26
    assert tn.count_sat(f).count == boolean_norm_value(f)


@pytest.mark.parametrize("seed", [1, 2])
def test_merges_free_their_operands_before_the_matmul(seed):
    # holding both operands next to their matmul layouts and the output
    # traced 3.5x and 4.0x the plan peak's complex128 bytes
    net = formula_to_network(random_3sat(30, 128, seed))
    peak_bytes = 16 * net.greedy_plan().peak_size
    tracemalloc.start()
    try:
        net.contract_all()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * peak_bytes, peak / peak_bytes


def reference_clause_pieces(clause):
    """The pieces of a clause as the COPY-chain builder split it, kept as an
    oracle apart from ``counting._pieces``: each piece's clause positions,
    their signs, and whether it reads and emits the flag."""
    w = len(clause)
    if w <= 3:
        groups = [range(w)]
    else:
        groups = [range(0, 2)] + [range(j, j + 1) for j in range(2, w - 2)] + [range(w - 2, w)]
    last = len(groups) - 1
    return [(tuple(js), tuple(clause[j] > 0 for j in js), g > 0, g < last) for g, js in enumerate(groups)]


def reference_clause_piece(js, positive, flag_in, flag_out):
    """One piece of ``reference_clause_pieces``: 0 only where every literal
    it reads (on wires ``i<j>``, j its clause position) and the incoming
    flag (on ``s0``, read like a positive literal) are false; it emits the
    updated flag on ``s1`` if ``flag_out``."""
    bits = list(positive) + ([True] if flag_in else [])
    data = np.ones((2,) * len(bits), dtype=complex)
    data[tuple(0 if p else 1 for p in bits)] = 0.0
    wires = [tn.WireSpec(f"i{j}", 2, tn.LOWER) for j in js] + ([tn.WireSpec("s0", 2, tn.LOWER)] if flag_in else [])
    if flag_out:
        data = np.stack([1 - data, data], axis=-1)
        wires.append(tn.WireSpec("s1", 2, tn.UPPER))
    return tn.Tensor(data, wires)


def reference_formula_layer(net, f, bra):
    """``_formula_layer`` as it was before it took fewer Python steps, kept
    as the oracle for the networks it builds: the same nodes, tensor
    objects and bonds, in the same order."""
    made = {}  # (constructor, arguments) -> tensor

    def node(add, build, *args):
        t = made.get((build, args))
        if t is None:
            t = made[build, args] = tn.dagger(build(*args)) if bra else build(*args)
        return add(t)

    occurrences = [0] * (f.num_vars + 1)
    for clause in f.clauses:
        for lit in clause:
            occurrences[abs(lit)] += 1

    open_ends = []
    feeds = {}
    for v in range(1, f.num_vars + 1):
        k = occurrences[v]
        head = min(k, 2)
        nid = node(net.add_spider, tn.catalog.copy_tensor, head + 1, 0)
        open_ends.append((nid, "o0"))
        ends = [(nid, f"o{j}") for j in range(1, head + 1)]
        for _ in range(k - 2):
            nid = node(net.add_spider, tn.catalog.copy_tensor, 2, 1)
            net.connect(ends.pop(), (nid, "i0"))
            ends += [(nid, "o0"), (nid, "o1")]
        feeds[v] = iter(ends)

    for clause in f.clauses:
        prev = None
        for js, positive, flag_in, flag_out in reference_clause_pieces(clause):
            cid = node(net.add, reference_clause_piece, js, positive, flag_in, flag_out)
            if prev is not None:
                net.connect((prev, "s1"), (cid, "s0"))
            for j in js:
                net.connect(next(feeds[abs(clause[j])]), (cid, f"i{j}"))
            prev = cid
    return open_ends


def reference_formula_network(f):
    """``formula_to_network`` on the COPY chains of ``reference_formula_layer``."""
    net = tn.TensorNetwork()
    plus = tn.Tensor([1, 1], [tn.WireSpec("b", 2, tn.LOWER)])
    for end in reference_formula_layer(net, f, bra=False):
        net.connect(end, (net.add_spider(plus), "b"))
    return net


@pytest.mark.parametrize("seed", range(6))
def test_formula_layer_builds_the_reference_network(seed):
    # one spider per variable against the reference's COPY chains: node ids
    # differ, so compare the ends, the contracted |f> and <f|, and the plans
    gen = np.random.default_rng(seed)
    opener = tn.copy_tensor(1, 1)
    for k in range(8):
        n = int(gen.integers(1, 10))
        widths = gen.integers(1, 8 if k % 2 else 4, size=int(gen.integers(0, 3 * n)))
        f = tn.CnfFormula(n, [tuple(int(v) * int(gen.choice([-1, 1])) for v in gen.choice(n, size=min(int(w), n), replace=False) + 1)
                              for w in widths])
        read = {abs(lit) for clause in f.clauses for lit in clause}
        for bra in (False, True):
            net, expect = tn.TensorNetwork(), tn.TensorNetwork()
            ends = _formula_layer(net, f, bra)
            assert len(reference_formula_layer(expect, f, bra)) == n
            # every variable's spider end, added first; only the unread ones are open
            assert ends == [(v, "o0") for v in range(n)]
            assert net.open_wires() == [end for v, end in enumerate(ends, start=1) if v not in read]
            for end in ends:  # an open wire on every variable, as the reference's chain heads
                net.connect(end, (net.add_spider(tn.dagger(opener) if bra else opener), "i0"))
            out, ref = net.contract_all(), expect.contract_all()
            assert [(w.dim, w.flavor) for w in out.wires] == [(w.dim, w.flavor) for w in ref.wires]
            assert out.data.tobytes() == ref.data.tobytes()
            assert net.greedy_plan().peak_size == expect.greedy_plan().peak_size


def merges_by_rank(net):
    """The merges of net's plan, each node named by its rank among the
    nodes that are not spiders (the clause pieces, caps aside)."""
    rank = {nid: k for k, nid in enumerate(sorted(set(net.nodes) - net._spiders))}
    return [(rank[a], rank[b]) for a, b in net.greedy_plan().merges]


def reference_networks(f):
    """The count, |f> and <f|f> networks of f on the COPY chains of
    ``reference_formula_layer``."""
    state, norm = tn.TensorNetwork(), tn.TensorNetwork()
    reference_formula_layer(state, f, bra=False)
    for ket_end, bra_end in zip(reference_formula_layer(norm, f, bra=False), reference_formula_layer(norm, f, bra=True)):
        norm.connect(ket_end, bra_end)
    return [reference_formula_network(f), state, norm]


@pytest.mark.parametrize("seed", range(4))
def test_count_state_and_norm_networks_plan_and_contract_as_the_reference_chains(seed):
    # clauses of width 1-7 with repeated literals, and unused variables: the
    # one-spider networks merge the clause pieces in the reference's order,
    # to the same peak and the same bytes
    r = random.Random(seed)
    unused = repeated = 0
    for _ in range(15):
        n = r.randint(1, 9)
        clauses = [tuple(r.choice([-1, 1]) * r.randint(1, n) for _ in range(r.randint(1, 7))) for _ in range(r.randint(0, 3 * n))]
        f = tn.CnfFormula(n, [c for c in clauses if set(c).isdisjoint(-lit for lit in c)])
        unused += len({abs(lit) for c in f.clauses for lit in c}) < n
        repeated += any(len(set(c)) < len(c) for c in f.clauses)
        norm = tn.TensorNetwork()
        for ket_end, bra_end in zip(_formula_layer(norm, f, bra=False), _formula_layer(norm, f, bra=True)):
            norm.connect(ket_end, bra_end)
        nets = [formula_to_network(f), formula_state_network(f)[0], norm]
        for net, ref in zip(nets, reference_networks(f)):
            assert merges_by_rank(net) == merges_by_rank(ref)
            assert net.greedy_plan().peak_size == ref.greedy_plan().peak_size
            out, expect = net.contract_all(), ref.contract_all()
            assert [(w.dim, w.flavor) for w in out.wires] == [(w.dim, w.flavor) for w in expect.wires]
            assert out.data.tobytes() == expect.data.tobytes()
        assert tn.count_sat(f).count == boolean_norm_value(f) == tn.brute_force_sat(f)
    assert unused >= 3 and repeated >= 3, (unused, repeated)


@pytest.mark.parametrize("num_vars, num_clauses", [(8, 16), (20, 85), (30, 128), (50, 100), (50, 213)])
def test_plan_peaks_equal_the_reference_chains_on_random_3sat(num_vars, num_clauses):
    for seed in (1, 2):
        f = random_3sat(num_vars, num_clauses, seed)
        net = formula_to_network(f)
        assert net.greedy_plan().peak_size == reference_formula_network(f).greedy_plan().peak_size
        assert len(net.nodes) == num_vars + num_clauses  # every variable is read: no cap
        assert len(net.bonds) == 3 * num_clauses


def test_network_nodes_have_low_order():
    f = random_3sat(20, 85, 0)
    net = formula_to_network(f)
    assert max(len(t.wires) for t in net.nodes.values()) <= 3


def test_equal_tensors_are_built_once_per_network():
    # 1 COPY spider, 8 sign patterns of a 3-clause; every variable is read, so no cap
    net = formula_to_network(random_3sat(20, 85, 0))
    assert len(net.nodes) == 20 + 85
    assert len({id(t) for t in net.nodes.values()}) <= 9
    # the clause pieces are the same instances in the next network
    pieces = {id(t) for t in net.nodes.values() if t.data.size > 2}
    again = formula_to_network(random_3sat(20, 85, 1))
    assert {id(t) for t in again.nodes.values() if t.data.size > 2} <= pieces


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
    # 2^1100 overflows the float range: the raw value is inf, refused the same
    # way, without numpy's overflow warnings (errors under tier-1)
    with pytest.raises(tn.NonIntegralError, match="2\\^53"):
        tn.count_sat(tn.CnfFormula(1100, []))


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


def capped_reference_network(f):
    """``formula_to_network`` as it was with ``<+|`` caps: the state network
    of f with a ``<+|`` spider on every open variable end."""
    net, ends = formula_state_network(f)
    plus = tn.Tensor([1, 1], [tn.WireSpec("b", 2, tn.LOWER)])
    for end in ends:
        net.connect(end, (net.add_spider(plus), "b"))
    return net


CAPLESS_CASES = ([random_3sat(n, m, seed) for n, m in [(8, 16), (20, 85), (30, 128), (50, 100), (50, 213)] for seed in (1, 2)]
                 + EDGE_FORMULAS + [mixed_width_formula(9, seed) for seed in range(6)]
                 + [tn.CnfFormula(24, [tuple(v if v % 3 else -v for v in range(1, 25))]), tn.CnfFormula(40, [tuple(range(1, 41))])])


@pytest.mark.parametrize("f", CAPLESS_CASES)
def test_count_network_plans_and_contracts_as_the_capped_reference(f):
    # one-leg spiders for read variables, caps on unused ones: the same plan,
    # and the same bytes wherever the plan is small enough to contract here
    net, expect = formula_to_network(f), capped_reference_network(f)
    plan, ref = net.greedy_plan(), expect.greedy_plan()
    assert plan.merges == ref.merges
    assert plan.peak_size == ref.peak_size
    if plan.peak_size <= 2**16:
        assert net.contract_all().data.tobytes() == expect.contract_all().data.tobytes()
    # the reference adds an opener and a cap to every variable, the count caps the unread ones
    read = {abs(lit) for clause in f.clauses for lit in clause}
    assert len(net.nodes) == len(expect.nodes) - f.num_vars - len(read)
    assert net.open_wires() == []


def test_shared_tensor_table_is_bounded_by_the_clause_widths():
    def build_all(seed):
        r = random.Random(seed)
        for width in (1, 2, 3, 4, 6):
            f = tn.CnfFormula(8, [tuple(v if r.random() < 0.5 else -v for v in r.sample(range(1, 9), width))
                                  for _ in range(200)])
            formula_to_network(f)
            boolean_norm_value(f)  # ket and bra

    build_all(0)
    size = len(tn.counting._SHARED)
    build_all(1)
    assert len(tn.counting._SHARED) == size


def test_shared_tensor_table_does_not_grow_with_clause_width():
    # every middle piece of a wide clause was its own entry, keyed by its
    # position: one 2000-wide clause added 1998 entries
    sizes = []
    for width in (10, 100, 1000):
        clause = tuple(v if v % 2 else -v for v in range(1, width + 1))
        formula_to_network(tn.CnfFormula(width, [clause]))
        boolean_norm_value(tn.CnfFormula(width, [clause[:10]]))  # a bra too
        sizes.append(len(tn.counting._SHARED))
    assert sizes[0] == sizes[1] == sizes[2]


def test_clause_piece_table_is_bounded_over_widths_1_to_1000():
    # each piece is looked up by its own signs and kind: at most 2 + 4 + 8 narrow
    # pieces and 4 + 2 + 4 chain pieces, ket and bra.  A table keyed by a
    # whole clause's signs keeps an entry for every distinct clause.
    r = random.Random(22)

    def build(widths):
        for w in widths:
            f = tn.CnfFormula(w, [tuple(v if r.random() < 0.5 else -v for v in range(1, w + 1)) for _ in range(4)])
            for bra in (False, True):
                _formula_layer(tn.TensorNetwork(), f, bra)
        formula_to_network(f)

    widths = [1, 2, 3, 4, 5, 6, 7, 10, 30, 100, 300, 1000]
    build(widths)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build(widths * 3)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tn.counting._SHARED) <= 2 * (2 + 4 + 8 + 4 + 2 + 4)
    assert grown < 64 * 1024, grown  # nothing kept per clause


@pytest.mark.parametrize("num_vars", [1024, 1025, 1100])
def test_unsatisfiable_formula_with_many_unused_variables_counts_0(num_vars):
    # the unused variables' factor 2^(n-1) overflows to inf past n = 1024: a
    # product of 0 with it read NaN, refused as past the float range
    f = tn.CnfFormula(num_vars, [(1,), (-1,)])
    assert tn.count_sat(f).count == 0
    assert boolean_norm_value(f) == 0
    assert formula_to_network(f).contract_all().data.tobytes() == np.array(0, dtype=complex).tobytes()


def test_non_finite_count_has_its_own_message():
    # read "contraction value (nan+nanj) is not below 2^53"
    with pytest.raises(tn.NonIntegralError, match="^the count overflows the float range"):
        tn.count_sat(tn.CnfFormula(1100, []))


def test_oversized_count_is_refused_before_contracting(monkeypatch):
    f = random_3sat(80, 340, 0)
    assert formula_to_network(f).greedy_plan().peak_size > 2**26

    def no_tensordot(*args, **kwargs):
        raise AssertionError("contracted before the size check")

    monkeypatch.setattr(np, "tensordot", no_tensordot)
    monkeypatch.setattr(np, "dot", no_tensordot)
    monkeypatch.setattr(np, "matmul", no_tensordot)  # merges over a shared variable
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
    assert lines[0].startswith("count_sat: 3 nodes, 2 bonds, plan peak 2^")
    assert lines[1].startswith("count_3_edge_colorings: 2 nodes, 3 bonds, plan peak 2^")
    assert all(re.search(r", plan \d+\.\d{6} s, contract \d+\.\d{6} s$", line) for line in lines)


def test_brute_force_guard():
    with pytest.raises(tn.SizeLimitError):
        tn.brute_force_sat(tn.CnfFormula(30, [(1,)]))


def test_parse_graph_basic():
    g = tn.parse_graph("# comment\nnodes 3\n0 1\n1 2 # inline\n")
    assert g.num_nodes == 3
    assert g.edges == [(0, 1), (1, 2)]


GRAPH_ERRORS = {  # text: (line, message)
    "0 1\n": (1, "expected header 'nodes <n>', got '0 1'"),  # missing header
    "nodes x\n": (1, "non-integer node count 'x'"),
    "nodes 2\n0 5\n": (2, r"edge \(0, 5\) out of range for 2 nodes"),
    "nodes 2\n0 0\n": (2, "self-loop at node 0"),
    "nodes 2\n0 1 2\n": (2, "expected edge 'u v', got '0 1 2'"),  # malformed edge line
    "nodes 2\n0 x\n": (2, "non-integer endpoint"),
    "# a comment only\n": (1, "missing 'nodes <n>' header"),
    # comment-only and blank lines count; a header missing from the whole file is at line 1
    "\n# one\n\n  # two\n": (1, "missing 'nodes <n>' header"),
    "# c\n\nnodes 3 # three\n# c\n\n0 x # bad\n1 2\n": (6, "non-integer endpoint"),
    "nodes 2\n0 1\n\n0 2\n\n": (4, r"edge \(0, 2\) out of range"),  # and a trailing blank line
    "\n  # c\nnodes -1 # c\n\n": (3, "negative node count in header"),
    "nodes 3\n0 1\n# 0 0 commented out\n1 1 # not this one\n": (4, "self-loop at node 1"),
}


@pytest.mark.parametrize("text", GRAPH_ERRORS)
def test_parse_graph_errors(text):
    line, match = GRAPH_ERRORS[text]
    with pytest.raises(tn.ParseError, match=match) as err:
        tn.parse_graph(text)
    assert err.value.line == line


def test_negative_sizes_are_refused():
    with pytest.raises(tn.ParseError) as info:
        tn.parse_graph("# header next\nnodes -3\n")
    assert info.value.line == 2
    with pytest.raises(ValueError, match="negative"):
        tn.CnfFormula(-2, [])
    with pytest.raises(ValueError, match="negative"):
        tn.Graph(-2, [])


@pytest.mark.parametrize("build, match", [
    (lambda: tn.CnfFormula(2, [(1,), ()]), "empty clause"),
    (lambda: tn.CnfFormula(2, [(1, 3)]), "literal 3 out of range"),
    (lambda: tn.CnfFormula(2, [(0,)]), "literal 0 out of range"),
    (lambda: tn.Graph(2, [(0, 2)]), r"edge \(0, 2\) out of range"),
    (lambda: tn.Graph(2, [(1, 1)]), "self-loop at node 1"),
])
def test_formulas_and_graphs_built_directly_are_checked(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_a_value_that_is_not_an_integer_is_no_count():
    net = tn.TensorNetwork()
    net.add(tn.scalar(2.5))
    with pytest.raises(tn.NonIntegralError, match="not close to an integer"):
        tn.counting._count(net, "half")


def test_coloring_requires_3_regular():
    with pytest.raises(tn.ShapeError):
        tn.count_3_edge_colorings(tn.Graph(2, [(0, 1)]))
    # node_orders must list each node's own edges, each once
    with pytest.raises(tn.ShapeError, match=r"lists edge 5 \(2, 3\) at node 1"):
        tn.count_3_edge_colorings(K4, [[0, 1, 2], [0, 3, 5], [1, 3, 4], [2, 4, 5]])
    with pytest.raises(tn.WireError):
        tn.count_3_edge_colorings(K4, [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 4]])
    with pytest.raises(ValueError):
        tn.count_3_edge_colorings(K4, [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4]])
    # one order for two nodes was a bare IndexError
    with pytest.raises(tn.ShapeError, match="node_orders has 1 entries for 2 nodes"):
        tn.count_3_edge_colorings(tn.Graph(2, [(0, 1)] * 3), [[0, 1, 2]])


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


def test_default_labelled_prisms_count_their_closed_form():
    # past brute force (it stops at the 6-prism): the k-prism has 2^k + 8
    # 3-edge-colourings for even k and 2^k - 2 for odd k
    for k in [*range(3, 31), 50]:
        prism = tn.Graph(2 * k, [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
                         + [(i, k + i) for i in range(k)])
        assert tn.count_3_edge_colorings(prism).count == 2**k + (8 if k % 2 == 0 else -2), k


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
