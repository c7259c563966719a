"""Counting by full tensor contraction: satisfying assignments of CNF
formulas, and proper 3-edge-colorings of 3-regular graphs, each with a
brute-force oracle.

A CNF formula becomes one clause tensor per clause (1 except 0 at the
clause's falsifying assignment; a chain of order-3 pieces for clauses wider
than 3) joined to one one-wire COPY tensor per variable, whose wire carries
a bond to every clause wire that reads the variable; a graph becomes one
order-3 epsilon per node.  The COPY tensors are spiders
(``TensorNetwork.add_spider``): the engine keeps each variable as one index
shared by the clause tensors that read it, so a count plans and contracts
the clause tensors only and every intermediate is indexed by distinct
variables.  Every CNF network has this shape and differs only in what is
bonded to the spiders after the clauses: a spider with one leg per reader
already sums over the variable, so a count caps only the unused
variables, with <+| (a scalar factor 2); |f> bonds a two-wire COPY spider
to every variable for its open wire; <f|f> bonds each variable's ket
spider to its bra spider.  The clause pieces and the cap are built once
per process, each by a cached function (``_piece``, keyed by a piece's
signs and kind, and ``_cap``), and the COPY tensors once per network.
Counts are logged at DEBUG level on the ``tensornet`` logger with the
network size (every node and bond, spiders included), the plan peak, the
planning time and the contraction time.
"""

from __future__ import annotations

import cmath
import collections
import functools
import itertools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import catalog
from .errors import NonIntegralError, ParseError, ShapeError, SizeLimitError
from .fileio import _lines, _numbers
from .network import TensorNetwork, from_terms
from .tensor import LOWER, UPPER, Tensor, WireSpec, dagger, raise_wire

INTEGER_TOL = 1e-6
EXACT_LIMIT = 2**53  # complex128 holds every integer below this exactly

log = logging.getLogger("tensornet")

SAT_GUARD_VARS = 24
COLOR_GUARD_EDGES = 20


@dataclass
class CountResult:
    raw: complex
    count: int
    residual: float

    @property
    def integral(self) -> bool:
        return self.residual < INTEGER_TOL * max(1.0, abs(self.raw))

    @classmethod
    def from_raw(cls, raw: complex) -> "CountResult":
        count = max(int(round(raw.real)), 0)
        return cls(raw, count, abs(raw - count))


# -- CNF formulas ------------------------------------------------------


@dataclass
class CnfFormula:
    """Clauses are tuples of signed literals (1-based, negative = negated).

    Tautological clauses (containing both x and -x) are dropped at
    construction; their number is recorded.
    """

    num_vars: int
    clauses: list[tuple[int, ...]]
    tautologies_removed: int = 0

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError(f"negative number of variables: {self.num_vars}")
        kept = []
        n = self.num_vars
        for clause in self.clauses:
            clause = tuple(clause)
            if not clause:
                raise ValueError("empty clause")
            lits = set(clause)
            tautology = False
            for lit in clause:  # one pass: the range test, and x beside -x
                if lit == 0 or abs(lit) > n:
                    raise ValueError(f"literal {lit} out of range for {n} variables")
                tautology = tautology or -lit in lits
            if not tautology:
                kept.append(clause)
        self.tautologies_removed += len(self.clauses) - len(kept)
        self.clauses = kept


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF; clauses are 0-terminated and may span lines.  A
    line whose first token is ``%`` ends the clause list, and what follows
    it is ignored (SATLIB's files end with a ``%`` line and a ``0`` line)."""
    num_vars = num_clauses = end = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for no, toks in _lines(text):
        head = toks[0]
        if head[0] == "c":
            continue
        if head[0] == "p":
            if num_vars is not None:
                raise ParseError(no, "duplicate 'p' header")
            if len(toks) != 4 or toks[1] != "cnf":
                raise ParseError(no, f"bad header {' '.join(toks)!r}, expected 'p cnf <vars> <clauses>'")
            num_vars, num_clauses = _numbers(no, toks[2:], int, "non-integer count")
            if num_vars < 0 or num_clauses < 0:
                raise ParseError(no, "negative counts in header")
            continue
        if head == "%":
            end = no
            break
        if num_vars is None:
            raise ParseError(no, "clause before 'p cnf' header")
        for lit in _numbers(no, toks, int, "non-integer literal"):
            if lit:
                if abs(lit) > num_vars:
                    raise ParseError(no, f"literal {lit} out of range (1..{num_vars})")
                current.append(lit)
            elif current:
                clauses.append(tuple(current))
                current = []
            else:
                raise ParseError(no, "empty clause")
    fault = ("missing 'p cnf' header" if num_vars is None else
             "last clause is missing its 0 terminator" if current else
             f"header promises {num_clauses} clauses, found {len(clauses)}" if len(clauses) != num_clauses else None)
    if fault:  # at the "%" line, or the last line
        raise ParseError(end or len(text.splitlines()) or 1, fault)
    return CnfFormula(num_vars, clauses)


@functools.cache
def _piece(signs: tuple[bool, ...], flag_in: bool, flag_out: bool, bra: bool) -> Tensor:
    """One clause piece: 1 except 0 where every literal it reads is false.
    It reads literals of the given signs on its LOWER wires ``i0, i1, ...``
    by position within the piece, plus the incoming flag on ``s0`` if
    ``flag_in``, and emits the updated flag on ``s1`` if ``flag_out``; with
    ``bra`` it is the dagger of that piece.

    Tensors are immutable, so the cache builds each piece once per process
    and every network shares it.  A piece's wires are labelled by position
    within the piece, so the cache holds one entry per sign pattern of each
    piece kind, however wide the clauses or many the formulas."""
    read = signs + (True,) * flag_in  # the incoming flag reads like a positive literal
    data = np.ones((2,) * len(read), dtype=complex)
    data[tuple(0 if p else 1 for p in read)] = 0.0
    wires = [WireSpec(f"i{j}", 2, LOWER) for j in range(len(signs))] + [WireSpec("s0", 2, LOWER)] * flag_in
    if flag_out:
        data = np.stack([1 - data, data], axis=-1)
        wires.append(WireSpec("s1", 2, UPPER))
    t = Tensor(data, wires)
    return dagger(t) if bra else t


@functools.cache
def _cap() -> Tensor:
    """<+|, the cap of an unused variable, built once per process."""
    return dagger(catalog.plus_ket())


def _pieces(clause: tuple[int, ...], bra: bool) -> list[tuple[Tensor, tuple[int, ...]]]:
    """Pieces of order <= 3 whose contraction is the clause tensor (1 on
    every assignment except the single falsifying one, where it is 0), each
    as its tensor from the cached ``_piece`` and the literals it reads on
    its wires ``i0, i1, ...``, in the order the pieces chain.

    A clause of width w <= 3 is one piece.  A wider clause is a chain of
    w - 2 pieces joined by a dimension-2 flag, 1 once some earlier literal
    is true: the first piece reads literals 0 and 1 and emits the flag on
    ``s1``; each middle piece reads the flag on ``s0`` and one literal and
    emits the updated flag; the last piece reads the flag and the final two
    literals and is 0 only when all three are false.
    """
    groups = [clause] if len(clause) <= 3 else [clause[:2], *[(lit,) for lit in clause[2:-2]], clause[-2:]]
    last = len(groups) - 1
    return [(_piece(tuple([lit > 0 for lit in lits]), g > 0, g < last, bra), lits)
            for g, lits in enumerate(groups)]


def _formula_layer(net: TensorNetwork, f: CnfFormula, bra: bool) -> list[tuple[int, str]]:
    """Add the clause-tensor network of f to ``net``; return every
    variable's end, in variable order.

    Every clause is one clause tensor, or for clauses wider than 3 a chain
    of order-3 pieces (see ``_pieces``).  Every variable is one
    ``copy_tensor(1, 0)`` spider, and every clause wire that reads the
    variable is bonded to its only wire ``o0``, which is that variable's
    end.  By spider fusion a spider wire with a bond per reader is one
    spider with a leg per reader, and the engine keeps it as one index
    shared by its readers, so it plans and contracts the clause tensors
    only.  A read variable's end is closed (the spider sums over it); the
    callers bond what each network needs to the ends after the clauses, so
    the ids of the spiders and clause tensors, and hence the plans, are the
    same in every network of f.  With ``bra=True`` every tensor is replaced
    by its dagger, producing <f|; bonds join wires by label, so the
    reversed wire order does not matter.

    The COPY tensor is built once per call, the clause pieces once per
    process (the cached ``_piece``); the same instance is added at every
    node that needs it.
    """
    copy = dagger(catalog.copy_tensor(1, 0)) if bra else catalog.copy_tensor(1, 0)
    ends = [(net.add_spider(copy), "o0") for _ in range(f.num_vars)]
    for clause in f.clauses:
        prev = None
        for t, lits in _pieces(clause, bra):
            cid = net.add(t)
            if prev is not None:
                net.connect((prev, "s1"), (cid, "s0"))
            for j, lit in enumerate(lits):
                net.connect(ends[abs(lit) - 1], (cid, f"i{j}"))
            prev = cid
    return ends


def formula_state_network(f: CnfFormula) -> tuple[TensorNetwork, list[tuple[int, str]]]:
    """Network for the unnormalized Boolean state |f> = sum_x f(x)|x>: one
    ``copy_tensor(1, 1)`` spider on each variable's end, whose ``o0`` is
    the variable's open state wire."""
    net = TensorNetwork()
    opener = catalog.copy_tensor(1, 1)
    wires = []
    for end in _formula_layer(net, f, bra=False):
        nid = net.add_spider(opener)
        net.connect(end, (nid, "i0"))
        wires.append((nid, "o0"))
    return net, wires


def formula_to_network(f: CnfFormula) -> TensorNetwork:
    """Fully closed network whose contraction is sum_x f(x).

    A read variable's spider is the sum over the variable, the
    <+| = <0| + <1| cap of |f>'s wire, by spider fusion.  An unused
    variable's spider gets a <+| cap, a factor 2.
    """
    net = TensorNetwork()
    read = set(map(abs, itertools.chain.from_iterable(f.clauses)))
    for v, end in enumerate(_formula_layer(net, f, bra=False), start=1):
        if v not in read:
            net.connect(end, (net.add_spider(_cap()), "o0"))
    return net


def boolean_norm_value(f: CnfFormula) -> complex:
    """<f|f> evaluated as a genuine two-layer network."""
    net = TensorNetwork()
    ket_ends = _formula_layer(net, f, bra=False)
    bra_ends = _formula_layer(net, f, bra=True)
    for ke, be in zip(ket_ends, bra_ends):
        net.connect(ke, be)
    return _contract(net, "boolean_norm_value")


def _contract(net: TensorNetwork, what: str) -> complex:
    """Plan and contract a closed network; log its size, plan peak,
    planning time and contraction time at DEBUG level.  ``contract_all``
    runs the plan made here: the network keeps it until it changes.

    A value past the float range comes out inf or NaN without numpy's
    overflow warnings; the caller judges it."""
    start = time.perf_counter()
    plan = net.greedy_plan()
    planned = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        value = net.contract_all().item()
    if log.isEnabledFor(logging.DEBUG):
        log.debug("%s: %d nodes, %d bonds, plan peak 2^%.1f elements, plan %.6f s, contract %.6f s",
                  what, len(net.nodes), len(net.bonds), math.log2(plan.peak_size), planned - start,
                  time.perf_counter() - planned)
    return value


def _count(net: TensorNetwork, what: str) -> CountResult:
    raw = _contract(net, what)
    if not cmath.isfinite(raw):
        raise NonIntegralError(f"the count overflows the float range: contraction value {raw}, "
                               "where complex128 counts are exact only below 2^53")
    if not abs(raw) < EXACT_LIMIT:
        raise NonIntegralError(f"contraction value {raw} is not below 2^53, where complex128 counts are exact")
    result = CountResult.from_raw(raw)
    if not result.integral:
        raise NonIntegralError(f"contraction value {raw} is not close to an integer")
    return result


def count_sat(f: CnfFormula) -> CountResult:
    """Number of satisfying assignments by contracting the closed network.

    The contraction runs in complex128, so counts are exact only below
    2^53; a value at or above that raises ``NonIntegralError``.
    """
    return _count(formula_to_network(f), "count_sat")


def brute_force_sat(f: CnfFormula) -> int:
    """Exhaustive truth-table count (oracle)."""
    n = f.num_vars
    if n > SAT_GUARD_VARS:
        raise SizeLimitError(f"brute force limited to {SAT_GUARD_VARS} variables, got {n}")
    pos_masks = []
    neg_masks = []
    for clause in f.clauses:
        lits = set(clause)  # a repeated literal must not add its bit twice
        pos_masks.append(sum(1 << (l - 1) for l in lits if l > 0))
        neg_masks.append(sum(1 << (-l - 1) for l in lits if l < 0))
    total = 0
    chunk = 1 << 20
    for start in range(0, 1 << n, chunk):
        xs = np.arange(start, min(start + chunk, 1 << n), dtype=np.int64)
        ok = np.ones(xs.shape, dtype=bool)
        for pm, nm in zip(pos_masks, neg_masks):
            ok &= ((xs & pm) != 0) | ((~xs & nm) != 0)
        total += int(np.count_nonzero(ok))
    return total


# -- graph edge colorings ----------------------------------------------


@dataclass
class Graph:
    """Undirected multigraph as an edge list; self-loops are rejected."""

    num_nodes: int
    edges: list[tuple[int, int]]

    def __post_init__(self):
        if self.num_nodes < 0:
            raise ValueError(f"negative number of nodes: {self.num_nodes}")
        for u, v in self.edges:
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise ValueError(f"edge ({u}, {v}) out of range for {self.num_nodes} nodes")
            if u == v:
                raise ValueError(f"self-loop at node {u} is not allowed")

    def degrees(self) -> list[int]:
        deg = [0] * self.num_nodes
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def parse_graph(text: str) -> Graph:
    """Edge-list format: header ``nodes <n>``, then one ``u v`` per line
    (0-based); ``#`` starts a comment."""
    lines = _lines(text, "#")
    no, toks = next(lines, (1, None))
    if toks is None:
        raise ParseError(no, "missing 'nodes <n>' header")
    if toks[0] != "nodes" or len(toks) != 2:
        raise ParseError(no, f"expected header 'nodes <n>', got {' '.join(toks)!r}")
    (num_nodes,) = _numbers(no, toks[1:], int, "non-integer node count")
    if num_nodes < 0:
        raise ParseError(no, "negative node count in header")
    edges: list[tuple[int, int]] = []
    for no, toks in lines:
        if len(toks) != 2:
            raise ParseError(no, f"expected edge 'u v', got {' '.join(toks)!r}")
        u, v = _numbers(no, toks, int, "non-integer endpoint")
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ParseError(no, f"edge ({u}, {v}) out of range for {num_nodes} nodes")
        if u == v:
            raise ParseError(no, f"self-loop at node {u}")
        edges.append((u, v))
    return Graph(num_nodes, edges)


def _incidence_orders(g: Graph) -> list[list[int]]:
    """Edge indices at each node, sorted by (neighbor id, edge index)."""
    incid: list[list[tuple[int, int]]] = [[] for _ in range(g.num_nodes)]
    for idx, (u, v) in enumerate(g.edges):
        incid[u].append((v, idx))
        incid[v].append((u, idx))
    return [[idx for (_, idx) in sorted(lst)] for lst in incid]


def _require_3_regular(g: Graph) -> None:
    """Raise ``ShapeError`` naming the first node whose degree is not 3."""
    deg = collections.Counter(v for edge in g.edges for v in edge)  # no list over every declared node
    for v in range(g.num_nodes):
        if deg[v] != 3:
            raise ShapeError(f"graph is not 3-regular: node {v} has degree {deg[v]}")


def coloring_network(g: Graph, node_orders: list[list[int]] | None = None) -> TensorNetwork:
    """One order-3 epsilon per node, one wire per edge.

    ``node_orders`` overrides the wire attachment order per node (a list
    of that node's incident edge indices); the default is ascending
    neighbor id.  The sign of individual terms, and hence the planar
    guarantee, depends on this order.
    """
    _require_3_regular(g)
    if node_orders is not None and len(node_orders) != g.num_nodes:
        raise ShapeError(f"node_orders has {len(node_orders)} entries for {g.num_nodes} nodes")
    orders = node_orders if node_orders is not None else _incidence_orders(g)
    eps = catalog.epsilon(3)
    terms = []
    for v in range(g.num_nodes):
        t = eps
        for pos, eidx in enumerate(orders[v]):
            if v not in g.edges[eidx]:
                raise ShapeError(f"node_orders lists edge {eidx} {g.edges[eidx]} at node {v}")
            if v == max(g.edges[eidx]):  # one end of each edge carries the raised wire
                t = raise_wire(t, f"i{pos}")
        terms.append((t, orders[v]))
    return from_terms(terms)


def count_3_edge_colorings(g: Graph, node_orders: list[list[int]] | None = None) -> CountResult:
    """Penrose contraction count.

    Correctness as a *count* is only guaranteed for planar graphs with a
    planar attachment order; for other inputs the raw value is a signed
    sum that can undercount (planarity is not verified here).  As for
    :func:`count_sat`, a value at or above 2^53 raises ``NonIntegralError``.
    """
    return _count(coloring_network(g, node_orders), "count_3_edge_colorings")


def brute_force_colorings(g: Graph) -> int:
    """Count proper colorings by enumerating all 3^|E| assignments."""
    m = len(g.edges)
    if m > COLOR_GUARD_EDGES:
        raise SizeLimitError(f"brute force limited to {COLOR_GUARD_EDGES} edges, got {m}")
    _require_3_regular(g)  # before any per-node list
    incid = _incidence_orders(g)  # the all-distinct test below is symmetric: any order will do
    total = 0
    chunk = 3**13
    for start in range(0, 3**m, chunk):
        xs = np.arange(start, min(start + chunk, 3**m), dtype=np.int64)
        colors = [(xs // 3**e) % 3 for e in range(m)]
        ok = np.ones(xs.shape, dtype=bool)
        for lst in incid:
            a, b, c = (colors[i] for i in lst)
            ok &= (a != b) & (b != c) & (a != c)
        total += int(np.count_nonzero(ok))
    return total
