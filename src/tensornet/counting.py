"""Counting by full tensor contraction: satisfying assignments of CNF
formulas, and proper 3-edge-colorings of 3-regular graphs, each with a
brute-force oracle.

A CNF formula becomes one clause tensor per clause (1 except 0 at the
clause's falsifying assignment; a chain of order-3 pieces for clauses wider
than 3) joined to a chain of order-3 COPY tensors per variable; a graph
becomes one order-3 epsilon per node.  Counts are logged at DEBUG level on
the ``tensornet`` logger with the network size, the plan peak and the
contraction time.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import catalog
from .errors import NonIntegralError, ParseError, ShapeError, SizeLimitError
from .network import TensorNetwork
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
        removed = 0
        for clause in self.clauses:
            clause = tuple(clause)
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range for {self.num_vars} variables")
            if any(-lit in clause for lit in clause):
                removed += 1
            else:
                kept.append(clause)
        self.clauses = kept
        self.tautologies_removed += removed


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF; clauses are 0-terminated and may span lines."""
    num_vars = num_clauses = None
    header_seen = False
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    last_line = 0
    for no, line in enumerate(text.splitlines(), start=1):
        last_line = no
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            toks = line.split()
            if header_seen:
                raise ParseError(no, "duplicate 'p' header")
            if len(toks) != 4 or toks[1] != "cnf":
                raise ParseError(no, f"bad header {line!r}, expected 'p cnf <vars> <clauses>'")
            try:
                num_vars, num_clauses = int(toks[2]), int(toks[3])
            except ValueError:
                raise ParseError(no, f"non-integer counts in header {line!r}")
            if num_vars < 0 or num_clauses < 0:
                raise ParseError(no, "negative counts in header")
            header_seen = True
            continue
        if not header_seen:
            raise ParseError(no, "clause before 'p cnf' header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(no, f"non-integer literal {tok!r}")
            if lit == 0:
                if not current:
                    raise ParseError(no, "empty clause")
                clauses.append(tuple(current))
                current = []
            else:
                if abs(lit) > num_vars:
                    raise ParseError(no, f"literal {lit} out of range (1..{num_vars})")
                current.append(lit)
    if not header_seen:
        raise ParseError(last_line or 1, "missing 'p cnf' header")
    if current:
        raise ParseError(last_line, "last clause is missing its 0 terminator")
    if len(clauses) != num_clauses:
        raise ParseError(last_line, f"header promises {num_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, clauses)


def _or_table(positive: list[bool]) -> np.ndarray:
    """0/1 table over len(positive) bits, 0 only where every bit is false:
    0 for a positive literal, 1 for a negated one."""
    data = np.ones((2,) * len(positive), dtype=complex)
    data[tuple(0 if p else 1 for p in positive)] = 0.0
    return data


def _clause_pieces(clause: tuple[int, ...]) -> list[tuple[range, Tensor]]:
    """Tensors of order <= 3 whose contraction is the clause tensor (1 on
    every assignment except the single falsifying one, where it is 0), each
    with the clause positions it reads on its LOWER wires ``i<j>``.

    A clause of width w <= 3 is one such tensor.  A wider clause is a chain
    of w - 2 pieces joined by a dimension-2 flag, 1 once some earlier
    literal is true: the first piece reads literals 0 and 1 and emits the
    flag on ``s1``; each middle piece reads the flag on ``s0`` and one
    literal and emits the updated flag; the last piece reads the flag and
    the final two literals and is 0 only when all three are false.
    """
    w = len(clause)
    if w <= 3:
        groups = [range(w)]
    else:
        groups = [range(0, 2)] + [range(j, j + 1) for j in range(2, w - 2)] + [range(w - 2, w)]
    pieces = []
    for g, js in enumerate(groups):
        flag_in, flag_out = g > 0, g < len(groups) - 1
        # the incoming flag reads like a positive literal
        data = _or_table([clause[j] > 0 for j in js] + ([True] if flag_in else []))
        wires = [WireSpec(f"i{j}", 2, LOWER) for j in js] + ([WireSpec("s0", 2, LOWER)] if flag_in else [])
        if flag_out:
            data = np.stack([1 - data, data], axis=-1)
            wires.append(WireSpec("s1", 2, UPPER))
        pieces.append((js, Tensor(data, wires)))
    return pieces


def _formula_layer(net: TensorNetwork, f: CnfFormula, bra: bool) -> list[tuple[int, str]]:
    """Add the clause-tensor network of f to ``net``.

    Every clause is one clause tensor, or for clauses wider than 3 a chain
    of order-3 pieces (see ``_clause_pieces``).  A variable with k >= 2
    occurrences is a chain of order-3 COPY tensors (the spider-fusion
    identity read backwards), so no node has more than 3 wires:
    ``copy_tensor(3, 0)`` first, then k - 2 links of ``copy_tensor(2, 1)``.
    A variable with k <= 1 occurrences is a single ``copy_tensor(k + 1, 0)``.
    The chain carries the open state wire plus one feed per occurrence,
    bonded to the clause wires in clause order.

    Returns one open variable end per variable, in variable order (the
    state wires of |f>).  With ``bra=True`` every tensor is replaced by its
    dagger, producing <f|; bonds join wires by label, so the reversed wire
    order does not matter.
    """

    def node(t: Tensor) -> int:
        return net.add(dagger(t) if bra else t)

    occurrences = [0] * (f.num_vars + 1)
    for clause in f.clauses:
        for lit in clause:
            occurrences[abs(lit)] += 1

    open_ends = []
    feeds = {}
    for v in range(1, f.num_vars + 1):
        k = occurrences[v]
        head = min(k, 2)
        nid = node(catalog.copy_tensor(n_out=head + 1, n_in=0))
        open_ends.append((nid, "o0"))
        ends = [(nid, f"o{j}") for j in range(1, head + 1)]
        for _ in range(k - 2):
            nid = node(catalog.copy_tensor(n_out=2, n_in=1))
            net.connect(ends.pop(), (nid, "i0"))
            ends += [(nid, "o0"), (nid, "o1")]
        feeds[v] = iter(ends)

    for clause in f.clauses:
        prev = None
        for js, t in _clause_pieces(clause):
            cid = node(t)
            if prev is not None:
                net.connect((prev, "s1"), (cid, "s0"))
            for j in js:
                net.connect(next(feeds[abs(clause[j])]), (cid, f"i{j}"))
            prev = cid
    return open_ends


def formula_state_network(f: CnfFormula) -> tuple[TensorNetwork, list[tuple[int, str]]]:
    """Network for the unnormalized Boolean state |f> = sum_x f(x)|x>."""
    net = TensorNetwork()
    ends = _formula_layer(net, f, bra=False)
    return net, ends


def formula_to_network(f: CnfFormula) -> TensorNetwork:
    """Fully closed network whose contraction is sum_x f(x).

    Every variable wire is capped with the unnormalized <+| = <0| + <1|,
    which sums over all assignments.
    """
    net, ends = formula_state_network(f)
    for end in ends:
        plus = net.add(Tensor([1, 1], [WireSpec("b", 2, LOWER)]))
        net.connect(end, (plus, "b"))
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
    """Plan and contract a closed network; log its size, plan peak and
    contraction time at DEBUG level."""
    plan = net.greedy_plan()
    start = time.perf_counter()
    value = net.contract_all(plan).item()
    if log.isEnabledFor(logging.DEBUG):
        log.debug("%s: %d nodes, %d bonds, plan peak 2^%.1f elements, contract %.6f s",
                  what, len(net.nodes), len(net.bonds), math.log2(plan.peak_size), time.perf_counter() - start)
    return value


def _count(net: TensorNetwork, what: str) -> CountResult:
    raw = _contract(net, what)
    if abs(raw) >= EXACT_LIMIT:
        raise NonIntegralError(f"contraction value {raw} is at or above 2^53, where complex128 counts are not exact")
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
    num_nodes = None
    edges: list[tuple[int, int]] = []
    header_line = 0
    for no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if num_nodes is None:
            if toks[0] != "nodes" or len(toks) != 2:
                raise ParseError(no, f"expected header 'nodes <n>', got {line!r}")
            try:
                num_nodes = int(toks[1])
            except ValueError:
                raise ParseError(no, f"non-integer node count {toks[1]!r}")
            if num_nodes < 0:
                raise ParseError(no, "negative node count in header")
            header_line = no
            continue
        if len(toks) != 2:
            raise ParseError(no, f"expected edge 'u v', got {line!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise ParseError(no, f"non-integer endpoint in {line!r}")
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ParseError(no, f"edge ({u}, {v}) out of range for {num_nodes} nodes")
        if u == v:
            raise ParseError(no, f"self-loop at node {u}")
        edges.append((u, v))
    if num_nodes is None:
        raise ParseError(header_line or 1, "missing 'nodes <n>' header")
    return Graph(num_nodes, edges)


def _incidence_orders(g: Graph) -> list[list[int]]:
    """Edge indices at each node, sorted by (neighbor id, edge index)."""
    incid: list[list[tuple[int, int]]] = [[] for _ in range(g.num_nodes)]
    for idx, (u, v) in enumerate(g.edges):
        incid[u].append((v, idx))
        incid[v].append((u, idx))
    return [[idx for (_, idx) in sorted(lst)] for lst in incid]


def coloring_network(g: Graph, node_orders: list[list[int]] | None = None) -> TensorNetwork:
    """One order-3 epsilon per node, one wire per edge.

    ``node_orders`` overrides the wire attachment order per node (a list
    of that node's incident edge indices); the default is ascending
    neighbor id.  The sign of individual terms, and hence the planar
    guarantee, depends on this order.
    """
    deg = g.degrees()
    if any(d != 3 for d in deg):
        raise ShapeError(f"graph is not 3-regular: degrees {deg}")
    orders = node_orders if node_orders is not None else _incidence_orders(g)
    net = TensorNetwork()
    slot: dict[tuple[int, int], tuple[int, str]] = {}
    for v in range(g.num_nodes):
        eps = catalog.epsilon(3)
        raised = []
        for pos, eidx in enumerate(orders[v]):
            u, w = g.edges[eidx]
            if v == max(u, w):  # one end of each edge carries the raised wire
                raised.append(f"i{pos}")
        t = eps
        for lab in raised:
            t = raise_wire(t, lab)
        nid = net.add(t)
        for pos, eidx in enumerate(orders[v]):
            slot[(eidx, v)] = (nid, f"i{pos}")
    for eidx, (u, v) in enumerate(g.edges):
        net.connect(slot[(eidx, u)], slot[(eidx, v)])
    return net


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
    incid: list[list[int]] = [[] for _ in range(g.num_nodes)]
    for idx, (u, v) in enumerate(g.edges):
        incid[u].append(idx)
        incid[v].append(idx)
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
