"""Tensor network graphs, contraction planning by index elimination, and the
entanglement invariants that are naturally expressed as networks.

A network holds tensor nodes joined by two-ended bonds, plus spiders: COPY
(delta) tensors added with ``TensorNetwork.add_spider``, whose wires may each
carry any number of bonds.  By the spider-fusion identity a connected group
of spiders is one index shared by every wire bonded to it, so planning and
contraction see only the other nodes, each as a list of index names, and a
count over clause tensors joined by COPY tensors contracts its clause
tensors only.

Each version of a network has one record (``_Fused``): ``_fuse`` builds
it, the planner merges it in place, and ``contract_all`` runs it.  Each
node the planner follows keeps its index names in the order its array
holds them, and each merge is laid out once, while planning (transpose
orders, matmul shapes and the result's dims); the run loads the nodes and
replays those layouts.

A network built by hand is written as its index formula: ``from_terms``
takes (tensor, keys) terms, one node each, and bonds the two wires that
carry one key, as in einsum subscripts.  The invariants here, the AKLT
chain and the Penrose colouring network are built this way.

This is the package's one contraction engine.  ``contract``,
``tensor_product`` and ``trace`` are networks of one or two nodes run by
``contract_all``, so they share its checks, the package's one element
budget (``errors.MAX_ELEMENTS``) and its one rule for open-wire labels:
a label already taken by an earlier open wire gets the first free suffix
``_1``, ``_2``, ...
"""

from __future__ import annotations

import collections
import functools
import heapq
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import catalog, errors
from .errors import ShapeError, WireError
from .tensor import UPPER, Tensor, WireSpec, _adopt, conjugate, dagger, ket, raise_wire

End = tuple[int, str]  # (node id, wire label)


@dataclass
class ContractionPlan:
    """Ordered pairwise node merges; the merged node keeps the smaller id."""

    merges: list[tuple[int, int]] = field(default_factory=list)
    peak_size: int = 0


def _is_delta(t: Tensor) -> bool:
    """Every wire of one dimension d, 1 where all indices agree, else 0."""
    data = t.data
    d = data.shape[0]
    if data.shape != (d,) * data.ndim:
        return False
    flat = data.reshape(-1)
    step = (flat.size - 1) // (d - 1) if d > 1 else 1  # flat distance from (i, ..., i) to (i+1, ..., i+1)
    return flat[::step].tolist() == [1] * d and np.count_nonzero(flat) == d


def _loading(ns: list, keep, dims: dict) -> tuple[list, dict, int]:
    """How a node whose wires carry the index names ``ns`` is loaded: the
    steps ``_load`` takes, each a function of the array; the names the
    loaded array holds, each mapped to its axis; and its size.  A bond name
    that appears twice (a self-loop) is traced, a spider group held on
    several wires is reduced to its diagonal (whose axis goes last), and
    every name outside ``keep`` is summed."""
    steps = []
    if len(set(ns)) < len(ns):
        ns = list(ns)
        for loop in [n for k, n in enumerate(ns) if n in ns[k + 1:] and isinstance(n, int) and n >= 0]:
            i, j = [k for k, n in enumerate(ns) if n == loop]
            steps.append(functools.partial(np.trace, axis1=i, axis2=j))
            del ns[j], ns[i]
        while len(set(ns)) < len(ns):
            group = next(n for k, n in enumerate(ns) if n in ns[k + 1:])
            i, j = [k for k, n in enumerate(ns) if n == group][:2]
            steps.append(functools.partial(np.diagonal, axis1=i, axis2=j))
            del ns[j], ns[i]
            ns.append(group)
    axes, size, held = {}, 1, 0
    for n in ns:
        if n in keep:
            axes[n] = held
            held += 1
            size *= dims[n]
    if held < len(ns):
        steps.append(operator.methodcaller("sum", axis=tuple([k for k, n in enumerate(ns) if n not in keep])))
    return steps, axes, size


def _load(x: np.ndarray, steps: list) -> np.ndarray:
    """A node's array as contraction starts (see ``_loading``)."""
    for step in steps:
        x = step(x)
    return x


@dataclass
class _Fused:
    """One version of a network, fused and then planned: ``_fuse`` builds
    it, ``TensorNetwork._plan`` merges it in place, and ``run`` contracts
    by it.  ``layouts`` is the one record of each merge, pair included, and
    ``merge`` the one place one is recorded: it appends the merge's layout
    and raises ``peak``.

    Index names: a bond between two other nodes is its bond index, a group
    of spiders is ``-1 - (its smallest spider id)``, an open wire of another
    node is its ``(node id, label)`` end.  Every node left while merges are
    followed keeps one entry in ``axes``: its index names in the order its
    array holds them, each mapped to its axis.  A merge sums each index of
    the pair that no other remaining node holds and that is not open; every
    other index of the pair stays, once.
    """

    version: int  # the network version it was built at: its node count plus its bond count
    steps: dict[int, list]  # node -> the steps that load its array, from its wires' names (see _loading)
    axes: dict[int, dict]  # node left -> each name its array holds -> that name's axis
    sizes: dict[int, int]  # node left -> the size of its array
    holders: dict  # name -> the nodes left that hold it
    dims: dict  # name -> dimension
    kept: set  # names of open ends: never summed
    open_ends: list  # unbonded wire ends, by node id, then in wire order
    open_names: list  # name of each open end
    loose: list  # open spider groups that no node holds
    scale: float  # product of the dims of closed spider groups that no node holds
    peak: int  # the size of the largest node, loaded or merged
    layouts: list = field(default_factory=list)  # one per merge, in order, starting (a, b, keep): see merge

    def merge(self, a: int, b: int) -> int:
        """Merge a and b (the smaller id keeps the result); return its size.

        Each index the pair shares is a batch index (open, or held by
        another node) or a summed one; the others are free.  The merge is
        one ``np.matmul`` of a's array laid out (batch, free of a, summed)
        and b's laid out (batch, summed, free of b); the result holds
        (batch, free of a, free of b).  ``layouts`` gains the merge's
        (a, b, the node that keeps the result, a's axis order, a's matmul
        shape, b's axis order, b's matmul shape, the result's dims): the
        pair as given, and everything ``run`` needs to replay it.  ``peak``
        rises to the result's size if that is larger."""
        axes, holders, kept, dims = self.axes, self.holders, self.kept, self.dims
        keep, drop = (a, b) if a < b else (b, a)
        xa, xb = axes.pop(a), axes.pop(b)
        batch, free_a, free_b = [], [], []  # names
        batch_a, batch_b, summed_a, summed_b, order_a, order_b = [], [], [], [], [], []  # axes
        batch_dims, dims_a, dims_b = [], [], []
        k = 1  # the size of the summed indices
        for x, i in xa.items():
            if x not in xb:
                free_a.append(x)
                order_a.append(i)
                dims_a.append(dims[x])
                continue
            h = holders[x]
            if len(h) > 2 or x in kept:
                batch.append(x)
                batch_a.append(i)
                batch_b.append(xb[x])
                batch_dims.append(dims[x])
                h.discard(drop)
            else:
                summed_a.append(i)
                summed_b.append(xb[x])
                k *= dims[x]
                del holders[x]
        for x, j in xb.items():
            if x not in xa:
                free_b.append(x)
                order_b.append(j)
                dims_b.append(dims[x])
        for x in free_a if drop == a else free_b:
            h = holders[x]
            h.discard(drop)
            h.add(keep)
        names = batch + free_a + free_b
        axes[keep] = {x: j for j, x in enumerate(names)}
        nbatch, m, n = math.prod(batch_dims), math.prod(dims_a), math.prod(dims_b)
        del self.sizes[drop]
        self.sizes[keep] = size = nbatch * m * n
        if size > self.peak:
            self.peak = size
        self.layouts.append((a, b, keep, (*batch_a, *order_a, *summed_a), (nbatch, m, k),
                             (*batch_b, *summed_b, *order_b), (nbatch, k, n), (*batch_dims, *dims_a, *dims_b)))
        return size

    def run(self, nodes: dict[int, Tensor]) -> Tensor:
        """Contract the network's ``nodes`` by this record: load each node,
        replay the layout of every merge, then assemble what is left (see
        ``TensorNetwork.contract_all``).  When every node left is a scalar
        and no wire is open, their product is the result as it stands."""
        arrays = {nid: _load(nodes[nid].data, steps) for nid, steps in self.steps.items()}
        matmul = np.matmul
        for a, b, keep, order_a, shape_a, order_b, shape_b, dims in self.layouts:
            # rebinding drops each operand before the matmul, unless its layout is a view of it
            xa = arrays.pop(a).transpose(order_a).reshape(shape_a)
            xb = arrays.pop(b).transpose(order_b).reshape(shape_b)
            arrays[keep] = matmul(xa, xb).reshape(dims)

        # multiply the scalar pieces; outer-product the others in id order
        names = self.axes  # each node left -> its names, in axis order
        nids = sorted(arrays)
        scalars = [arrays[nid].item() for nid in nids if not names[nid]]
        value = functools.reduce(operator.mul, scalars) if scalars else 1.0
        if self.scale != 1 and value:  # 0 stays 0 past a scale that overflows to inf
            value *= self.scale
        pieces = [(arrays[nid], names[nid]) for nid in nids if names[nid]]
        pieces += [(np.ones(self.dims[g], dtype=complex), [g]) for g in self.loose]
        if not pieces:  # then no wire is open
            return _adopt(np.array(value, dtype=complex), ())
        data = functools.reduce(lambda x, y: np.tensordot(x, y, axes=0), [x for x, _ in pieces])
        if scalars or self.scale != 1:
            data = data * value
        all_names = [n for _, ns in pieces for n in ns]
        distinct = list(dict.fromkeys(self.open_names))
        data = np.transpose(data, [all_names.index(n) for n in distinct])
        open_dims = [self.dims[n] for n in self.open_names]
        if len(distinct) < len(open_dims):
            # several open wires on one spider group: write the diagonal
            full = np.zeros(open_dims, dtype=complex)
            strides = [sum(s for s, m in zip(full.strides, self.open_names) if m == n) for n in distinct]
            as_strided(full, data.shape, strides)[...] = data
            data = full
        wires, taken = [], set()
        for nid, label in self.open_ends:  # a label already taken gets the first free suffix _1, _2, ...
            w, lab, k = nodes[nid].wire(label), label, 1
            while lab in taken:
                lab, k = f"{label}_{k}", k + 1
            taken.add(lab)
            wires.append(WireSpec(lab, w.dim, w.flavor))
        return Tensor(data, wires)


class TensorNetwork:
    """Multigraph of tensor nodes joined by bonds.

    Bonds join wires of equal dimension and opposite flavor.  A wire of a
    spider takes any number of bonds, and a wire of any other node at most
    one: by spider fusion, k ends bonded to one spider wire are k ends
    bonded to k legs of one bigger spider.  Nodes may be mutated (added,
    connected) until contraction, which is a pure function of the network.
    Every ``add``, ``add_spider`` and ``connect`` starts a new version of
    the network: it adds one node or one bond, and none is ever removed,
    so the node count plus the bond count names the version.  Each version
    has one record (``_Fused``), fused and planned the first time
    ``greedy_plan``, ``contract_all`` or ``open_wires`` asks for it.
    """

    def __init__(self):
        self._nodes: dict[int, Tensor] = {}
        self._spiders: set[int] = set()
        self._bonds: list[tuple[End, End]] = []
        self._bond_of: dict[End, int] = {}  # bonded end -> index in _bonds (a spider wire: its latest)
        self._links: list[tuple[int, int]] = []  # the node ids of every bond between two spiders
        self._deltas: dict[int, Tensor] = {}  # id -> tensor checked by add_spider
        self._planned: _Fused | None = None  # the latest version's planned record: see _plan

    def add(self, t: Tensor) -> int:
        nid = len(self._nodes)  # nodes are never removed
        self._nodes[nid] = t
        return nid

    def add_spider(self, t: Tensor) -> int:
        """Add a COPY (delta) tensor as a spider: planning and contraction
        fuse each connected group of spiders into one shared index.  Raises
        ``ShapeError`` for any other tensor."""
        if self._deltas.get(id(t)) is not t:
            if not t.wires or not _is_delta(t):
                raise ShapeError(f"add_spider needs a COPY (delta) tensor, got {t!r}")
            self._deltas[id(t)] = t
        nid = self.add(t)
        self._spiders.add(nid)
        return nid

    @property
    def nodes(self) -> dict[int, Tensor]:
        return dict(self._nodes)

    @property
    def bonds(self) -> list[tuple[End, End]]:
        return list(self._bonds)

    def _wire(self, end: End) -> WireSpec:
        nid, label = end
        t = self._nodes.get(nid)
        if t is None:
            raise WireError(f"no node {nid}")
        return t.wires[t.axis(label)]

    def connect(self, end_a: End, end_b: End) -> None:
        """Bond two wire ends of equal dimension and opposite flavor.  Both
        wires are read straight from their tensors' label maps; only a bad
        end is looked up again, to say what is wrong with it."""
        try:
            na, la = end_a
            nb, lb = end_b
            ta, tb = self._nodes[na], self._nodes[nb]
            wa, wb = ta.wires[ta._axes[la]], tb.wires[tb._axes[lb]]
        except (LookupError, TypeError, ValueError):
            self._wire(end_a)  # says which end is wrong
            self._wire(end_b)
            raise
        if wa.dim != wb.dim:
            raise WireError(f"bond {end_a}-{end_b}: dims {wa.dim} != {wb.dim}")
        if wa.flavor is wb.flavor:
            raise WireError(f"bond {end_a}-{end_b}: both wires are {wa.flavor.value}")
        bond_of, bonds, spiders = self._bond_of, self._bonds, self._spiders
        spider_a, spider_b = na in spiders, nb in spiders
        if not spider_a and end_a in bond_of:
            raise WireError(f"wire already bonded: {end_a}")
        if not spider_b and end_b in bond_of:
            raise WireError(f"wire already bonded: {end_b}")
        bond_of[end_a] = bond_of[end_b] = len(bonds)
        bonds.append((end_a, end_b))
        if spider_a and spider_b:
            self._links.append((na, nb))

    def open_wires(self) -> list[End]:
        """Unbonded wire ends, by node id, then in wire order."""
        return list(self._plan().open_ends)

    # -- contraction ---------------------------------------------------

    def _fuse(self) -> _Fused:
        """A fresh record of the current version, not yet planned: the
        other nodes as index names, each connected group of spiders
        collapsed into one name.

        A wire bonded to a spider takes its group's name; an open wire on a
        spider keeps the group open; a closed group that no other node
        holds becomes a scalar factor equal to its dimension.
        """
        root = {s: s for s in self._spiders}

        def find(s: int) -> int:
            while root[s] != s:
                root[s] = s = root[root[s]]
            return s

        for na, nb in self._links:
            ra, rb = find(na), find(nb)
            root[max(ra, rb)] = min(ra, rb)

        group_of = {s: -1 - find(s) for s in root}  # spider -> its group's name
        bonds, bond_of = self._bonds, self._bond_of
        wires, holders, dims, open_ends, open_names = {}, {}, {}, [], []
        for nid, t in self._nodes.items():  # ids are added in increasing order
            if nid in group_of:
                for w in t.wires:
                    end = (nid, w.label)
                    if end not in bond_of:
                        open_ends.append(end)
                        open_names.append(group_of[nid])
                continue
            ns = wires[nid] = []
            for w in t.wires:
                end = (nid, w.label)
                k = bond_of.get(end)
                if k is None:
                    n = end
                    open_ends.append(end)
                    open_names.append(end)
                else:
                    a, b = bonds[k]
                    n = group_of.get(b[0] if a == end else a[0], k)
                ns.append(n)
                dims[n] = w.dim
                h = holders.get(n)
                if h is None:
                    holders[n] = {nid}
                else:
                    h.add(nid)
        kept = set(open_names)
        loose, scale = [], 1.0
        for s in sorted(root):
            if root[s] == s:
                group = -1 - s
                dims[group] = self._nodes[s].wires[0].dim
                if group in holders:
                    continue
                if group in kept:
                    loose.append(group)
                else:
                    scale *= dims[group]
        holders = {n: h for n, h in holders.items() if n in kept or len(h) > 1}
        steps, axes, sizes = {}, {}, {}
        for nid, ns in wires.items():
            steps[nid], axes[nid], sizes[nid] = _loading(ns, holders, dims)
        return _Fused(len(self._nodes) + len(self._bonds), steps, axes, sizes, holders, dims, kept, open_ends,
                      open_names, loose, scale, max(sizes.values(), default=1))

    def greedy_plan(self) -> ContractionPlan:
        """Deterministic plan by index elimination on the fused network.

        It repeatedly takes the live index (one that two or more nodes
        hold) whose bucket gives the smallest tensor, ties broken by the
        sorted tuple of its holders.  A bucket is all the index's holders
        merged, with every index that no remaining node holds, and that is
        not open, summed.  The holders are merged pairwise, smallest first.

        On a network without spiders every bucket is one bonded pair, so
        this is the greedy that merges the pair with the smallest result
        first, ties broken by the lowest (node id, node id) pair.

        Buckets wait in a heap of (size, holders, index); an entry whose
        bucket has changed is skipped when popped.  Only the indices of a
        bucket's result change their buckets, so eliminating an index
        pushes one entry per index d of the result.  Sizing such a bucket
        scans the indices of its nodes but the result, which holds them all,
        so an elimination costs O(d (s + log H)) for s scanned indices and
        H heap entries; planning random 3-SAT with 300 variables and 600
        clauses takes about 0.1 s on 2 vCPUs.

        The plan is made once per version of the network (see ``_plan``).
        Its record keeps the plan: ``_Fused.merge`` appends each merge's
        layout, which starts with the pair, for ``contract_all`` to replay,
        and raises the peak.  Every call returns a fresh copy of the pairs
        of the record's layouts and its peak, so changing it changes nothing
        else.
        """
        program = self._plan()
        return ContractionPlan([lay[:2] for lay in program.layouts], program.peak)

    def _plan(self) -> _Fused:
        """The current version's record, planned: made once per version by
        ``_fuse`` and merged in place by the greedy of ``greedy_plan``, so
        its ``axes`` then hold the nodes left after the merges.  Each merge
        records its layout and the peak (``_Fused.merge``); this loop only
        chooses them."""
        program = self._planned
        if program is not None and program.version == len(self._nodes) + len(self._bonds):
            return program
        program = self._fuse()
        axes, holders, sizes, dims, kept = program.axes, program.holders, program.sizes, program.dims, program.kept
        merge = program.merge
        heappush, heappop = heapq.heappush, heapq.heappop
        current = {}  # index -> the heap entry (size, sorted holders, index) of its bucket
        heap = []

        def push(xs, base=None) -> None:
            """Push the bucket of each index in xs: its size is the size of
            one of its nodes, ``base`` if given (else its first), times the
            dims of the other nodes' indices that this node lacks, over the
            dims of those summed.  Every summed index is among them: it is
            held by two nodes of the bucket, since a closed index on one
            node alone is summed when it gets there."""
            for x in xs:
                group = holders[x]
                if len(group) < 2:  # an open index left on one node
                    current.pop(x, None)
                    continue
                node = next(iter(group)) if base is None else base
                names, rest, size = axes[node], set(), sizes[node]
                for g in group:
                    if g != node:
                        rest.update(axes[g])
                for n in rest:
                    if n not in names:
                        size *= dims[n]
                    if holders[n] <= group and n not in kept:
                        size //= dims[n]
                entry = (size, tuple(sorted(group)), x)
                if current.get(x) != entry:  # else that entry is in the heap
                    current[x] = entry
                    heappush(heap, entry)

        push(holders)
        while heap and len(sizes) > 1:  # one node left: every entry is stale
            entry = heappop(heap)
            _, group, x = entry
            if current.get(x) is not entry or x not in holders:  # changed, or summed
                continue
            del current[x]
            queue = [(sizes[g], g) for g in group]  # two or more
            heapq.heapify(queue)
            while len(queue) > 1:  # merge the two smallest; the smaller id keeps the result
                a, b = heappop(queue)[1], heappop(queue)[1]
                if a > b:
                    a, b = b, a
                heappush(queue, (merge(a, b), a))
            push(axes[a], a)  # every index of the result: its bucket holds a
        self._planned = program
        return program

    def contract_all(self) -> Tensor:
        """Contract every bond; open wires survive in declared order.

        The network chooses its own order: the merges of ``greedy_plan``,
        which lays each of them out in the version's record.  The record
        then runs (``_Fused.run``).  Spiders are fused first (see
        ``_fuse``), so every other node is a list of index names, and a
        node is loaded by ``_load``.  A merge sums the names the two nodes
        share that no other remaining node holds and that are not open; it
        replays its layout: one transpose and one reshape per operand, one
        ``np.matmul``, whose batch axes (size 1 when there are none) are the
        shared names still held elsewhere, and one reshape of the result.
        Several open wires on one spider group give the diagonal.
        Disconnected pieces are combined by tensor product in node-id
        order; scalar pieces, and the dimension of each closed group that
        no node holds, multiply as Python numbers.

        Raises ``SizeLimitError`` before contracting anything when the
        plan's peak, or the result, is more than ``errors.MAX_ELEMENTS``
        elements.
        """
        plan = self.greedy_plan()
        program = self._plan()  # made by greedy_plan at this version
        need = max(plan.peak_size, math.prod([program.dims[n] for n in program.open_names]))
        if need > errors.MAX_ELEMENTS:
            raise errors.over_limit(f"contraction needs a {need}-element tensor (2^{math.log2(need):.1f})")
        return program.run(self._nodes)


# -- one or two tensors as a network -----------------------------------


def contract(a: Tensor, pairs: Iterable[tuple[str, str]], b: Tensor | None = None) -> Tensor:
    """Sum over the paired wires: the network of ``a`` (and ``b``) with one
    bond per pair, run by ``contract_all``.

    With ``b`` given, each pair joins a wire of ``a`` to a wire of ``b``;
    otherwise both ends name wires of ``a`` (self-contraction).  Surviving
    wires keep their relative order, ``a``'s before ``b``'s, and a label
    already taken gets the first free suffix ``_1``, ``_2``, ...  ``connect``
    checks each pair, and ``contract_all`` refuses a merge or result of
    more than ``errors.MAX_ELEMENTS`` elements before it allocates.
    """
    net = TensorNetwork()
    na = net.add(a)
    nb = na if b is None else net.add(b)
    used: set[End] = set()
    for la, lb in pairs:
        ends = (na, la), (nb, lb)
        if ends[0] == ends[1] or not used.isdisjoint(ends):
            raise WireError(f"wire reused in contraction pairs: ({la!r}, {lb!r})")
        used.update(ends)
        net.connect(*ends)
    return net.contract_all()


def tensor_product(a: Tensor, b: Tensor) -> Tensor:
    """Kronecker-structured product; ``a``'s wires followed by ``b``'s,
    labeled by :func:`contract`'s rule (it is ``contract`` over no pairs)."""
    return contract(a, [], b)


def trace(a: Tensor, pairs: Iterable[tuple[str, str]]) -> Tensor:
    """Partial trace over (UPPER, LOWER) wire pairs of equal dimension."""
    return contract(a, pairs)


# -- networks written as index formulas -------------------------------


def from_terms(terms) -> TensorNetwork:
    """The network of an index formula, read as einsum subscripts.

    Each term ``(tensor, keys)`` becomes one node, in order; ``keys`` names
    the index on each of its wires, in wire order.  The two wires that
    carry one key are bonded (a key twice on one node is a traced
    self-loop); a wire whose key appears nowhere else stays open and is
    relabeled to its key.  A term whose keys do not name each of its wires
    once raises ``ShapeError``, and a key on more than two wires
    ``WireError``, each naming the term's index.
    """
    terms = list(terms)
    count = collections.Counter(k for _, keys in terms for k in keys)
    net, ends = TensorNetwork(), {}
    for i, (t, keys) in enumerate(terms):
        if len(keys) != len(t.wires):
            raise ShapeError(f"term {i}: keys {keys!r} for {len(t.wires)} wires")
        pairs = list(zip(t.labels, keys))
        opened = {lab: key for lab, key in pairs if count[key] == 1}
        nid = net.add(t.relabeled(opened) if opened else t)
        for lab, key in pairs:  # the first wire with a key waits for the second
            if count[key] > 2:
                raise WireError(f"term {i}: key {key!r} on {count[key]} wires")
            first = ends.setdefault(key, (nid, lab))
            if first != (nid, lab):
                net.connect(first, (nid, lab))
    return net


# -- invariants built as networks --------------------------------------


def _require_qubit_ket(psi: Tensor, n: int, what: str) -> None:
    if psi.order != (n, 0) or any(w.dim != 2 for w in psi.wires):
        raise ShapeError(f"{what} needs an order-({n},0) qubit ket, got {psi!r}")


def determinant_via_epsilon(s: Tensor) -> complex:
    """det(S) = eps_ij S^i_a S^j_b e0^a e1^b for a 2x2 order-(1,1) tensor."""
    if s.order != (1, 1) or any(w.dim != 2 for w in s.wires):
        raise ShapeError(f"determinant_via_epsilon needs a 2x2 order-(1,1) tensor, got {s!r}")
    ia, jb = ("ia", "jb") if s.wires[0].flavor is UPPER else ("ai", "bj")
    net = from_terms([(catalog.epsilon(2), "ij"), (s, ia), (s, jb), (ket([1, 0]), "a"), (ket([0, 1]), "b")])
    return net.contract_all().item()


def concurrence(psi: Tensor) -> float:
    """|eps_a^c eps_b^d psi^ab psibar_cd| = 2|det(psi)| for a two-qubit ket."""
    _require_qubit_ket(psi, 2, "concurrence")
    # the bra of the conjugate state has the unconjugated components
    bar = dagger(conjugate(psi))
    eps = raise_wire(catalog.epsilon(2), "i1")
    return abs(from_terms([(psi, "ab"), (bar, "cd"[::-1]), (eps, "ac"), (eps, "bd")]).contract_all().item())


def three_tangle(psi: Tensor) -> float:
    """3-tangle tau = 2|tau'| from the six-epsilon, four-psi network
    tau' = psi^ace psi^bdf psi^gik psi^hjl eps_ab eps_cd eps_gh eps_ij eps_ek eps_fl.

    tau' contracts four copies of the state pairwise through epsilon
    tensors on every index; it equals twice the 2x2 determinant of the
    bilinear form b_kn = eps eps psi_..k psi_..n, i.e. twice Cayley's
    hyperdeterminant.
    """
    _require_qubit_ket(psi, 3, "three_tangle")
    eps = catalog.epsilon(2)
    terms = [(psi, "ace"), (psi, "bdf"), (psi, "gik"), (psi, "hjl")]
    terms += [(eps, keys) for keys in ("ab", "cd", "gh", "ij", "ek", "fl")]
    return 2.0 * abs(from_terms(terms).contract_all().item())


def kempe(psi: Tensor) -> complex:
    """Kempe invariant K = psi^ijk psibar_ilm psi^nlo psibar_pjo psi^pqm psibar_nqk.

    ``dagger`` reverses the wire order, so each bra's keys are written
    reversed.
    """
    _require_qubit_ket(psi, 3, "kempe")
    bar = dagger(psi)
    terms = [(psi, "ijk"), (bar, "ilm"[::-1]), (psi, "nlo"), (bar, "pjo"[::-1]), (psi, "pqm"), (bar, "nqk"[::-1])]
    return from_terms(terms).contract_all().item()
