"""Tensor network graphs, contraction planning by index elimination, and the
entanglement invariants that are naturally expressed as networks.

A network holds tensor nodes joined by two-ended bonds, plus spiders: COPY
(delta) tensors added with ``TensorNetwork.add_spider``, whose wires may each
carry any number of bonds.  By the spider-fusion identity a connected group
of spiders is one index shared by every wire bonded to it, so planning and
contraction see only the other nodes, each as a list of index names, and a
count over clause tensors joined by COPY tensors contracts its clause
tensors only.

A network built by hand is written as its index formula: ``from_terms``
takes (tensor, keys) terms, one node each, and bonds the two wires that
carry one key, as in einsum subscripts.  The invariants here, the AKLT
chain and the Penrose colouring network are built this way.
"""

from __future__ import annotations

import collections
import functools
import heapq
import math
import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import catalog
from .errors import MAX_ELEMENTS, ShapeError, SizeLimitError, WireError
from .tensor import UPPER, Tensor, WireSpec, conjugate, dagger, ket, raise_wire

End = tuple[int, str]  # (node id, wire label)


@dataclass
class ContractionPlan:
    """Ordered pairwise node merges; the merged node keeps the smaller id."""

    merges: list[tuple[int, int]] = field(default_factory=list)
    peak_size: int = 0


@dataclass
class _Fused:
    """A network with its spiders fused into shared indices.

    Index names: a bond between two other nodes is its bond index, a group
    of spiders is ``-1 - (its smallest spider id)``, an open wire of another
    node is its ``(node id, label)`` end.
    """

    wires: dict[int, list]  # node -> index name of each wire, in wire order
    indices: dict[int, set]  # node -> the names it keeps once loaded (see _load)
    holders: dict  # name -> the nodes that hold it once loaded
    dims: dict  # name -> dimension
    kept: set  # names of open ends: never summed
    open_ends: list  # unbonded wire ends, by node id, then in wire order
    open_names: list  # name of each open end
    loose: list  # open spider groups that no node holds
    scale: float  # product of the dims of closed spider groups that no node holds


def _is_delta(t: Tensor) -> bool:
    """Every wire of one dimension d, 1 where all indices agree, else 0."""
    d = t.wires[0].dim
    if any(w.dim != d for w in t.wires):
        return False
    flat = t.data.reshape(-1)
    step = sum(d**j for j in range(len(t.wires)))  # flat distance from (i, ..., i) to (i+1, ..., i+1)
    return flat[::step].tolist() == [1] * d and np.count_nonzero(flat) == d


def _load(x: np.ndarray, ns: list, keep: set) -> tuple[np.ndarray, list]:
    """A node's array and index names as contraction starts: a bond name
    that appears twice (a self-loop) is traced, a spider group held on
    several wires is reduced to its diagonal, and every name outside
    ``keep`` is summed."""
    if len(set(ns)) < len(ns):
        for loop in [n for k, n in enumerate(ns) if n in ns[k + 1:] and isinstance(n, int) and n >= 0]:
            i, j = [k for k, n in enumerate(ns) if n == loop]
            x = np.trace(x, axis1=i, axis2=j)
            del ns[j], ns[i]
        while len(set(ns)) < len(ns):
            group = next(n for k, n in enumerate(ns) if n in ns[k + 1:])
            i, j = [k for k, n in enumerate(ns) if n == group][:2]
            x = np.diagonal(x, axis1=i, axis2=j)  # the diagonal axis goes last
            del ns[j], ns[i]
            ns.append(group)
    if len(ns) > len(keep):  # keep is a subset of the names
        x = x.sum(axis=tuple(k for k, n in enumerate(ns) if n not in keep))
        ns = [n for n in ns if n in keep]
    return x, ns


class _Sizes:
    """The size model of planning: the index set of every node left while
    merges are followed, and its size in elements.  A merge sums each index
    that no other remaining node holds and that is not open; every other
    index of the pair stays, once."""

    def __init__(self, fused: _Fused):
        self.indices = {nid: set(ix) for nid, ix in fused.indices.items()}
        self.holders = {n: set(h) for n, h in fused.holders.items()}
        self.dims, self.kept = fused.dims, fused.kept
        self.sizes = {nid: self.size(ix) for nid, ix in self.indices.items()}

    def size(self, names) -> int:
        return math.prod(map(self.dims.__getitem__, names))

    def bucket_size(self, group: set) -> int:
        """Size of the node that merging every node in ``group`` leaves.

        Only the indices of the group's other nodes are scanned, once each,
        not those of its widest node: an index that is summed is held by two
        nodes of the group (a closed index on one node alone is summed when
        it gets there), so it is among them."""
        indices, dims, kept, holders = self.indices, self.dims, self.kept, self.holders
        wide = max(group, key=lambda g: len(indices[g]))
        base = indices[wide]
        seen, grown, summed = set(), 1, 1
        for g in group:
            if g != wide:
                for n in indices[g]:
                    if n not in seen:
                        seen.add(n)
                        if n not in base:
                            grown *= dims[n]
                        if n not in kept and holders[n] <= group:
                            summed *= dims[n]
        return self.sizes[wide] * grown // summed

    def merge(self, a: int, b: int) -> int:
        """Merge a and b (the smaller id keeps the result); return its size."""
        keep, drop = min(a, b), max(a, b)
        pair, left = {a, b}, set()
        for n in self.indices[keep] | self.indices.pop(drop):
            h = self.holders[n]
            if n in self.kept or not h <= pair:
                left.add(n)
                if drop in h:
                    h.discard(drop)
                    h.add(keep)
            else:
                del self.holders[n]
        del self.sizes[drop]
        self.indices[keep] = left
        self.sizes[keep] = self.size(left)
        return self.sizes[keep]


class TensorNetwork:
    """Multigraph of tensor nodes joined by bonds.

    Bonds join wires of equal dimension and opposite flavor.  A wire of a
    spider takes any number of bonds, and a wire of any other node at most
    one: by spider fusion, k ends bonded to one spider wire are k ends
    bonded to k legs of one bigger spider.  Nodes may be mutated (added,
    connected) until contraction, which is a pure function of the network.
    Every ``add``, ``add_spider`` and ``connect`` starts a new version of
    the network; the fused view is built once per version.
    """

    def __init__(self):
        self._nodes: dict[int, Tensor] = {}
        self._spiders: set[int] = set()
        self._bonds: list[tuple[End, End]] = []
        self._bond_of: dict[End, int] = {}  # bonded end -> index in _bonds (a spider wire: its latest)
        self._next_id = 0
        self._ends = 0  # wire ends of all nodes: the network is closed when every one is bonded
        self._version = 0
        self._deltas: dict[int, Tensor] = {}  # id -> tensor checked by add_spider
        self._fused: tuple[int, _Fused] | None = None  # (version, view)
        self._planned: tuple | None = None  # (version, merges, peak) of greedy_plan

    def add(self, t: Tensor) -> int:
        nid = self._next_id
        self._next_id += 1
        self._version += 1
        self._ends += len(t.wires)
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
        return t.wire(label)

    def connect(self, end_a: End, end_b: End) -> None:
        wa, wb = self._wire(end_a), self._wire(end_b)
        if wa.dim != wb.dim:
            raise WireError(f"bond {end_a}-{end_b}: dims {wa.dim} != {wb.dim}")
        if wa.flavor is wb.flavor:
            raise WireError(f"bond {end_a}-{end_b}: both wires are {wa.flavor.value}")
        bond_of, spiders = self._bond_of, self._spiders
        for end in (end_a, end_b):
            if end in bond_of and end[0] not in spiders:
                raise WireError(f"wire already bonded: {end}")
        bond_of[end_a] = bond_of[end_b] = len(self._bonds)
        self._bonds.append((end_a, end_b))
        self._version += 1

    def open_wires(self) -> list[End]:
        """Unbonded wire ends, by node id, then in wire order."""
        return list(self._fuse().open_ends)

    # -- contraction ---------------------------------------------------

    def _fuse(self) -> _Fused:
        """The other nodes as index names, each connected group of spiders
        collapsed into one name (built once per version).

        A wire bonded to a spider takes its group's name; an open wire on a
        spider keeps the group open; a closed group that no other node
        holds becomes a scalar factor equal to its dimension.
        """
        if self._fused is not None and self._fused[0] == self._version:
            return self._fused[1]
        root = {s: s for s in self._spiders}

        def find(s: int) -> int:
            while root[s] != s:
                root[s] = s = root[root[s]]
            return s

        for (na, _), (nb, _) in self._bonds:
            if na in root and nb in root:
                ra, rb = find(na), find(nb)
                root[max(ra, rb)] = min(ra, rb)

        bonds, bond_of = self._bonds, self._bond_of
        closed = len(bond_of) == self._ends  # then no spider wire is open
        wires, holders, dims, open_ends, open_names = {}, {}, {}, [], []
        for nid, t in self._nodes.items():  # ids are added in increasing order
            if nid in root:
                if not closed:
                    for w in t.wires:
                        end = (nid, w.label)
                        if end not in bond_of:
                            open_ends.append(end)
                            open_names.append(-1 - find(nid))
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
                    other = (b if a == end else a)[0]
                    n = -1 - find(other) if other in root else k
                ns.append(n)
                dims[n] = w.dim
                holders.setdefault(n, set()).add(nid)
        kept = set(open_names)
        indices = {nid: {n for n in ns if n in kept or len(holders[n]) > 1} for nid, ns in wires.items()}
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
        fused = _Fused(wires, indices, holders, dims, kept, open_ends, open_names, loose, scale)
        self._fused = (self._version, fused)
        return fused

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
        pushes one entry per index d of the result.  Sizing a bucket scans
        the indices of its nodes but the widest (``_Sizes.bucket_size``),
        so an elimination costs O(d (s + log H)) for s scanned indices and
        H heap entries; planning random 3-SAT with 300 variables and 600
        clauses takes about 0.2 s on 2 vCPUs.

        The plan is made once per version of the network; every call
        returns a fresh copy, so changing it changes nothing else.
        """
        if self._planned is not None and self._planned[0] == self._version:
            return ContractionPlan(list(self._planned[1]), self._planned[2])
        model = _Sizes(self._fuse())
        plan = ContractionPlan(peak_size=max(model.sizes.values(), default=1))
        current = {}  # index -> its bucket's (size, holders)
        heap = []

        def push(x) -> None:
            group = model.holders[x]
            if len(group) > 1:
                current[x] = key = (model.bucket_size(group), tuple(sorted(group)))
                heapq.heappush(heap, (*key, x))
            else:  # an open index left on one node
                current.pop(x, None)

        for x in model.holders:
            push(x)
        while heap:
            size, group, x = heapq.heappop(heap)
            if x not in model.holders or current.get(x) != (size, group):  # summed, or changed
                continue
            del current[x]
            queue = [(model.sizes[g], g) for g in group]
            heapq.heapify(queue)
            while len(queue) > 1:
                (_, a), (_, b) = heapq.heappop(queue), heapq.heappop(queue)
                a, b = min(a, b), max(a, b)
                plan.merges.append((a, b))
                merged = model.merge(a, b)
                plan.peak_size = max(plan.peak_size, merged)
                heapq.heappush(queue, (merged, a))
            for y in model.indices[queue[0][1]]:
                push(y)
        self._planned = (self._version, tuple(plan.merges), plan.peak_size)
        return plan

    def contract_all(self) -> Tensor:
        """Contract every bond; open wires survive in declared order.

        The network chooses its own order: the merges of ``greedy_plan``.
        Spiders are fused first (see ``_fuse``), so every other node is a
        list of index names, and a node is loaded by ``_load``.  A merge
        sums the names the two nodes share that no other remaining node
        holds and that are not open; it is one ``np.matmul``, whose batch
        axes (size 1 when there are none) are the shared names still held
        elsewhere.  Several open wires on one spider group give the
        diagonal.  Disconnected pieces are combined by tensor product in
        node-id order; scalar pieces, and the dimension of each closed
        group that no node holds, multiply as Python numbers.

        Raises ``SizeLimitError`` before contracting anything when the
        plan's peak, or the result, is more than ``MAX_ELEMENTS`` elements.
        """
        fused = self._fuse()
        plan = self.greedy_plan()
        open_dims = [fused.dims[n] for n in fused.open_names]
        need = max(plan.peak_size, math.prod(open_dims))
        if need > MAX_ELEMENTS:
            raise SizeLimitError(
                f"contraction needs a {need}-element tensor (2^{math.log2(need):.1f}), "
                f"over the limit of 2^{math.log2(MAX_ELEMENTS):.0f} elements"
            )

        arrays, names = {}, {}
        for nid, ns in fused.wires.items():
            arrays[nid], names[nid] = _load(self._nodes[nid].data, list(ns), fused.indices[nid])
        held = {n: len(h) for n, h in fused.holders.items()}  # remaining nodes holding each name

        dims, kept = fused.dims, fused.kept
        for a, b in plan.merges:
            na, nb = names.pop(a), names.pop(b)
            xa, xb = arrays.pop(a), arrays.pop(b)
            shared = set(na).intersection(nb)
            batch, summed, free_a = [], [], []
            for n in na:
                if n not in shared:
                    free_a.append(n)
                    continue
                held[n] -= 1
                (batch if n in kept or held[n] > 1 else summed).append(n)
            free_b = [n for n in nb if n not in shared]
            k = math.prod(dims[n] for n in summed)
            nbatch = math.prod(dims[n] for n in batch)
            # rebinding drops each operand before the matmul, unless its layout is a view of it
            xa = xa.transpose([na.index(n) for n in batch + free_a + summed]).reshape(nbatch, -1, k)
            xb = xb.transpose([nb.index(n) for n in batch + summed + free_b]).reshape(nbatch, k, -1)
            out = np.matmul(xa, xb)
            keep = min(a, b)
            names[keep] = batch + free_a + free_b
            arrays[keep] = out.reshape([dims[n] for n in names[keep]])

        # multiply the scalar pieces; outer-product the others in id order
        nids = sorted(arrays)
        scalars = [arrays[nid].item() for nid in nids if not names[nid]]
        if fused.scale != 1:
            scalars.append(fused.scale)
        pieces = [(arrays[nid], names[nid]) for nid in nids if names[nid]]
        pieces += [(np.ones(fused.dims[g], dtype=complex), [g]) for g in fused.loose]
        value = functools.reduce(operator.mul, scalars) if scalars else 1.0
        if not pieces:
            data = np.array(value, dtype=complex)
        else:
            data = functools.reduce(lambda x, y: np.tensordot(x, y, axes=0), [x for x, _ in pieces])
            if scalars:
                data = data * value
        all_names = [n for _, ns in pieces for n in ns]
        distinct = list(dict.fromkeys(fused.open_names))
        data = np.transpose(data, [all_names.index(n) for n in distinct])
        if len(distinct) < len(open_dims):
            # several open wires on one spider group: write the diagonal
            full = np.zeros(open_dims, dtype=complex)
            strides = [sum(s for s, m in zip(full.strides, fused.open_names) if m == n) for n in distinct]
            as_strided(full, data.shape, strides)[...] = data
            data = full
        wires = []
        taken = set()
        for nid, label in fused.open_ends:
            w = self._nodes[nid].wire(label)
            lab = label if label not in taken else f"n{nid}:{label}"
            taken.add(lab)
            wires.append(WireSpec(lab, w.dim, w.flavor))
        return Tensor(data, wires)


# -- networks written as index formulas -------------------------------


def from_terms(terms) -> TensorNetwork:
    """The network of an index formula, read as einsum subscripts.

    Each term ``(tensor, keys)`` becomes one node, in order; ``keys`` names
    the index on each of its wires, in wire order.  The two wires that
    carry one key are bonded (a key twice on one node is a traced
    self-loop); a wire whose key appears nowhere else stays open and is
    relabeled to its key.
    """
    terms = list(terms)
    count = collections.Counter(k for _, keys in terms for k in keys)
    net, ends = TensorNetwork(), {}
    for t, keys in terms:
        pairs = list(zip(t.labels, keys, strict=True))
        opened = {lab: key for lab, key in pairs if count[key] == 1}
        nid = net.add(t.relabeled(opened) if opened else t)
        for lab, key in pairs:  # the first wire with a key waits for the second
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
