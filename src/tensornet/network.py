"""Tensor network graphs, greedy contraction ordering, and the
entanglement invariants that are naturally expressed as networks."""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from . import catalog
from .errors import MAX_ELEMENTS, ShapeError, SizeLimitError, WireError
from .tensor import LOWER, UPPER, Tensor, WireSpec, conjugate, dagger, raise_wire

End = tuple[int, str]  # (node id, wire label)


@dataclass
class ContractionPlan:
    """Ordered pairwise node merges; the merged node keeps the smaller id."""

    merges: list[tuple[int, int]] = field(default_factory=list)
    peak_size: int = 0


class TensorNetwork:
    """Multigraph of tensor nodes joined by bonds.

    Bonds join wires of equal dimension and opposite flavor; a wire can
    participate in at most one bond.  Nodes may be mutated (added,
    connected) until contraction, which is a pure function of the network.
    """

    def __init__(self):
        self._nodes: dict[int, Tensor] = {}
        self._bonds: list[tuple[End, End]] = []
        self._bond_of: dict[End, int] = {}  # bonded end -> index in _bonds
        self._next_id = 0

    def add(self, t: Tensor) -> int:
        nid = self._next_id
        self._next_id += 1
        self._nodes[nid] = t
        return nid

    @property
    def nodes(self) -> dict[int, Tensor]:
        return dict(self._nodes)

    @property
    def bonds(self) -> list[tuple[End, End]]:
        return list(self._bonds)

    def _wire(self, end: End) -> WireSpec:
        nid, label = end
        if nid not in self._nodes:
            raise WireError(f"no node {nid}")
        return self._nodes[nid].wire(label)

    def connect(self, end_a: End, end_b: End) -> None:
        wa, wb = self._wire(end_a), self._wire(end_b)
        if wa.dim != wb.dim:
            raise WireError(f"bond {end_a}-{end_b}: dims {wa.dim} != {wb.dim}")
        if wa.flavor is wb.flavor:
            raise WireError(f"bond {end_a}-{end_b}: both wires are {wa.flavor.value}")
        for end in (end_a, end_b):
            if end in self._bond_of:
                raise WireError(f"wire already bonded: {end}")
        self._bond_of[end_a] = self._bond_of[end_b] = len(self._bonds)
        self._bonds.append((end_a, end_b))

    def open_wires(self) -> list[End]:
        out = []
        for nid in sorted(self._nodes):
            for w in self._nodes[nid].wires:
                if (nid, w.label) not in self._bond_of:
                    out.append((nid, w.label))
        return out

    # -- contraction ---------------------------------------------------

    def _sizes_and_cuts(self) -> tuple[dict[int, int], dict[int, dict[int, int]]]:
        """Size in elements of every node after its self-loops are traced,
        and for every node the product of its bond dimensions to each
        neighbor."""
        sizes = {nid: t.data.size for nid, t in self._nodes.items()}
        cuts: dict[int, dict[int, int]] = {nid: {} for nid in self._nodes}
        for (na, la), (nb, _) in self._bonds:
            d = self._wire((na, la)).dim
            if na == nb:  # self-loop: trace shrinks the node, no pair merge
                sizes[na] //= d * d
            else:
                cuts[na][nb] = cuts[nb][na] = cuts[na].get(nb, 1) * d
        return sizes, cuts

    @staticmethod
    def _merge_sizes(sizes: dict[int, int], cuts: dict[int, dict[int, int]], a: int, b: int) -> int:
        """Merge bonded nodes a and b in ``sizes`` and ``cuts`` (the smaller
        id keeps the result, as in contraction); return the merged size."""
        keep, drop = min(a, b), max(a, b)
        cut = cuts[a].pop(b)
        del cuts[b][a]
        sizes[keep] = sizes[a] * sizes[b] // (cut * cut)
        del sizes[drop]
        for other, d in cuts.pop(drop).items():
            del cuts[other][drop]
            cuts[keep][other] = cuts[other][keep] = cuts[keep].get(other, 1) * d
        return sizes[keep]

    def greedy_plan(self) -> ContractionPlan:
        """Deterministic greedy ordering: repeatedly merge the bonded pair
        whose contraction yields the smallest tensor, ties broken by the
        lowest (node id, node id) pair.

        Candidates wait in a heap of (merged size, a, b) with a < b, so the
        best pair is popped instead of found by rescanning every bonded pair.
        A merge pushes one entry per neighbor of the merged node; an entry
        whose pair is no longer bonded, or whose merged size has changed, is
        skipped when popped.  So a merge costs O(d log H) for a merged node
        of degree d and H heap entries, where a rescan costs O(B) for B bonds.
        """
        sizes, cuts = self._sizes_and_cuts()
        plan = ContractionPlan(peak_size=max(sizes.values(), default=1))

        def merged(a: int, b: int) -> int:
            cut = cuts[a][b]
            return sizes[a] * sizes[b] // (cut * cut)

        heap = [(merged(a, b), a, b) for a, nbrs in cuts.items() for b in nbrs if a < b]
        heapq.heapify(heap)
        while heap:
            size, a, b = heapq.heappop(heap)
            if b not in cuts.get(a, ()) or merged(a, b) != size:
                continue
            plan.merges.append((a, b))
            plan.peak_size = max(plan.peak_size, self._merge_sizes(sizes, cuts, a, b))
            for other in cuts[a]:
                heapq.heappush(heap, (merged(a, other), min(a, other), max(a, other)))
        return plan

    def plan_peak(self, merges: list[tuple[int, int]]) -> int:
        """Largest tensor, in elements, among the nodes and the results of
        the given merges.  Counting stops at the first merge of a missing
        or unbonded pair, where contraction raises."""
        sizes, cuts = self._sizes_and_cuts()
        peak = max(sizes.values(), default=1)
        for a, b in merges:
            if b not in cuts.get(a, {}):
                break
            peak = max(peak, self._merge_sizes(sizes, cuts, a, b))
        return peak

    def contract_all(self, plan: ContractionPlan | None = None) -> Tensor:
        """Contract every bond; open wires survive in declared order.

        Every wire end is named by the index of its bond, an open end by
        itself.  A name that appears twice in one node is a self-loop, traced
        when the node is loaded; a merge of the plan contracts every name
        the two nodes share.  Disconnected components are combined by tensor
        product in node-id order (scalars multiply).  The result does not
        depend on the plan beyond floating point rounding.

        Raises ``SizeLimitError`` before contracting anything when a merge
        of the plan (given or computed), sized from the node shapes by
        ``plan_peak``, or the tensor product of the disconnected pieces,
        needs more than ``MAX_ELEMENTS`` elements.
        """
        if not self._nodes:
            return Tensor(np.array(1.0 + 0.0j), [])
        if plan is None:
            plan = self.greedy_plan()
        open_order = self.open_wires()
        need = max(self.plan_peak(plan.merges), math.prod(self._wire(end).dim for end in open_order))
        if need > MAX_ELEMENTS:
            raise SizeLimitError(
                f"contraction needs a {need}-element tensor (2^{math.log2(need):.1f}), "
                f"over the limit of 2^{math.log2(MAX_ELEMENTS):.0f} elements"
            )

        arrays = {nid: t.data for nid, t in self._nodes.items()}
        names = {
            nid: [self._bond_of.get((nid, w.label), (nid, w.label)) for w in t.wires]
            for nid, t in self._nodes.items()
        }
        for nid, ns in names.items():
            for loop in [n for k, n in enumerate(ns) if n in ns[k + 1:]]:
                i, j = [k for k, n in enumerate(ns) if n == loop]
                arrays[nid] = np.trace(arrays[nid], axis1=i, axis2=j)
                del ns[j], ns[i]

        for a, b in plan.merges:
            if a not in arrays or b not in arrays:
                raise WireError(f"plan refers to missing node pair ({a}, {b})")
            shared = set(names[a]).intersection(names[b]) if a != b else set()
            if not shared:
                raise WireError(f"plan merges unbonded nodes ({a}, {b})")
            # np.tensordot's layout and its np.dot, without its argument
            # handling: a's free axes then the shared ones in a's order, times
            # b's shared axes then its free ones
            xa, xb, na, nb = arrays.pop(a), arrays.pop(b), names.pop(a), names.pop(b)
            free_a = [i for i, n in enumerate(na) if n not in shared]
            axes_a = [i for i, n in enumerate(na) if n in shared]
            axes_b = [nb.index(na[i]) for i in axes_a]
            free_b = [i for i, n in enumerate(nb) if n not in shared]
            k = math.prod(xa.shape[i] for i in axes_a)
            out = np.dot(xa.transpose(free_a + axes_a).reshape(-1, k), xb.transpose(axes_b + free_b).reshape(k, -1))
            keep = min(a, b)
            arrays[keep] = out.reshape([xa.shape[i] for i in free_a] + [xb.shape[i] for i in free_b])
            names[keep] = [na[i] for i in free_a] + [nb[i] for i in free_b]

        # bonds are named by int, open ends by (node id, label)
        if any(isinstance(n, int) for ns in names.values() for n in ns):
            raise WireError("plan did not touch every bond")

        # outer-product the remaining (disconnected) pieces in id order
        nids = sorted(arrays)
        data = functools.reduce(lambda x, y: np.tensordot(x, y, axes=0), [arrays[nid] for nid in nids])
        all_names = [n for nid in nids for n in names[nid]]
        data = np.transpose(data, [all_names.index(end) for end in open_order])
        wires = []
        taken = set()
        for nid, label in open_order:
            w = self._nodes[nid].wire(label)
            lab = label if label not in taken else f"n{nid}:{label}"
            taken.add(lab)
            wires.append(WireSpec(lab, w.dim, w.flavor))
        return Tensor(data, wires)


# -- invariants built as networks --------------------------------------


def _require_qubit_ket(psi: Tensor, n: int, what: str) -> None:
    if psi.order != (n, 0) or any(w.dim != 2 for w in psi.wires):
        raise ShapeError(f"{what} needs an order-({n},0) qubit ket, got {psi!r}")


def determinant_via_epsilon(s: Tensor) -> complex:
    """det(S) = eps_ij S^i_0 S^j_1 for a 2x2 order-(1,1) tensor."""
    if s.order != (1, 1) or any(w.dim != 2 for w in s.wires):
        raise ShapeError(f"determinant_via_epsilon needs a 2x2 order-(1,1) tensor, got {s!r}")
    up = next(w.label for w in s.wires if w.flavor is UPPER)
    low = next(w.label for w in s.wires if w.flavor is LOWER)
    net = TensorNetwork()
    eps = net.add(catalog.epsilon(2))
    s1 = net.add(s)
    s2 = net.add(s)
    k0 = net.add(Tensor([1, 0], [WireSpec("b", 2, UPPER)]))
    k1 = net.add(Tensor([0, 1], [WireSpec("b", 2, UPPER)]))
    net.connect((eps, "i0"), (s1, up))
    net.connect((eps, "i1"), (s2, up))
    net.connect((s1, low), (k0, "b"))
    net.connect((s2, low), (k1, "b"))
    return net.contract_all().item()


def concurrence(psi: Tensor) -> float:
    """|eps eps psi psi-bar-bra| = 2|det(psi)| for a two-qubit ket."""
    _require_qubit_ket(psi, 2, "concurrence")
    la, lb = psi.labels
    # the bra of the conjugate state has the unconjugated components
    bar = dagger(conjugate(psi))
    net = TensorNetwork()
    p1 = net.add(psi)
    p2 = net.add(bar)
    e1 = net.add(raise_wire(catalog.epsilon(2), "i1"))
    e2 = net.add(raise_wire(catalog.epsilon(2), "i1"))
    net.connect((e1, "i0"), (p1, la))
    net.connect((e1, "i1"), (p2, la))
    net.connect((e2, "i0"), (p1, lb))
    net.connect((e2, "i1"), (p2, lb))
    return abs(net.contract_all().item())


def three_tangle(psi: Tensor) -> float:
    """3-tangle tau = 2|tau'| from the six-epsilon, four-psi network.

    tau' contracts four copies of the state pairwise through epsilon
    tensors on every index; it equals twice the 2x2 determinant of the
    bilinear form b_kn = eps eps psi_..k psi_..n, i.e. twice Cayley's
    hyperdeterminant.
    """
    _require_qubit_ket(psi, 3, "three_tangle")
    l0, l1, l2 = psi.labels
    net = TensorNetwork()
    ps = [net.add(psi) for _ in range(4)]
    pairs = [  # (psi a, psi b, wire label): one epsilon per line
        (0, 1, l0),
        (0, 1, l1),
        (2, 3, l0),
        (2, 3, l1),
        (0, 2, l2),
        (1, 3, l2),
    ]
    for a, b, lab in pairs:
        e = net.add(catalog.epsilon(2))
        net.connect((e, "i0"), (ps[a], lab))
        net.connect((e, "i1"), (ps[b], lab))
    return 2.0 * abs(net.contract_all().item())


def kempe(psi: Tensor) -> complex:
    """Kempe invariant K = psi^ijk psibar_ilm psi^nlo psibar_pjo psi^pqm psibar_nqk."""
    _require_qubit_ket(psi, 3, "kempe")
    bar = dagger(psi)
    net = TensorNetwork()
    k1 = net.add(psi)   # ijk
    b2 = net.add(bar)   # ilm
    k3 = net.add(psi)   # nlo
    b4 = net.add(bar)   # pjo
    k5 = net.add(psi)   # pqm
    b6 = net.add(bar)   # nqk
    l0, l1, l2 = psi.labels
    for (na, wa), (nb, wb) in [
        ((k1, l0), (b2, l0)),  # i
        ((k1, l1), (b4, l1)),  # j
        ((k1, l2), (b6, l2)),  # k
        ((k3, l1), (b2, l1)),  # l
        ((k5, l2), (b2, l2)),  # m
        ((k3, l0), (b6, l0)),  # n
        ((k3, l2), (b4, l2)),  # o
        ((k5, l0), (b4, l0)),  # p
        ((k5, l1), (b6, l1)),  # q
    ]:
        net.connect((na, wa), (nb, wb))
    return net.contract_all().item()
