"""Networks written as index formulas (``network.from_terms``), against the
add/connect builders they replaced, which are kept here as references."""

import math
import random

import numpy as np
import pytest

import tensornet as tn
from tensornet import catalog
from tensornet.counting import _incidence_orders, coloring_network
from tensornet.errors import ShapeError
from tensornet.network import TensorNetwork, _require_qubit_ket, determinant_via_epsilon, from_terms
from tensornet.tensor import LOWER, UPPER, Tensor, WireSpec, conjugate, dagger, raise_wire

rng = np.random.default_rng(2024)


# -- the add/connect builders, as they were ------------------------------


def reference_determinant_via_epsilon(s: Tensor) -> complex:
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


def reference_concurrence(psi: Tensor) -> float:
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


def reference_three_tangle(psi: Tensor) -> float:
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


def reference_kempe(psi: Tensor) -> complex:
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


def reference_aklt_chain(n: int) -> Tensor:
    """Dense AKLT-style chain built from singlets and spin-1 projectors.

    ``n`` singlets (epsilon / sqrt 2) are laid side by side and each of the
    n - 1 interior qubit pairs is projected onto the spin-1 subspace,
    leaving two dangling boundary qubit wires around n - 1 spin-1 wires.
    Wire order: left qubit, spin sites left to right, right qubit.
    """
    if n < 2:
        raise ShapeError("aklt_chain needs n >= 2 singlets")
    singlet = raise_wire(raise_wire(catalog.epsilon(2), "i0"), "i1") * (1.0 / math.sqrt(2.0))
    net = TensorNetwork()
    singlets = [net.add(singlet) for _ in range(n)]
    projectors = [net.add(catalog.aklt_projector()) for _ in range(n - 1)]
    for k, p in enumerate(projectors):
        net.connect((p, "i0"), (singlets[k], "i1"))      # right qubit of singlet k
        net.connect((p, "i1"), (singlets[k + 1], "i0"))  # left qubit of singlet k+1
    state = net.contract_all()
    # open wires arrive node-ordered: boundary qubits first, then spins
    order = [state.labels[0]] + list(state.labels[2:]) + [state.labels[1]]
    perm = [state.axis(l) for l in order]
    data = np.transpose(state.data, perm)
    wires = [WireSpec("qL", 2, UPPER)]
    wires += [WireSpec(f"s{k}", 3, UPPER) for k in range(n - 1)]
    wires += [WireSpec("qR", 2, UPPER)]
    return Tensor(data, wires)


def reference_coloring_network(g, node_orders=None) -> TensorNetwork:
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


# -- the builder ------------------------------------------------------------


def test_open_keys_come_out_in_node_and_wire_order():
    a = tn.ket(rng.normal(size=6), labels=["p", "q"], dims=[2, 3])
    b = tn.bra(rng.normal(size=24), labels=["r", "s", "t"], dims=[3, 4, 2])
    c = tn.ket(rng.normal(size=20), labels=["u", "v"], dims=[5, 4])
    net = from_terms([(a, "zj"), (b, ["j", "k", "y"]), (c, "xk")])
    assert net.bonds == [((0, "q"), (1, "r")), ((1, "s"), (2, "v"))]
    assert net.open_wires() == [(0, "z"), (1, "y"), (2, "x")]
    out = net.contract_all()
    assert out.labels == ("z", "y", "x")
    assert [w.flavor for w in out.wires] == [UPPER, LOWER, UPPER]
    expect = np.einsum("zj,jky,xk->zyx", a.data, b.data, c.data)
    assert np.allclose(out.data, expect, rtol=0, atol=1e-12)
    # an open key renames its wire only: the others keep their labels
    assert [t.labels for t in net.nodes.values()] == [("z", "q"), ("r", "s", "y"), ("x", "v")]


def test_a_key_twice_on_one_node_is_a_traced_self_loop():
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    net = from_terms([(tn.matrix(m), "ii")])
    assert net.bonds == [((0, "out"), (0, "in"))]
    assert net.contract_all().item() == np.trace(m)
    x = rng.normal(size=(2, 2, 3))
    t = Tensor(x, [WireSpec("a", 2, UPPER), WireSpec("b", 2, LOWER), WireSpec("c", 3, UPPER)])
    out = from_terms([(t, "iik")]).contract_all()
    assert out.labels == ("k",)
    assert np.allclose(out.data, np.einsum("iik->k", x), rtol=0, atol=1e-12)


def test_keys_must_name_every_wire_once():
    m = tn.matrix(np.eye(2))
    for keys in ("i", "ijk"):
        with pytest.raises(tn.ShapeError, match=f"term 1: keys '{keys}' for 2 wires"):
            from_terms([(m, "ab"), (m, keys)])
    for rest in ([(m, "jk"), (m, "jl")], [(m, "jj")]):  # a key on three wires: the first term that has it is named
        with pytest.raises(tn.WireError, match="term 1: key 'j' on 3 wires"):
            from_terms([(m, "ab"), (m, "ij"), *rest])


# -- the same networks and values as the add/connect builders --------------


def contracted(monkeypatch, call):
    """The value of ``call()`` and the networks it contracted."""
    nets = []
    contract_all = TensorNetwork.contract_all

    def record(net):
        nets.append(net)
        return contract_all(net)

    with monkeypatch.context() as m:
        m.setattr(TensorNetwork, "contract_all", record)
        value = call()
    return value, nets


def bond_set(net):
    """The bonds as unordered pairs of (node id, wire position) ends: the
    builders may make them in another order, and name wires otherwise."""
    nodes = net.nodes
    return {frozenset((nid, nodes[nid].axis(label)) for nid, label in bond) for bond in net.bonds}


def assert_same_networks(got, expect):
    assert len(got) == len(expect)
    for a, b in zip(got, expect):
        assert len(a.nodes) == len(b.nodes)
        assert len(a.bonds) == len(b.bonds)
        assert bond_set(a) == bond_set(b)
        assert a.greedy_plan() == b.greedy_plan()


def random_ket(n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    if rng.random() < 0.2:  # some states with zero amplitudes
        v[rng.integers(0, 2**n, size=2)] = 0
    return tn.ket(v / np.linalg.norm(v), dims=[2] * n)


def test_invariants_equal_the_add_connect_networks(monkeypatch):
    cases = [(tn.concurrence, reference_concurrence, 2), (tn.three_tangle, reference_three_tangle, 3),
             (tn.kempe, reference_kempe, 3)]
    for _ in range(200):
        for new, old, n in cases:
            psi = random_ket(n)
            value, nets = contracted(monkeypatch, lambda: new(psi))
            expect, expect_nets = contracted(monkeypatch, lambda: old(psi))
            assert value == expect
            assert_same_networks(nets, expect_nets)


def test_determinant_equals_the_add_connect_network_in_both_wire_orders(monkeypatch):
    for _ in range(200):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for s in (tn.matrix(m), Tensor(m.T, [WireSpec("in", 2, LOWER), WireSpec("out", 2, UPPER)])):
            value, nets = contracted(monkeypatch, lambda: determinant_via_epsilon(s))
            expect, expect_nets = contracted(monkeypatch, lambda: reference_determinant_via_epsilon(s))
            assert value == expect
            assert_same_networks(nets, expect_nets)
    with pytest.raises(ShapeError):
        determinant_via_epsilon(tn.matrix(np.eye(3)))


def test_aklt_chain_equals_the_add_connect_network(monkeypatch):
    for n in range(2, 9):
        state, nets = contracted(monkeypatch, lambda: tn.aklt_chain(n))
        expect, expect_nets = contracted(monkeypatch, lambda: reference_aklt_chain(n))
        assert state.wires == expect.wires
        assert np.array_equal(state.data, expect.data)  # the sign of a zero may differ
        # the terms are interleaved, so the node ids (and the merges) differ
        (net,), (ref,) = nets, expect_nets
        assert (len(net.nodes), len(net.bonds)) == (len(ref.nodes), len(ref.bonds))
        assert net.greedy_plan().peak_size == ref.greedy_plan().peak_size


def prism(k):
    return tn.Graph(2 * k, [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
                    + [(i, k + i) for i in range(k)])


GRAPHS = [tn.Graph(2, [(0, 1)] * 3), tn.Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])]
GRAPHS += [prism(k) for k in range(3, 8)]
GRAPHS += [tn.Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                    + [(i, 5 + i) for i in range(5)])]


def relabelings(g, count, seed):
    """``g`` and ``count`` copies with shuffled node ids, edge order and
    edge directions."""
    r = random.Random(seed)
    yield g
    for _ in range(count):
        perm = list(range(g.num_nodes))
        r.shuffle(perm)
        edges = [(perm[u], perm[v]) if r.random() < 0.5 else (perm[v], perm[u]) for u, v in g.edges]
        r.shuffle(edges)
        yield tn.Graph(g.num_nodes, edges)


@pytest.mark.parametrize("k", range(len(GRAPHS)), ids=["theta", "k4"] + [f"prism{k}" for k in range(3, 8)] + ["petersen"])
def test_coloring_network_equals_the_add_connect_network(k):
    for g in relabelings(GRAPHS[k], 10, k):
        net, ref = coloring_network(g), reference_coloring_network(g)
        assert (len(net.nodes), len(net.bonds)) == (len(ref.nodes), len(ref.bonds))
        assert [t.wires for t in net.nodes.values()] == [t.wires for t in ref.nodes.values()]
        assert bond_set(net) == bond_set(ref)
        assert net.greedy_plan() == ref.greedy_plan()
        assert net.contract_all().data.tobytes() == ref.contract_all().data.tobytes()
