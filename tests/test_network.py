"""Tensor network graphs, contraction plans, and invariant networks."""

import math

import numpy as np
import pytest

import tensornet as tn
from tensornet.network import determinant_via_epsilon

rng = np.random.default_rng(4242)


def random_unitary(d=2):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_qubit_ket(n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    v /= np.linalg.norm(v)
    return tn.ket(v, dims=[2] * n)


def test_connect_validation():
    net = tn.TensorNetwork()
    a = net.add(tn.ket([1, 0], labels=["x"]))
    b = net.add(tn.bra([1, 0], labels=["y"]))
    c = net.add(tn.ket([0, 1], labels=["z"]))
    with pytest.raises(tn.WireError):
        net.connect((a, "x"), (c, "z"))  # both UPPER
    with pytest.raises(tn.WireError):
        net.connect((a, "nope"), (b, "y"))
    net.connect((a, "x"), (b, "y"))
    with pytest.raises(tn.WireError):
        net.connect((a, "x"), (b, "y"))  # wire already bonded
    d = net.add(tn.bra([0, 1], labels=["w"]))
    with pytest.raises(tn.WireError, match=r"wire already bonded: \(0, 'x'\)"):
        net.connect((a, "x"), (d, "w"))
    with pytest.raises(tn.WireError, match=r"wire already bonded: \(1, 'y'\)"):
        net.connect((c, "z"), (b, "y"))
    assert net.open_wires() == [(c, "z"), (d, "w")]


def test_contract_matrix_chain():
    m1 = rng.normal(size=(3, 4))
    m2 = rng.normal(size=(4, 5))
    net = tn.TensorNetwork()
    a = net.add(tn.matrix(m1))
    b = net.add(tn.matrix(m2))
    net.connect((a, "in"), (b, "out"))
    out = net.contract_all()
    assert np.allclose(out.data, m1 @ m2)
    assert out.order == (1, 1)


def test_open_wire_order_is_declared_order():
    net = tn.TensorNetwork()
    a = net.add(tn.ket([1, 2], labels=["p"]))
    b = net.add(tn.ket([3, 4, 5], labels=["q"]))
    out = net.contract_all()
    assert out.labels == ("p", "q")
    assert np.allclose(out.data, np.outer([1, 2], [3, 4, 5]))


def test_self_loop_trace():
    m = rng.normal(size=(4, 4))
    net = tn.TensorNetwork()
    a = net.add(tn.matrix(m))
    net.connect((a, "out"), (a, "in"))
    assert net.contract_all().item() == pytest.approx(np.trace(m))


def test_duplicate_open_labels_are_disambiguated():
    net = tn.TensorNetwork()
    net.add(tn.ket([1, 0], labels=["x"]))
    net.add(tn.ket([0, 1], labels=["x"]))
    out = net.contract_all()
    assert len(set(out.labels)) == 2


def test_empty_network_contracts_to_one():
    assert tn.TensorNetwork().contract_all().item() == 1.0


def test_greedy_plan_covers_all_bonds_and_is_deterministic():
    net = tn.TensorNetwork()
    ids = [net.add(tn.matrix(rng.normal(size=(2, 2)))) for _ in range(4)]
    for k in range(3):
        net.connect((ids[k], "in"), (ids[k + 1], "out"))
    net.connect((ids[3], "in"), (ids[0], "out"))  # ring
    p1 = net.greedy_plan()
    p2 = net.greedy_plan()
    assert p1.merges == p2.merges
    assert len(p1.merges) == 3
    expect = np.trace(np.linalg.multi_dot([net.nodes[i].data for i in ids]))
    assert net.contract_all(p1).item() == pytest.approx(expect)


def test_contract_refuses_plans_over_the_element_limit(monkeypatch):
    # x -- a == c and x -- b == d, where == is a dimension-2^14 bond: the
    # greedy plan closes the wide bonds first; merging x, a and b first
    # needs a 2^28-element tensor
    big = 2**14
    up, low = tn.UPPER, tn.LOWER
    net = tn.TensorNetwork()
    x = net.add(tn.Tensor(np.ones((2, 2)), [tn.WireSpec("p", 2, low), tn.WireSpec("q", 2, low)]))
    a = net.add(tn.Tensor(np.ones((2, big)), [tn.WireSpec("p", 2, up), tn.WireSpec("c", big, up)]))
    b = net.add(tn.Tensor(np.ones((2, big)), [tn.WireSpec("q", 2, up), tn.WireSpec("d", big, up)]))
    c = net.add(tn.Tensor(np.ones(big), [tn.WireSpec("c", big, low)]))
    d = net.add(tn.Tensor(np.ones(big), [tn.WireSpec("d", big, low)]))
    for end_a, end_b in [((x, "p"), (a, "p")), ((x, "q"), (b, "q")), ((a, "c"), (c, "c")), ((b, "d"), (d, "d"))]:
        net.connect(end_a, end_b)
    plan = net.greedy_plan()
    assert net.plan_peak(plan.merges) == plan.peak_size == 2 * big
    assert net.contract_all(plan).item() == 4 * big**2

    bad = tn.network.ContractionPlan(merges=[(x, a), (x, b), (x, c), (x, d)])  # peak_size left at 0
    assert net.plan_peak(bad.merges) == big**2
    for merges in ([(c, d)], [(x, 99)]):  # unbonded, missing: sized up to there, then refused by contraction
        assert net.plan_peak(merges) == 2 * big
        with pytest.raises(tn.WireError):
            net.contract_all(tn.network.ContractionPlan(merges=merges))

    def no_tensordot(*args, **kwargs):
        raise AssertionError("contracted before the size check")

    monkeypatch.setattr(np, "tensordot", no_tensordot)
    with pytest.raises(tn.SizeLimitError):
        net.contract_all(bad)


def test_contract_refuses_an_oversized_product_of_pieces():
    # 27 disconnected qubit kets: no merge, but a 2^27-element result
    net = tn.TensorNetwork()
    for _ in range(27):
        net.add(tn.ket([1, 1]))
    with pytest.raises(tn.SizeLimitError):
        net.contract_all()


def test_plan_merge_keeps_smaller_id():
    net = tn.TensorNetwork()
    a = net.add(tn.ket([1, 1], labels=["x"]))
    b = net.add(tn.bra([1, 1], labels=["y"]))
    net.connect((a, "x"), (b, "y"))
    plan = net.greedy_plan()
    assert plan.merges == [(0, 1)]


def test_determinant_via_epsilon():
    for _ in range(10):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        val = determinant_via_epsilon(tn.matrix(m))
        assert val == pytest.approx(np.linalg.det(m))


def test_epsilon_det_relation():
    # (U (x) U)|eps> = det(U) |eps> for the raised epsilon
    eps = tn.raise_wire(tn.raise_wire(tn.epsilon(2), "i0"), "i1")
    for _ in range(10):
        u = random_unitary()
        rotated = np.einsum("ai,bj,ij->ab", u, u, eps.data)
        assert np.allclose(rotated, np.linalg.det(u) * eps.data, atol=1e-10)


def test_concurrence_formula_and_edges():
    for _ in range(20):
        psi = random_qubit_ket(2)
        a, b, c, d = psi.data.reshape(-1)
        assert tn.concurrence(psi) == pytest.approx(2 * abs(a * d - b * c), abs=1e-10)
    bell = tn.ket(np.array([1, 0, 0, 1]) / math.sqrt(2), dims=[2, 2])
    assert tn.concurrence(bell) == pytest.approx(1.0)
    product = tn.ket([1, 0, 0, 0], dims=[2, 2])
    assert tn.concurrence(product) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(tn.ShapeError):
        tn.concurrence(random_qubit_ket(3))


def test_concurrence_local_unitary_invariance():
    psi = random_qubit_ket(2)
    base = tn.concurrence(psi)
    for _ in range(10):
        u, v = random_unitary(), random_unitary()
        rotated = np.einsum("ai,bj,ij->ab", u, v, psi.data)
        assert tn.concurrence(tn.ket(rotated.reshape(-1), dims=[2, 2])) == pytest.approx(base, abs=1e-10)


def test_three_tangle_ghz_and_w():
    ghz = tn.ket(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2), dims=[2, 2, 2])
    w = tn.ket(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3), dims=[2, 2, 2])
    assert tn.three_tangle(ghz) == pytest.approx(1.0, abs=1e-10)
    assert tn.three_tangle(w) == pytest.approx(0.0, abs=1e-10)


def test_three_tangle_local_unitary_invariance():
    psi = random_qubit_ket(3)
    base = tn.three_tangle(psi)
    for _ in range(10):
        us = [random_unitary() for _ in range(3)]
        rotated = np.einsum("ai,bj,ck,ijk->abc", *us, psi.data)
        val = tn.three_tangle(tn.ket(rotated.reshape(-1), dims=[2, 2, 2]))
        assert val == pytest.approx(base, abs=1e-10)


def kempe_brute(psi):
    p = psi.data
    q = np.conj(p)
    return np.einsum("ijk,ilm,nlo,pjo,pqm,nqk->", p, q, p, q, p, q)


def test_kempe_matches_brute_force_sum():
    for _ in range(10):
        psi = random_qubit_ket(3)
        assert tn.kempe(psi) == pytest.approx(kempe_brute(psi), abs=1e-10)


def test_kempe_known_values():
    basis = tn.ket([1, 0, 0, 0, 0, 0, 0, 0], dims=[2, 2, 2])
    assert tn.kempe(basis) == pytest.approx(1.0)
    ghz = tn.ket(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2), dims=[2, 2, 2])
    assert tn.kempe(ghz) == pytest.approx(0.25, abs=1e-12)


def test_self_merge_plan_is_refused():
    net = tn.TensorNetwork()
    a = net.add(tn.matrix(rng.normal(size=(2, 2))))
    b = net.add(tn.ket([1, 2], labels=["x"]))
    net.connect((a, "in"), (b, "x"))
    with pytest.raises(tn.WireError, match=r"plan merges unbonded nodes \(0, 0\)"):
        net.contract_all(tn.network.ContractionPlan(merges=[(a, a)]))


def test_plan_that_skips_a_bond_is_refused():
    net = tn.TensorNetwork()
    ids = [net.add(tn.matrix(rng.normal(size=(2, 2)))) for _ in range(3)]
    net.connect((ids[0], "in"), (ids[1], "out"))
    net.connect((ids[1], "in"), (ids[2], "out"))
    with pytest.raises(tn.WireError, match="plan did not touch every bond"):
        net.contract_all(tn.network.ContractionPlan(merges=[(ids[0], ids[1])]))


def random_plan(net, gen):
    """Merge randomly chosen bonded pairs until every bond is contracted;
    a merged node keeps the smaller id, as in contraction."""
    rep = {nid: nid for nid in net.nodes}
    merges = []
    while True:
        pairs = sorted({(rep[a], rep[b]) for (a, _), (b, _) in net.bonds if rep[a] != rep[b]})
        if not pairs:
            return tn.network.ContractionPlan(merges=merges)
        a, b = pairs[gen.integers(len(pairs))]
        merges.append((a, b) if gen.random() < 0.5 else (b, a))
        keep, drop = min(a, b), max(a, b)
        rep = {nid: keep if r == drop else r for nid, r in rep.items()}


def random_feature_network(gen):
    """A network with two bonds between one pair of nodes, a node with two
    self-loops and two other bonds, a disconnected piece, an isolated node
    and open wires whose labels collide across nodes; wire order, bond
    dimensions and components are random."""
    dims = {k: int(gen.integers(1, 4)) for k in "pqrstuvw"}
    up, low = tn.UPPER, tn.LOWER
    spec = [  # node -> wires (label, dim key, flavor); pieces {0, 1, 2} and {3, 4}, node 5 alone
        [("l0", "p", up), ("l1", "p", low), ("m0", "q", up), ("m1", "q", low), ("x", "r", up), ("y", "s", low),
         ("o", "t", up)],
        [("x", "r", low), ("y", "s", up), ("z", "u", up), ("o", "v", low)],
        [("z", "u", low), ("o", "w", up)],
        [("e", "q", up), ("o", "t", low)],
        [("e", "q", low), ("loop", "p", up), ("back", "p", low)],
        [("o", "v", up)],
    ]
    bonds = [((0, "l0"), (0, "l1")), ((0, "m1"), (0, "m0")), ((0, "x"), (1, "x")), ((1, "y"), (0, "y")),
             ((1, "z"), (2, "z")), ((3, "e"), (4, "e")), ((4, "loop"), (4, "back"))]
    net = tn.TensorNetwork()
    for wires in spec:
        wires = [wires[k] for k in gen.permutation(len(wires))]
        shape = [dims[d] for _, d, _ in wires]
        data = gen.normal(size=shape) + 1j * gen.normal(size=shape)
        net.add(tn.Tensor(data, [tn.WireSpec(lab, dims[d], fl) for lab, d, fl in wires]))
    for end_a, end_b in bonds:
        net.connect(end_a, end_b)
    return net


def einsum_reference(net):
    """All nodes in one np.einsum: one index per bond, one per open end."""
    index = {}
    for k, (end_a, end_b) in enumerate(net.bonds):
        index[end_a] = index[end_b] = k
    opened = net.open_wires()
    for k, end in enumerate(opened, start=len(net.bonds)):
        index[end] = k
    operands = []
    for nid, t in net.nodes.items():
        operands += [t.data, [index[(nid, w.label)] for w in t.wires]]
    return np.einsum(*operands, [index[end] for end in opened])


def test_contract_all_matches_one_einsum_on_random_networks():
    gen = np.random.default_rng(2024)
    for _ in range(20):
        net = random_feature_network(gen)
        expect = einsum_reference(net)
        labels = []
        for nid, label in net.open_wires():
            labels.append(label if label not in labels else f"n{nid}:{label}")
        for plan in (None, random_plan(net, gen), random_plan(net, gen)):
            out = net.contract_all(plan)
            assert out.labels == tuple(labels)
            assert [w.dim for w in out.wires] == list(expect.shape)
            assert np.allclose(out.data, expect, rtol=1e-12, atol=1e-12)
