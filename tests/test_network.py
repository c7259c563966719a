"""Tensor network graphs, contraction plans, and invariant networks."""

import copy
import functools
import heapq
import math
import operator
import random
import time
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

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


def test_connect_messages():
    net = tn.TensorNetwork()
    a = net.add(tn.ket([1, 0], labels=["x"]))
    b = net.add(tn.bra([1, 0, 0], labels=["y"]))
    c = net.add(tn.ket([0, 1], labels=["z"]))
    e = net.add(tn.bra([0, 1], labels=["v"]))
    with pytest.raises(tn.WireError, match=r"bond \(0, 'x'\)-\(1, 'y'\): dims 2 != 3"):
        net.connect((a, "x"), (b, "y"))
    with pytest.raises(tn.WireError, match=r"bond \(0, 'x'\)-\(2, 'z'\): both wires are upper"):
        net.connect((a, "x"), (c, "z"))
    with pytest.raises(tn.WireError, match=r"no wire labeled 'nope' \(have \['x'\]\)"):
        net.connect((a, "nope"), (e, "v"))
    with pytest.raises(tn.WireError, match="no node 9"):
        net.connect((9, "x"), (e, "v"))
    net.connect((a, "x"), (e, "v"))
    assert net.bonds == [((a, "x"), (e, "v"))]
    with pytest.raises(tn.WireError, match=r"wire already bonded: \(3, 'v'\)"):
        net.connect((c, "z"), (e, "v"))


def test_a_spider_wire_with_k_bonds_is_a_copy_tensor_with_k_legs():
    gen = np.random.default_rng(5)
    for k in range(1, 6):
        readers = [tn.Tensor(gen.normal(size=(2, 3)) + 1j * gen.normal(size=(2, 3)),
                             [tn.WireSpec("x", 2, tn.LOWER), tn.WireSpec("y", 3, tn.UPPER)]) for _ in range(k)]
        net, dense = tn.TensorNetwork(), tn.TensorNetwork()
        s = net.add_spider(tn.copy_tensor(2, 0))
        c = dense.add(tn.copy_tensor(k + 1, 0))
        for j, t in enumerate(readers):
            net.connect((s, "o1"), (net.add(t), "x"))
            dense.connect((c, f"o{j + 1}"), (dense.add(t), "x"))
        assert len(net.bonds) == k
        out, expect = net.contract_all(), dense.contract_all()
        assert out.wires == expect.wires
        assert np.allclose(out.data, expect.data, rtol=1e-12, atol=1e-12)


def test_only_a_spider_wire_takes_a_second_bond():
    net = tn.TensorNetwork()
    a = net.add(tn.ket([1, 0], labels=["x"]))
    c = net.add(tn.copy_tensor(2, 0))  # a COPY tensor that is not a spider
    s = net.add_spider(tn.dagger(tn.copy_tensor(2, 0)))
    net.connect((a, "x"), (s, "o0"))
    with pytest.raises(tn.WireError, match=r"wire already bonded: \(0, 'x'\)"):
        net.connect((a, "x"), (s, "o1"))
    net.connect((c, "o0"), (s, "o0"))
    with pytest.raises(tn.WireError, match=r"wire already bonded: \(1, 'o0'\)"):
        net.connect((s, "o0"), (c, "o0"))
    assert net.bonds == [((a, "x"), (s, "o0")), ((c, "o0"), (s, "o0"))]
    assert net.open_wires() == [(c, "o1"), (s, "o1")]


def test_an_open_spider_wire_stays_open_beside_a_multi_bonded_one():
    # 4 wire ends and 2 bonds: counting bonds twice would call this closed
    net = tn.TensorNetwork()
    s = net.add_spider(tn.copy_tensor(2, 0))
    for v in ([2, 3], [5, 7]):
        net.connect((s, "o1"), (net.add(tn.bra(v, labels=["x"])), "x"))
    assert net.open_wires() == [(s, "o0")]
    out = net.contract_all()
    assert out.labels == ("o0",)
    assert np.array_equal(out.data, [10, 21])


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
    assert net.contract_all().item() == pytest.approx(expect)


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
    assert reference_plan_peak(net, plan.merges) == plan.peak_size == 2 * big
    assert net.contract_all().item() == 4 * big**2

    # a 30 x 30 grid of dimension-2 bonds: its own plan is far over the limit
    side = 30
    grid = tn.TensorNetwork()
    ids = {}
    for i in range(side):
        for j in range(side):
            wires = [tn.WireSpec(lab, 2, fl) for lab, fl, there in
                     [("r", up, j + 1 < side), ("d", up, i + 1 < side), ("l", low, j > 0), ("u", low, i > 0)] if there]
            ids[i, j] = grid.add(tn.Tensor(np.ones(2 ** len(wires)), wires))
    for (i, j), nid in ids.items():
        if j + 1 < side:
            grid.connect((nid, "r"), (ids[i, j + 1], "l"))
        if i + 1 < side:
            grid.connect((nid, "d"), (ids[i + 1, j], "u"))
    assert grid.greedy_plan().peak_size > tn.errors.MAX_ELEMENTS

    def no_product(*args, **kwargs):
        raise AssertionError("contracted before the size check")

    for name in ("matmul", "dot", "tensordot"):
        monkeypatch.setattr(np, name, no_product)
    with pytest.raises(tn.SizeLimitError):
        grid.contract_all()


def test_contract_refuses_an_oversized_product_of_pieces():
    # 27 disconnected qubit kets: no merge, but a 2^27-element result
    net = tn.TensorNetwork()
    for _ in range(27):
        net.add(tn.ket([1, 1]))
    with pytest.raises(tn.SizeLimitError):
        net.contract_all()


def count_plans(monkeypatch):
    """A list that gains one entry per plan made: the planner fuses a fresh
    record each time it plans."""
    built = []
    fuse = tn.TensorNetwork._fuse
    monkeypatch.setattr(tn.TensorNetwork, "_fuse", lambda self: built.append(1) or fuse(self))
    return built


def test_contract_all_sizes_every_plan_but_its_own_current_one(monkeypatch):
    # contract_all sizes no plan of its own: it runs the plan greedy_plan made
    # at this version, and plans again, sized afresh, after a connect
    built = count_plans(monkeypatch)
    net = tn.TensorNetwork()
    ids = [net.add(tn.matrix(rng.normal(size=(2, 2)))) for _ in range(3)]
    net.connect((ids[0], "in"), (ids[1], "out"))
    plan = net.greedy_plan()
    assert (plan.merges, plan.peak_size, len(built)) == ([(0, 1)], 4, 1)
    assert np.allclose(net.contract_all().data, einsum_reference(net), rtol=1e-12, atol=1e-12)
    assert len(built) == 1  # made by greedy_plan at this version: trusted
    net.connect((ids[1], "in"), (ids[2], "out"))
    assert np.allclose(net.contract_all().data, einsum_reference(net), rtol=1e-12, atol=1e-12)
    assert len(built) == 2  # made after the connect, and it touches every bond
    again = net.greedy_plan()
    assert len(again.merges) == 2 and again.peak_size == reference_plan_peak(net, again.merges)
    assert len(built) == 2


def test_a_plan_made_before_a_bond_is_sized_again(monkeypatch):
    # c -- e and d -- f by wide bonds; the bond c -- d added after planning
    # makes merging c and d first a 2^27-element tensor
    up, low = tn.UPPER, tn.LOWER
    net = tn.TensorNetwork()
    c = net.add(tn.Tensor(np.ones((2, 2**14)), [tn.WireSpec("x", 2, up), tn.WireSpec("p", 2**14, up)]))
    d = net.add(tn.Tensor(np.ones((2, 2**13)), [tn.WireSpec("x", 2, low), tn.WireSpec("q", 2**13, up)]))
    e = net.add(tn.Tensor(np.ones(2**14), [tn.WireSpec("p", 2**14, low)]))
    f = net.add(tn.Tensor(np.ones(2**13), [tn.WireSpec("q", 2**13, low)]))
    net.connect((c, "p"), (e, "p"))
    net.connect((d, "q"), (f, "q"))
    plan = net.greedy_plan()
    assert plan.merges == [(c, e), (d, f)] and plan.peak_size == 2**15
    net.connect((c, "x"), (d, "x"))
    # the stale plan, reordered by its caller, would need 2^27 elements
    plan.merges[:] = [(c, d), (c, e), (c, f)]
    assert reference_plan_peak(net, plan.merges) == 2**27
    # the next contraction is planned and sized at the new version instead
    new = net.greedy_plan()
    assert new.merges != plan.merges and len(new.merges) == 3
    assert new.peak_size == reference_plan_peak(net, new.merges) == 2**15

    largest = []
    matmul = np.matmul

    def sized_matmul(*args, **kwargs):
        out = matmul(*args, **kwargs)
        largest.append(out.size)
        return out

    monkeypatch.setattr(np, "matmul", sized_matmul)
    assert net.contract_all().item() == 2**28
    assert largest and max(largest) <= new.peak_size


def test_greedy_plan_is_made_once_per_version(monkeypatch):
    built = count_plans(monkeypatch)
    net = tn.TensorNetwork()
    ids = [net.add(tn.matrix(rng.normal(size=(2, 2)))) for _ in range(3)]
    net.connect((ids[0], "in"), (ids[1], "out"))
    plan = net.greedy_plan()
    assert (plan.merges, plan.peak_size, len(built)) == ([(0, 1)], 4, 1)
    # the caller's copy: changing it changes neither the next plan nor the contraction
    plan.merges[:] = [(1, 2), (0, 1)]
    plan.peak_size = 0
    again = net.greedy_plan()
    assert (again.merges, again.peak_size, len(built)) == ([(0, 1)], 4, 1)
    assert again is not plan
    assert np.allclose(net.contract_all().data, einsum_reference(net), rtol=1e-12, atol=1e-12)
    assert len(built) == 1

    # every add, add_spider and connect gives a new plan that covers it
    k = net.add(tn.ket([1, 2], labels=["x"]))
    assert net.greedy_plan().merges == [(0, 1)] and len(built) == 2
    net.connect((ids[1], "in"), (ids[2], "out"))
    assert len(net.greedy_plan().merges) == 2 and len(built) == 3
    s = net.add_spider(tn.copy_tensor(2, 1))
    assert len(net.greedy_plan().merges) == 2 and len(built) == 4
    net.connect((s, "o0"), (ids[2], "in"))
    net.connect((k, "x"), (s, "i0"))
    assert len(net.greedy_plan().merges) == 3 and len(built) == 5
    assert np.allclose(net.contract_all().data, einsum_reference(net), rtol=1e-12, atol=1e-12)
    assert len(built) == 5

    # a count plans once: contract_all runs the plan that counting made
    built.clear()
    gen = np.random.default_rng(5)
    for n, m in [(6, 10), (8, 16), (10, 30)]:
        tn.count_sat(random_3sat(n, m, gen))
    assert len(built) == 3


def test_a_record_held_from_fuse_is_not_changed_by_planning_or_contracting():
    # the planner merges a record of its own in place: a caller's is left as it was built
    def planned_fields(r):
        return r.axes, r.sizes, r.holders, r.peak, r.layouts

    gen = np.random.default_rng(8)
    for net in (random_feature_network(gen), tn.formula_to_network(random_3sat(6, 12, gen))):
        held = net._fuse()
        built = copy.deepcopy(planned_fields(held))
        plan = net.greedy_plan()
        net.contract_all()
        assert plan.merges and planned_fields(held) == built
        assert planned_fields(net._fuse()) == built  # a record built afresh is the same
        assert net._plan() is not held and [lay[:2] for lay in net._plan().layouts] == plan.merges


def test_planning_contracting_and_open_wires_fuse_once_per_version(monkeypatch):
    built = count_plans(monkeypatch)
    net = tn.TensorNetwork()
    ids = [net.add(tn.matrix(rng.normal(size=(2, 2)))) for _ in range(4)]
    calls = [net.open_wires, net.greedy_plan, net.contract_all]
    for k in range(3):  # each call comes first at one version, then all run again
        for call in calls[k:] + calls[:k] + calls:
            call()
        assert len(built) == k + 1
        net.connect((ids[k], "in"), (ids[k + 1], "out"))
    s = net.add_spider(tn.copy_tensor(2, 1))
    net.connect((s, "o0"), (ids[3], "in"))
    assert net.contract_all().labels == ("out", "o1", "i0")
    assert net.open_wires() == [(0, "out"), (s, "o1"), (s, "i0")] and net.greedy_plan().merges
    assert len(built) == 4  # none for the versions that nothing asked for


def test_add_spider_refuses_a_tensor_that_is_not_copy():
    net = tn.TensorNetwork()
    for t in (tn.xor_tensor(2), tn.ket([1, 0]), tn.matrix(2 * np.eye(2)), tn.Tensor(np.array(1.0), []),
              tn.Tensor(np.eye(2, 3), [tn.WireSpec("a", 2, tn.UPPER), tn.WireSpec("b", 3, tn.LOWER)])):
        with pytest.raises(tn.ShapeError, match="COPY"):
            net.add_spider(t)
    assert net.nodes == {}
    for t in (tn.copy_tensor(3, 0), tn.dagger(tn.copy_tensor(2, 1)), tn.matrix(np.eye(3)), tn.ket([1, 1, 1])):
        net.add_spider(t)
    assert len(net.nodes) == 4


def test_lone_copy_spider_with_open_wires_contracts_to_its_data():
    t = tn.copy_tensor(3, 0)
    net = tn.TensorNetwork()
    net.add_spider(t)
    out = net.contract_all()
    assert out.wires == t.wires
    assert np.array_equal(out.data, t.data)
    # one wire bonded to a bra: the two open wires carry its diagonal
    k = net.add(tn.bra([2, 5], labels=["x"]))
    net.connect((0, "o1"), (k, "x"))
    out = net.contract_all()
    assert out.labels == ("o0", "o2")
    assert np.array_equal(out.data, np.diag([2, 5]))


def test_closed_spider_group_contributes_its_dimension():
    net = tn.TensorNetwork()
    a = net.add_spider(tn.matrix(np.eye(3)))  # a ring of two identities of dimension 3
    b = net.add_spider(tn.matrix(np.eye(3)))
    net.connect((a, "in"), (b, "out"))
    net.connect((b, "in"), (a, "out"))
    c = net.add_spider(tn.copy_tensor(2, 1))  # a COPY spider with one self-loop, dimension 2
    net.connect((c, "o0"), (c, "i0"))
    net.connect((c, "o1"), (net.add_spider(tn.dagger(tn.plus_ket())), "o0"))
    k = net.add(tn.ket([2, 5], labels=["x"]))
    assert net.greedy_plan().merges == []
    out = net.contract_all()
    assert out.labels == ("x",)
    assert np.array_equal(out.data, [2 * 3 * 2, 5 * 3 * 2])
    net.add(tn.ket([1, 1], labels=["y"]))
    assert net.contract_all().data.shape == (2, 2)


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


def random_plan(net, gen):
    """Merge randomly chosen bonded pairs until every bond is contracted;
    a merged node keeps the smaller id, as in contraction.  The peak is
    sized by ``reference_plan_peak``."""
    rep = {nid: nid for nid in net.nodes}
    merges = []
    while True:
        pairs = sorted({(rep[a], rep[b]) for (a, _), (b, _) in net.bonds if rep[a] != rep[b]})
        if not pairs:
            return tn.network.ContractionPlan(merges, reference_plan_peak(net, merges))
        a, b = pairs[gen.integers(len(pairs))]
        merges.append((a, b) if gen.random() < 0.5 else (b, a))
        keep, drop = min(a, b), max(a, b)
        rep = {nid: keep if r == drop else r for nid, r in rep.items()}


def laid_out(net, merges):
    """A stand-in for ``greedy_plan`` that makes the given merges the plan
    of the network's current version: a fresh record merges and lays them
    out, as the planner does its own."""
    program = net._fuse()
    for a, b in merges:
        program.merge(a, b)
    net._planned = program
    return tn.network.ContractionPlan(list(merges), program.peak)


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


def test_contract_all_matches_one_einsum_on_random_networks(monkeypatch):
    gen = np.random.default_rng(2024)
    for _ in range(20):
        net = random_feature_network(gen)
        expect = einsum_reference(net)
        labels = []
        for nid, label in net.open_wires():
            labels.append(next(x for x in [label] + [f"{label}_{k}" for k in range(1, len(labels) + 1)] if x not in labels))
        for plan in (None, random_plan(net, gen), random_plan(net, gen)):
            with monkeypatch.context() as m:
                if plan is not None:  # contract in a random merge order
                    m.setattr(tn.TensorNetwork, "greedy_plan", lambda self, plan=plan: laid_out(self, plan.merges))
                out = net.contract_all()
                if plan is not None:
                    assert out.data.tobytes() == reference_contract_all(net, plan.merges).tobytes()
            assert out.labels == tuple(labels)
            assert [w.dim for w in out.wires] == list(expect.shape)
            assert np.allclose(out.data, expect, rtol=1e-12, atol=1e-12)


def random_spider_network(gen):
    """Random bonds among ordinary nodes with random entries and COPY
    spiders of random order: spider groups shared by several nodes, held
    twice by one node, open once or more, or closed and held by nobody;
    every wire of one dimension."""
    dim = int(gen.integers(2, 4))
    k, spiders = int(gen.integers(1, 6)), int(gen.integers(1, 6))
    wires = [[] for _ in range(k + spiders)]
    bonds = []
    for e in range(int(gen.integers(0, 14))):
        u, v = (int(x) for x in gen.integers(k + spiders, size=2))
        if len(wires[u]) > 3 or len(wires[v]) > 3:
            continue
        wires[u].append(tn.WireSpec(f"u{e}", dim, tn.UPPER))
        wires[v].append(tn.WireSpec(f"l{e}", dim, tn.LOWER))
        bonds.append(((u, f"u{e}"), (v, f"l{e}")))
    for j in range(int(gen.integers(0, 3))):
        wires[int(gen.integers(k + spiders))].append(tn.WireSpec(f"open{j}", dim, tn.UPPER))
    net = tn.TensorNetwork()
    for ws in wires[:k]:
        net.add(tn.Tensor(gen.normal(size=dim ** len(ws)) + 1j * gen.normal(size=dim ** len(ws)), ws))
    for ws in wires[k:]:
        if not ws:
            ws = [tn.WireSpec("lone", dim, tn.LOWER)]
        delta = np.zeros((dim,) * len(ws))
        for i in range(dim):
            delta[(i,) * len(ws)] = 1
        net.add_spider(tn.Tensor(delta, ws))
    for end_a, end_b in bonds:
        net.connect(end_a, end_b)
    return net


def test_spider_networks_match_one_einsum():
    gen = np.random.default_rng(77)
    for _ in range(200):
        net = random_spider_network(gen)
        expect = einsum_reference(net)
        plan = net.greedy_plan()
        assert reference_plan_peak(net, plan.merges) == plan.peak_size
        out = net.contract_all()
        assert [w.dim for w in out.wires] == list(expect.shape)
        assert np.allclose(out.data, expect, rtol=1e-12, atol=1e-12)


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


def reference_greedy_plan(net):
    """The pair greedy as it was before the heap and before spider fusion:
    rescan every bonded pair on each merge, O(N P), every node (spiders
    too) a plain node.  Kept as the oracle for plan identity on networks
    without spiders, and for plan peaks on networks with them."""
    sizes, cuts = _sizes_and_cuts(net)
    plan = tn.network.ContractionPlan(peak_size=max(sizes.values(), default=1))
    while True:
        best = min(
            ((sizes[a] * sizes[b] // (cut * cut), a, b) for a, nbrs in cuts.items() for b, cut in nbrs.items() if a < b),
            default=None,
        )
        if best is None:
            return plan
        _, a, b = best
        plan.merges.append((a, b))
        plan.peak_size = max(plan.peak_size, _merge_sizes(sizes, cuts, a, b))


class ReferenceSizes:
    """``_Sizes`` as it was before bucket sizing took one pass, kept as the
    oracle for plan identity on spider networks.  The size model shared by
    planning and ``plan_peak``: the index set
    of every node left while merges are followed, and its size in elements.
    A merge sums each index that no other remaining node holds and that is
    not open; every other index of the pair stays, once."""

    def __init__(self, fused):
        self.indices = {nid: set(ix) for nid, ix in fused.indices.items()}
        self.holders = {n: set(h) for n, h in fused.holders.items()}
        self.dims, self.kept = fused.dims, fused.kept
        self.sizes = {nid: self.size(ix) for nid, ix in self.indices.items()}

    def size(self, names) -> int:
        return math.prod(map(self.dims.__getitem__, names))

    def bucket_size(self, group: set) -> int:
        """Size of the node that merging every node in ``group`` leaves.

        Only the indices of the group's other nodes are scanned, not those
        of its widest node: an index that is summed is held by two nodes of
        the group (a closed index on one node alone is summed when it gets
        there), so it is among them."""
        wide = max(group, key=lambda g: len(self.indices[g]))
        base = self.indices[wide]
        rest = set().union(*[self.indices[g] for g in group if g != wide])
        summed = [n for n in rest if n not in self.kept and self.holders[n] <= group]
        return self.sizes[wide] * self.size(rest - base) // self.size(summed)

    def bonded(self, a: int, b: int) -> bool:
        return a != b and a in self.indices and b in self.indices and not self.indices[a].isdisjoint(self.indices[b])

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



def reference_fuse(self):
    """``TensorNetwork._fuse`` as it was before it skipped the spider ends
    of closed networks, without its cache: the other nodes as index names,
    each connected group of spiders collapsed into one name.

    A wire bonded to a spider takes its group's name; an open wire on a
    spider keeps the group open; a closed group that no other node
    holds becomes a scalar factor equal to its dimension.
    """
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
    wires, holders, dims, open_ends, open_names = {}, {}, {}, [], []
    for nid in sorted(self._nodes):
        spider = nid in root
        if not spider:
            ns = wires[nid] = []
        for w in self._nodes[nid].wires:
            end = (nid, w.label)
            k = bond_of.get(end)
            if spider:
                if k is None:
                    open_ends.append(end)
                    open_names.append(-1 - find(nid))
                continue
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
    return ReferenceFused(wires, indices, holders, dims, kept, open_ends, open_names, loose, scale)


@dataclass
class ReferenceFused:
    """``network._Fused`` as it was before it held each node's load."""

    wires: dict  # node -> index name of each wire, in wire order
    indices: dict  # node -> the names it keeps once loaded (see reference_load)
    holders: dict  # name -> the nodes that hold it once loaded
    dims: dict  # name -> dimension
    kept: set  # names of open ends: never summed
    open_ends: list  # unbonded wire ends, by node id, then in wire order
    open_names: list  # name of each open end
    loose: list  # open spider groups that no node holds
    scale: float  # product of the dims of closed spider groups that no node holds


def reference_load(x, ns, keep):
    """``network._load`` as it was before its steps were worked out once per
    version: a node's array and index names as contraction starts."""
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


def reference_contract_all(self, merges):
    """``TensorNetwork.contract_all`` as it was before the plan laid out each
    merge, on ``reference_fuse`` and ``reference_load``, running the given
    merges: each merge works out its shared, batch and summed names
    itself.  Kept as the oracle for the bytes every contraction gives."""
    fused = reference_fuse(self)
    arrays, names = {}, {}
    for nid, ns in fused.wires.items():
        arrays[nid], names[nid] = reference_load(self._nodes[nid].data, list(ns), fused.indices[nid])
    held = {n: len(h) for n, h in fused.holders.items()}  # remaining nodes holding each name

    dims, kept = fused.dims, fused.kept
    for a, b in merges:
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
        xa = xa.transpose([na.index(n) for n in batch + free_a + summed]).reshape(nbatch, -1, k)
        xb = xb.transpose([nb.index(n) for n in batch + summed + free_b]).reshape(nbatch, k, -1)
        out = np.matmul(xa, xb)
        keep = min(a, b)
        names[keep] = batch + free_a + free_b
        arrays[keep] = out.reshape([dims[n] for n in names[keep]])

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
    open_dims = [fused.dims[n] for n in fused.open_names]
    if len(distinct) < len(open_dims):
        full = np.zeros(open_dims, dtype=complex)
        strides = [sum(s for s, m in zip(full.strides, fused.open_names) if m == n) for n in distinct]
        as_strided(full, data.shape, strides)[...] = data
        data = full
    return data



def reference_plan_peak(self, merges):
    """``TensorNetwork.plan_peak`` as it was before ``contract_all`` took
    no plan, on ``reference_fuse`` and ``ReferenceSizes``: the largest
    tensor, in elements, among the loaded nodes and the results of the
    given merges, in the size model of ``greedy_plan``.  Counting stops at
    the first merge of a missing or unbonded pair."""
    model = ReferenceSizes(reference_fuse(self))
    peak = max(model.sizes.values(), default=1)
    for a, b in merges:
        if not model.bonded(a, b):
            break
        peak = max(peak, model.merge(a, b))
    return peak


def reference_elimination_plan(self):
    """``greedy_plan`` as it was before the plan laid out each merge, on
    ``reference_fuse`` and ``ReferenceSizes``: index elimination, the
    smallest bucket first, ties broken by the sorted tuple of its holders,
    each bucket merged pairwise, smallest first.  Kept as the oracle for
    every plan's merges and peak."""
    model = ReferenceSizes(reference_fuse(self))
    plan = tn.network.ContractionPlan(peak_size=max(model.sizes.values(), default=1))
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
    return plan

def random_formula_networks(gen):
    """Closed (``formula_to_network``), open (``formula_state_network``) and
    two-layer ``<f|f>`` networks of random formulas, half with clauses of
    up to 7 literals."""
    nets = []
    for k in range(16):
        n = int(gen.integers(3, 13))
        widths = gen.integers(1, 8 if k % 2 else 4, size=int(gen.integers(0, 2 * n + 4)))
        f = tn.CnfFormula(n, [tuple(int(v) * int(gen.choice([-1, 1])) for v in gen.choice(n, size=min(int(w), n), replace=False) + 1)
                              for w in widths])
        nets.append(tn.counting.formula_to_network(f))
        nets.append(tn.counting.formula_state_network(f)[0])
        net = tn.TensorNetwork()
        for ket_end, bra_end in zip(tn.counting._formula_layer(net, f, bra=False), tn.counting._formula_layer(net, f, bra=True)):
            net.connect(ket_end, bra_end)
        nets.append(net)
    return nets


def test_elimination_plan_equals_the_reference_on_spider_networks():
    gen = np.random.default_rng(53)
    nets = random_formula_networks(gen) + [random_spider_network(gen) for _ in range(40)]
    assert sum(bool(net.open_wires()) for net in nets) >= 16
    for net in nets:
        fused, expect = net._fuse(), reference_fuse(net)
        assert (fused.holders, fused.dims, fused.kept) == (expect.holders, expect.dims, expect.kept)
        assert (fused.open_ends, fused.open_names, fused.loose, fused.scale) == (
            expect.open_ends, expect.open_names, expect.loose, expect.scale)
        assert fused.steps.keys() == fused.axes.keys() == fused.sizes.keys() == expect.wires.keys()
        for nid, axes in fused.axes.items():
            data = net.nodes[nid].data
            x, ns = reference_load(data, list(expect.wires[nid]), expect.indices[nid])
            assert list(axes) == ns and list(axes.values()) == list(range(len(ns))) and fused.sizes[nid] == x.size
            assert tn.network._load(data, fused.steps[nid]).tobytes() == x.tobytes()
        plan, expect = net.greedy_plan(), reference_elimination_plan(net)
        assert plan.merges == expect.merges
        assert plan.peak_size == expect.peak_size


def random_3sat(num_vars, num_clauses, gen):
    return tn.CnfFormula(num_vars, [tuple(int(v) * int(gen.choice([-1, 1]))
                                          for v in gen.choice(num_vars, size=3, replace=False) + 1)
                                    for _ in range(num_clauses)])


def random_multigraph_network(gen, dim):
    """Random bonds between random node pairs: multi-bonds, self-loops,
    isolated nodes and disconnected pieces, every wire of dimension ``dim``,
    a few open wires, at most 8 wires per node."""
    k = int(gen.integers(1, 12))
    wires = [[] for _ in range(k)]
    bonds = []
    for e in range(int(gen.integers(0, 18))):
        u, v = (int(x) for x in gen.integers(k, size=2))
        if len(wires[u]) > 6 or len(wires[v]) > 6:
            continue
        wires[u].append(tn.WireSpec(f"u{e}", dim, tn.UPPER))
        wires[v].append(tn.WireSpec(f"l{e}", dim, tn.LOWER))
        bonds.append(((u, f"u{e}"), (v, f"l{e}")))
    for j in range(int(gen.integers(0, 3))):
        wires[int(gen.integers(k))].append(tn.WireSpec(f"open{j}", dim, tn.UPPER))
    net = tn.TensorNetwork()
    for ws in wires:
        net.add(tn.Tensor(np.ones(dim ** len(ws)), ws))
    for end_a, end_b in bonds:
        net.connect(end_a, end_b)
    return net


def invariant_networks(monkeypatch):
    """The networks that concurrence, three_tangle and kempe contract."""
    return recorded_networks(monkeypatch, lambda: tn.concurrence(random_qubit_ket(2)),
                             lambda: tn.three_tangle(random_qubit_ket(3)), lambda: tn.kempe(random_qubit_ket(3)))


def recorded_networks(monkeypatch, *calls):
    """The networks that the given calls contract."""
    nets = []
    contract_all = tn.TensorNetwork.contract_all

    def record(net):
        nets.append(net)
        return contract_all(net)

    with monkeypatch.context() as m:
        m.setattr(tn.TensorNetwork, "contract_all", record)
        for call in calls:
            call()
    return nets


def test_heap_greedy_plan_equals_the_rescanning_greedy(monkeypatch):
    gen = np.random.default_rng(31)
    prism = tn.Graph(8, [(i, (i + 1) % 4) for i in range(4)] + [(4 + i, 4 + (i + 1) % 4) for i in range(4)]
                     + [(i, 4 + i) for i in range(4)])
    petersen = tn.Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                        + [(i, 5 + i) for i in range(5)])
    nets = [tn.counting.coloring_network(g) for g in (prism, petersen)]
    nets += invariant_networks(monkeypatch)
    assert len(nets) == 5
    formulas = [random_3sat(n, m, gen) for n, m in [(8, 16), (6, 26), (20, 40)] * 8]
    nets += [random_feature_network(gen) for _ in range(20)]
    nets += [random_multigraph_network(gen, dim) for dim in (1, 2, 2, 3) * 25]
    for net in nets:
        plan, expect = net.greedy_plan(), reference_greedy_plan(net)
        assert plan.merges == expect.merges
        assert plan.peak_size == expect.peak_size
    # a formula network keeps one spider per variable: never a higher peak than
    # the rescanning greedy on the COPY chains it replaces, the same count (a
    # spider wire with several bonds has no reading as a plain node)
    from test_counting import reference_formula_network

    for f in formulas:
        net = tn.counting.formula_to_network(f)
        assert net.greedy_plan().peak_size <= reference_greedy_plan(reference_formula_network(f)).peak_size
        assert tn.count_sat(f).count == tn.brute_force_sat(f)


def benchmark_structures():
    """The 48 random 3-SAT clause structures (n=8, m=16) that the ``sat-count``
    benchmark workload counts (its stream ``1708-8-16``), with random signs."""
    gen = random.Random("1708-8-16")
    structures = [[tuple(gen.sample(range(1, 9), 3)) for _ in range(16)] for _ in range(48)]
    signs = random.Random(20)
    return [tn.CnfFormula(8, [tuple(v if signs.random() < 0.5 else -v for v in c) for c in s]) for s in structures]


def open_group_networks(gen):
    """|f> networks whose variable spiders carry several open wires: each of
    some variables' open wire is bonded to a COPY spider with two more."""
    nets = []
    for n, m in [(3, 4), (4, 6), (5, 8), (6, 9)]:
        for _ in range(2):
            net, ends = tn.counting.formula_state_network(random_3sat(n, m, gen))
            for end in ends[::2]:
                net.connect(end, (net.add_spider(tn.copy_tensor(2, 1)), "i0"))
            nets.append(net)
    return nets


def test_plans_and_bytes_equal_the_reference_engine(monkeypatch):
    # the merges and peak of every plan are the reference planner's, and every
    # contraction that fits 2^16 elements gives the reference merge loop's bytes
    gen = np.random.default_rng(404)
    prisms = [tn.Graph(2 * k, [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
                       + [(i, k + i) for i in range(k)]) for k in (3, 4, 5, 6)]  # k = 4 is the cube
    k4 = tn.Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    sizes = [(12, 30), (20, 60), (30, 90), (50, 100)] * 2  # random 3-SAT up to n=50
    formulas = benchmark_structures() + [random_3sat(n, m, gen) for n, m in sizes]
    nets = [tn.counting.formula_to_network(f) for f in formulas]
    nets += [tn.counting.coloring_network(g) for g in [k4, *prisms]]
    nets += invariant_networks(monkeypatch)
    nets += recorded_networks(monkeypatch, *[lambda n=n: tn.aklt_chain(n) for n in range(2, 7)])
    nets += open_group_networks(gen) + [random_spider_network(gen) for _ in range(100)]
    contracted = 0
    for net in nets:
        plan, expect = net.greedy_plan(), reference_elimination_plan(net)
        assert plan.merges == expect.merges
        assert plan.peak_size == expect.peak_size
        if plan.peak_size <= 2**16:
            contracted += 1
            assert net.contract_all().data.tobytes() == reference_contract_all(net, expect.merges).tobytes()
    several = [net for net in nets if len(set(net._fuse().open_names)) < len(net._fuse().open_names)]
    assert contracted >= len(nets) - 4 and len(several) >= 8


@pytest.mark.parametrize("formula", [tn.CnfFormula(3000, []), random_3sat(300, 600, np.random.default_rng(8))],
                         ids=["empty-3000", "3sat-300-600"])
def test_greedy_plan_is_fast_on_large_networks(formula):
    # the rescanning greedy took 3.3 s and 1.8 s on these
    net = tn.counting.formula_to_network(formula)
    t0 = time.perf_counter()
    plan = net.greedy_plan()
    assert time.perf_counter() - t0 < 0.5
    assert reference_plan_peak(net, plan.merges) == plan.peak_size


def test_no_merge_is_larger_than_the_plan_peak(monkeypatch):
    # contract_all refuses a network by its plan's peak alone, so every
    # array a merge makes must fit in it
    gen = np.random.default_rng(97)
    graphs = [tn.Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])]
    for k in (3, 4, 5, 6):  # prisms; k = 4 is the cube
        graphs.append(tn.Graph(2 * k, [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
                               + [(i, k + i) for i in range(k)]))
    graphs.append(tn.Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                           + [(i, 5 + i) for i in range(5)]))
    nets = random_formula_networks(gen) + [tn.counting.coloring_network(g) for g in graphs]
    nets += invariant_networks(monkeypatch)
    nets += recorded_networks(monkeypatch, *[lambda n=n: tn.aklt_chain(n) for n in range(2, 7)])
    nets += [random_spider_network(gen) for _ in range(200)]
    assert len(nets) == 48 + 6 + 3 + 5 + 200

    realized = []
    matmul = np.matmul

    def recording(*args, **kwargs):
        out = matmul(*args, **kwargs)
        realized.append(out.size)
        return out

    monkeypatch.setattr(np, "matmul", recording)
    merges = 0
    for net in nets:
        realized.clear()
        net.contract_all()
        assert len(realized) == len(net.greedy_plan().merges)
        assert max(realized, default=0) <= net.greedy_plan().peak_size
        merges += len(realized)
    assert merges > 1000


def test_a_record_merged_alone_keeps_the_planned_merges_layouts_and_peak():
    # _Fused.merge records each merge's layout, pair first, and the peak
    # itself: a fresh record merged in the planner's order, with nothing
    # else, ends as the planned record does
    gen = np.random.default_rng(28)

    def prism(k):  # k = 4 is the cube
        return tn.Graph(2 * k, [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
                        + [(i, k + i) for i in range(k)])

    graphs = [tn.Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]), *map(prism, (3, 4, 5, 6)),
              tn.Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                       + [(i, 5 + i) for i in range(5)])]
    nets = random_formula_networks(gen) + [tn.counting.coloring_network(g) for g in graphs]
    nets += [tn.counting.formula_to_network(random_3sat(n, m, gen)) for n, m in [(8, 16), (20, 40), (50, 100)] * 4]
    merges = 0
    for net in nets:
        plan, planned, record = net.greedy_plan(), net._plan(), net._fuse()
        for a, b in plan.merges:
            record.merge(a, b)
        assert record.layouts == planned.layouts
        assert [lay[:2] for lay in record.layouts] == plan.merges
        assert record.peak == planned.peak == plan.peak_size
        merges += len(plan.merges)
    assert merges > 1000
