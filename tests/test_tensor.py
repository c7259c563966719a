"""Core tensor type: wiring rules, contraction, bends, reshapes."""

import tracemalloc

import numpy as np
import pytest

import tensornet as tn

rng = np.random.default_rng(20260824)


def random_tensor(dims, flavors, labels=None):
    labels = labels or [f"w{i}" for i in range(len(dims))]
    data = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    return tn.Tensor(data, [tn.WireSpec(l, d, f) for l, d, f in zip(labels, dims, flavors)])


def test_wire_labels_must_be_unique():
    with pytest.raises(tn.WireError):
        tn.Tensor(np.zeros((2, 2)), [tn.WireSpec("a", 2, tn.UPPER), tn.WireSpec("a", 2, tn.LOWER)])


def test_wire_lookup_by_label():
    t = random_tensor([2, 3, 4], [tn.UPPER, tn.LOWER, tn.UPPER], ["a", "b", "c"])
    assert [t.axis(l) for l in ("a", "b", "c")] == [0, 1, 2]
    assert t.wire("b") == tn.WireSpec("b", 3, tn.LOWER)
    with pytest.raises(tn.WireError, match=r"no wire labeled 'zz' \(have \['a', 'b', 'c'\]\)"):
        t.axis("zz")
    with pytest.raises(tn.WireError, match="no wire labeled 'zz'"):
        t.wire("zz")
    with pytest.raises(tn.WireError, match=r"duplicate wire labels: \['a', 'b', 'a'\]"):
        tn.Tensor(np.zeros(8), [tn.WireSpec(l, 2, tn.UPPER) for l in "aba"])
    # relabeled: a label moved away is gone, a collision is refused
    r = t.relabeled({"a": "x", "c": "a"})
    assert r.labels == ("x", "b", "a") and r.axis("a") == 2 and r.wire("x").dim == 2
    with pytest.raises(tn.WireError, match="duplicate wire labels"):
        t.relabeled({"a": "b"})
    # dagger mirrors the wire order, so every label moves to its mirrored axis
    d = tn.dagger(t)
    assert [d.axis(l) for l in ("a", "b", "c")] == [2, 1, 0]
    assert d.wire("b") == tn.WireSpec("b", 3, tn.UPPER)
    # contract: a surviving label of b that is taken gets the first free suffix, in order
    a = random_tensor([2, 3], [tn.UPPER, tn.LOWER], ["p", "q"])
    b = random_tensor([3, 2, 2], [tn.UPPER, tn.LOWER, tn.UPPER], ["q", "p", "p_1"])
    out = tn.contract(a, [("q", "q")], b)
    assert out.labels == ("p", "p_1", "p_1_1")
    assert [out.axis(l) for l in out.labels] == [0, 1, 2]
    with pytest.raises(tn.WireError, match="no wire labeled 'nope'"):
        tn.contract(a, [("nope", "q")], b)


def test_data_size_must_match_wires():
    with pytest.raises(tn.ShapeError):
        tn.Tensor(np.zeros(3), [tn.WireSpec("a", 2, tn.UPPER)])


def test_wire_dim_must_be_positive():
    with pytest.raises(tn.WireError):
        tn.WireSpec("a", 0, tn.UPPER)


def test_tensor_is_immutable():
    t = tn.scalar(1.0)
    with pytest.raises(AttributeError):
        t.wires = ()
    with pytest.raises(ValueError):
        t.data[()] = 2.0


def test_arrays_from_outside_are_copied():
    arr = np.arange(4.0)
    t = tn.ket(arr)
    arr[0] = 9
    frozen = np.arange(4.0) + 0j
    frozen.flags.writeable = False
    u = tn.Tensor(frozen, [tn.WireSpec("a", 4, tn.UPPER)])
    frozen.flags.writeable = True
    frozen[1] = 9
    assert t.data.tolist() == [[0, 1], [2, 3]] and u.data.tolist() == [0, 1, 2, 3]
    assert not t.data.flags.writeable and not u.data.flags.writeable


def test_wire_only_operations_share_the_array():
    big = tn.ket(np.ones(2**22, dtype=complex))  # 64 MiB
    pair = tn.ket(big.data.reshape(-1), dims=[2**11, 2**11])
    ops = [lambda: big.relabeled({"w0": "a"}), lambda: tn.lower_wire(big, "w3"),
           lambda: tn.raise_wire(tn.lower_wire(big, "w3"), "w3"), lambda: tn.bend(big, "w5", tn.LOWER),
           lambda: tn.devectorize(pair), lambda: tn.vectorize(tn.devectorize(pair))]
    for op in ops:
        tracemalloc.start()
        try:
            out = op()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert np.shares_memory(out.data, big.data)
        assert not out.data.flags.writeable
    assert tn.allclose(tn.raise_wire(tn.lower_wire(big, "w3"), "w3"), big)


def test_value_operations_hold_one_array():
    big = tn.ket(np.arange(2**22) * (1 + 2j))  # 64 MiB
    small = tn.permute(random_tensor([2, 3, 4], [tn.UPPER, tn.LOWER, tn.UPPER]), [2, 0, 1])  # a strided view
    ops = [(lambda t: t * 0.5, lambda a: a * 0.5), (lambda t: 2 * t, lambda a: a * 2),
           (tn.conjugate, np.conj), (tn.dagger, lambda a: np.conj(np.transpose(a))),
           (lambda t: tn.bra(t.data, dims=t.data.shape), np.conj)]
    for op, expect in ops:
        tracemalloc.start()
        try:
            out = op(big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 70 * 2**20
        assert not np.shares_memory(out.data, big.data) and not out.data.flags.writeable
        out = op(small)
        assert np.array_equal(out.data, expect(small.data)) and out.data.flags.c_contiguous
        assert not out.data.flags.writeable
    assert (tn.scalar(3) * 2).item() == 6 and tn.conjugate(tn.scalar(1j)).item() == -1j


def test_norm_of_tiny_and_huge_tensors():
    # the sum of squares underflows or overflows: 1e-160 gave 1.4142057e-160
    for amp, rel in ((1e-160, 1e-15), (1e-300, 1e-15), (1e200, 1e-15), (1e300, 1e-15), (5e-324, 0.5)):
        t = tn.ket(np.array([amp, 0, 0, 1j * amp]), dims=[2, 2])
        assert t.norm() == pytest.approx(np.sqrt(2) * amp, rel=rel)
    unit = tn.ket(rng.normal(size=8), dims=[2, 2, 2])
    assert unit.norm() == np.linalg.norm(unit.data)
    assert tn.ket(np.zeros(4), dims=[2, 2]).norm() == 0.0
    # 1.6e308 is a float, 3e308 is not: past the float range math.ldexp raised OverflowError
    assert tn.ket(np.full(4, 8e307)).norm() == pytest.approx(1.6e308, rel=1e-15)
    assert tn.ket(np.full(4, 1.5e308)).norm() == np.inf


def test_flat_data_is_reshaped_row_major():
    t = tn.Tensor([1, 2, 3, 4], [tn.WireSpec("a", 2, tn.UPPER), tn.WireSpec("b", 2, tn.UPPER)])
    assert t.data[0, 1] == 2
    assert t.data[1, 0] == 3


def test_ket_splits_power_of_two_into_qubits():
    t = tn.ket([1, 0, 0, 0, 0, 0, 0, 1])
    assert [w.dim for w in t.wires] == [2, 2, 2]
    assert t.order == (3, 0)


def test_ket_non_power_of_two_is_single_wire():
    t = tn.ket([1, 2, 3])
    assert [w.dim for w in t.wires] == [3]


def test_bra_conjugates():
    t = tn.bra([1j, 0])
    assert t.order == (0, 1)
    assert t.data[0] == -1j


def test_contract_matrix_vector():
    m = tn.matrix([[1, 2], [3, 4]])
    v = tn.ket([1, 1], labels=["x"])
    out = tn.contract(m, [("in", "x")], v)
    assert np.allclose(out.data, [3, 7])
    assert out.labels == ("out",)


def test_contract_rejects_same_flavor():
    a = tn.ket([1, 0], labels=["x"])
    b = tn.ket([1, 0], labels=["y"])
    with pytest.raises(tn.WireError):
        tn.contract(a, [("x", "y")], b)


def test_contract_rejects_dim_mismatch():
    a = tn.ket([1, 0], labels=["x"])
    b = tn.bra([1, 0, 0], labels=["y"])
    with pytest.raises(tn.WireError):
        tn.contract(a, [("x", "y")], b)


def test_contract_rejects_reused_wire():
    m = tn.matrix(np.eye(2))
    v = tn.ket([1, 0], labels=["x"])
    with pytest.raises(tn.WireError):
        tn.contract(m, [("in", "x"), ("in", "x")], v)
    t = tn.Tensor(np.zeros((2, 2, 2, 2)), [tn.WireSpec(l, 2, f) for l, f in zip("abcd", [tn.UPPER, tn.LOWER] * 2)])
    with pytest.raises(tn.WireError, match="wire reused"):
        tn.contract(t, [("a", "b"), ("a", "d")])
    with pytest.raises(tn.WireError, match="wire reused"):
        tn.contract(t, [("a", "a")])


def test_self_contraction_is_trace():
    m = tn.matrix([[1, 2], [3, 4]])
    assert tn.trace(m, [("out", "in")]).item() == pytest.approx(5.0)


def test_contract_survivor_order_and_relabeling():
    a = random_tensor([2, 3], [tn.UPPER, tn.LOWER], ["p", "q"])
    b = random_tensor([3, 2], [tn.UPPER, tn.LOWER], ["q", "p"])
    out = tn.contract(a, [("q", "q")], b)
    assert out.labels == ("p", "p_1")
    expect = np.einsum("pq,qr->pr", a.data, b.data)
    assert np.allclose(out.data, expect)


def test_tensor_product_collision_suffix():
    a = tn.ket([1, 0], labels=["x"])
    b = tn.ket([0, 1], labels=["x"])
    out = tn.tensor_product(a, b)
    assert out.labels == ("x", "x_1")
    assert out.data[0, 1] == 1


def old_rule_labels(a, pairs, b=None):
    """Surviving labels as contract named them when it had an engine of its
    own: a's unpaired labels, then b's, each taken one with the first free
    suffix _1, _2, ..."""
    paired_a = {l for pair in pairs for l in pair} if b is None else {l for l, _ in pairs}
    out = [l for l in a.labels if l not in paired_a]
    for l in [] if b is None else [l for l in b.labels if l not in {q for _, q in pairs}]:
        lab, k = l, 1
        while lab in out:
            lab, k = f"{l}_{k}", k + 1
        out.append(lab)
    return tuple(out)


def einsum_contract(a, pairs, b=None):
    """contract as one np.einsum: one subscript per wire, a pair's two ends share one."""
    subs_a = list(range(len(a.wires)))
    if b is None:
        for la, lb in pairs:
            subs_a[a.axis(lb)] = subs_a[a.axis(la)]
        paired = {l for pair in pairs for l in pair}
        return np.einsum(a.data, subs_a, [s for s, l in zip(subs_a, a.labels) if l not in paired])
    subs_b = list(range(len(a.wires), len(a.wires) + len(b.wires)))
    for la, lb in pairs:
        subs_b[b.axis(lb)] = subs_a[a.axis(la)]
    out = [s for s, l in zip(subs_a, a.labels) if l not in {p for p, _ in pairs}]
    out += [s for s, l in zip(subs_b, b.labels) if l not in {q for _, q in pairs}]
    return np.einsum(a.data, subs_a, b.data, subs_b, out)


def test_contract_tensor_product_and_trace_match_einsum_and_the_old_labels():
    gen = np.random.default_rng(20261020)
    names = ["a", "b", "c", "a_1", "b_1"]  # colliding labels, and labels the suffix rule makes

    def draw(n):  # [label, dim, flavor] of n wires
        labels, dims, ups = gen.permutation(names)[:n], gen.integers(1, 5, n), gen.integers(2, size=n)
        return [[str(l), int(d), tn.UPPER if f else tn.LOWER] for l, d, f in zip(labels, dims, ups)]

    def build(specs):
        if not specs:
            return tn.scalar(gen.normal())
        labels, dims, flavors = zip(*specs)
        return random_tensor(list(dims), list(flavors), list(labels))

    cases = []
    for _ in range(150):  # random pairs, 0-3 of them
        k = int(gen.integers(0, 4))
        wa, wb = draw(k + int(gen.integers(0, 3))), draw(k + int(gen.integers(0, 3)))
        ends = [wb[int(j)] for j in gen.permutation(len(wb))[:k]]
        for x, y in zip(wa, ends):
            y[1:] = x[1], x[2].flipped()
        cases.append((build(wa), [(x[0], y[0]) for x, y in zip(wa, ends)], build(wb)))
    for _ in range(50):  # self-contractions, 0-2 loops
        k = int(gen.integers(0, 3))
        w = draw(2 * k + int(gen.integers(0, 2)))
        for x, y in zip(w[0:2 * k:2], w[1:2 * k:2]):
            y[1:] = x[1], x[2].flipped()
        cases.append((build(w), [(x[0], y[0]) for x, y in zip(w[0:2 * k:2], w[1:2 * k:2])], None))
    m = random_tensor([3, 3], [tn.UPPER, tn.LOWER], ["out", "in"])
    four = random_tensor([2, 2, 3, 3], [tn.UPPER, tn.LOWER, tn.LOWER, tn.UPPER], list("abcd"))
    cases += [
        (tn.scalar(2 - 1j), [], m), (m, [], tn.scalar(3j)), (tn.scalar(2), [], tn.scalar(-1j)),  # scalar operands
        (m, [("in", "out")], m), (m, [], m), (m, [("in", "out"), ("out", "in")], m),  # b is a
        (four, [("a", "b"), ("d", "c")], None), (four, [("b", "a")], None),  # two loops, one loop
    ]
    for a, pairs, b in cases:
        out = tn.contract(a, pairs, b)
        assert out.labels == old_rule_labels(a, pairs, b)
        np.testing.assert_allclose(out.data, einsum_contract(a, pairs, b), rtol=0, atol=1e-12)
        if not pairs and b is not None:
            product = tn.tensor_product(a, b)
            assert product.labels == out.labels
            np.testing.assert_allclose(product.data, np.multiply.outer(a.data, b.data), rtol=0, atol=1e-12)
        if b is None:
            traced = tn.trace(a, pairs)
            assert traced.labels == out.labels and traced.data.tobytes() == out.data.tobytes()


def test_tensor_product_past_the_element_budget_is_refused_before_allocating():
    # 2^14 x 2^14 elements: the product would be 4 GiB of complex doubles
    a = tn.ket(np.ones(2**14))
    b = tn.ket(np.ones(2**14))
    tracemalloc.start()
    try:
        with pytest.raises(tn.SizeLimitError, match=r"2\^28\.0"):
            tn.tensor_product(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_bend_keeps_components():
    t = random_tensor([2, 2], [tn.UPPER, tn.LOWER], ["a", "b"])
    up = tn.raise_wire(t, "b")
    assert up.order == (2, 0)
    assert np.array_equal(up.data, t.data)
    with pytest.raises(tn.WireError):
        tn.raise_wire(t, "a")


def test_snake_equation():
    # bend a wire down and back up through explicit cup/cap contractions
    v = random_tensor([4], [tn.UPPER], ["x"])
    cap = tn.cap(4)
    cup = tn.cup(4)
    bent = tn.contract(cap, [("i0", "x")], v)  # <cap| (x) |v> on one wire
    back = tn.contract(bent, [("i1", "o0")], cup)
    assert np.array_equal(back.data, v.data)


def test_dagger_of_matrix_is_conjugate_transpose():
    m = random_tensor([2, 3], [tn.UPPER, tn.LOWER], ["o", "i"])
    d = tn.dagger(m)
    assert d.labels == ("i", "o")
    assert d.order == (1, 1)
    assert np.allclose(d.data, m.data.conj().T)


def test_dagger_involution():
    t = random_tensor([2, 3, 2], [tn.UPPER, tn.LOWER, tn.UPPER])
    dd = tn.dagger(tn.dagger(t))
    assert dd.labels == t.labels
    assert np.allclose(dd.data, t.data)


def test_transpose_map_swaps_dims():
    m = random_tensor([2, 3], [tn.UPPER, tn.LOWER], ["o", "i"])
    t = tn.transpose_map(m)
    assert [w.dim for w in t.wires] == [3, 2]
    assert np.allclose(t.data, m.data.T)


def test_vectorize_round_trip():
    m = random_tensor([3, 2], [tn.UPPER, tn.LOWER], ["o", "i"])
    v = tn.vectorize(m)
    assert v.order == (2, 0)
    back = tn.devectorize(v)
    assert np.allclose(back.data, m.data)
    assert back.order == (1, 1)


def test_vectorize_agrees_with_cup():
    # (A (x) I)|cup> has components A_ik delta_kj summed: exactly A as a 2-wire ket
    m = random_tensor([2, 2], [tn.UPPER, tn.LOWER], ["o", "i"])
    cup = tn.cup(2)
    v = tn.contract(m, [("i", "o0")], cup)
    assert np.allclose(v.data, tn.vectorize(m).data)


def test_permute_by_labels_and_indices():
    t = random_tensor([2, 3, 4], [tn.UPPER, tn.UPPER, tn.LOWER], ["a", "b", "c"])
    p = tn.permute(t, ["c", "a", "b"])
    assert p.labels == ("c", "a", "b")
    assert np.allclose(p.data, np.transpose(t.data, (2, 0, 1)))
    q = tn.permute(t, [2, 0, 1])
    assert q.labels == p.labels
    with pytest.raises(tn.WireError):
        tn.permute(t, ["a", "a", "b"])
    with pytest.raises(tn.WireError, match="names 2 wires"):
        tn.permute(t, ["a", "b"])


@pytest.mark.parametrize("call, match", [
    (lambda: tn.matrix([1, 2]), "2-D array"),
    (lambda: tn.transpose_map(tn.ket([1, 0, 0, 0], dims=[2, 2])), "transpose_map"),
    (lambda: tn.vectorize(tn.ket([1, 0])), "vectorize"),
    (lambda: tn.devectorize(tn.matrix(np.eye(2))), "devectorize"),
])
def test_maps_need_their_shape(call, match):
    with pytest.raises(tn.ShapeError, match=match):
        call()


def test_enumerate_reshapes_generic_matrix_has_six():
    t = random_tensor([2, 2], [tn.UPPER, tn.LOWER], ["a", "b"])
    assert len(tn.enumerate_reshapes(t)) == 6


def test_enumerate_reshapes_vector_has_two():
    v = random_tensor([3], [tn.UPPER], ["a"])
    assert len(tn.enumerate_reshapes(v)) == 2


def test_enumerate_reshapes_symmetric_has_fewer():
    sym = tn.Tensor(np.array([[1.0, 2.0], [2.0, 1.0]]),
                    [tn.WireSpec("a", 2, tn.UPPER), tn.WireSpec("b", 2, tn.LOWER)])
    assert len(tn.enumerate_reshapes(sym)) < 6


def test_enumerate_reshapes_guard():
    t = random_tensor([2] * 5, [tn.UPPER] * 5)
    with pytest.raises(tn.SizeLimitError):
        tn.enumerate_reshapes(t)


def test_enumerate_reshapes_is_refused_by_size_before_it_builds():
    # 5! matrices of 2^20 elements: 2^26.9 elements, past the budget
    t = tn.Tensor(np.zeros((32, 32, 32, 32)), [tn.WireSpec(f"w{k}", 32, tn.UPPER) for k in range(4)])
    tracemalloc.start()
    try:
        with pytest.raises(tn.SizeLimitError, match="enumerate_reshapes would hold 120 matrices of 1048576 elements"):
            tn.enumerate_reshapes(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_scalar_item():
    assert tn.scalar(2 + 1j).item() == 2 + 1j
    with pytest.raises(tn.ShapeError):
        tn.ket([1, 0]).item()


def test_allclose_ignores_labels_checks_dims():
    a = tn.ket([1, 0], labels=["x"])
    b = tn.ket([1, 0], labels=["y"])
    c = tn.ket([1, 0, 0], labels=["z"])
    assert tn.allclose(a, b)
    assert not tn.allclose(a, c)
