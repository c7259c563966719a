"""Concrete gate and relation tensors."""

import itertools
import math
import time

import numpy as np
import pytest

import tensornet as tn
from tensornet import catalog, errors, network


def perm_sign(perm):
    """The sign of a permutation as the determinant of its matrix, a
    reference independent of ``catalog._perm_sign``."""
    return round(np.linalg.det(np.eye(len(perm))[list(perm)]))


def as_matrix(t, n_out, n_in):
    d_out = math.prod(w.dim for w in t.wires[:n_out]) or 1
    return t.data.reshape(d_out, -1)


def test_identity_and_paulis():
    assert np.array_equal(tn.identity().data, np.eye(2))
    x, y, z = tn.pauli_x(), tn.pauli_y(), tn.pauli_z()
    for p in (x, y, z):
        assert np.allclose(p.data @ p.data, np.eye(2))
    assert np.allclose(x.data @ y.data, 1j * z.data)


def test_hadamard_is_unitary_and_self_inverse():
    h = tn.hadamard().data
    assert np.allclose(h @ h, np.eye(2))


def test_cup_cap_snake_normalization():
    cup = tn.cup(3)
    cap = tn.cap(3)
    # cap contracted with cup over one pair of wires gives the identity
    snake = tn.contract(cap, [("i1", "o0")], cup)
    assert np.allclose(snake.data, np.eye(3))
    loop = tn.contract(cap, [("i0", "o0"), ("i1", "o1")], cup)
    assert loop.item() == pytest.approx(3.0)


def test_swap_components():
    s = tn.swap(2)
    for i, j, k, l in itertools.product(range(2), repeat=4):
        assert s.data[i, j, k, l] == (1.0 if (i, j) == (l, k) else 0.0)


def test_cnot_truth_table():
    c = tn.cnot()
    for a, b in itertools.product(range(2), repeat=2):
        out = np.zeros((2, 2))
        out[a, a ^ b] = 1.0
        assert np.allclose(c.data[:, :, a, b], out)


def test_toffoli_truth_table():
    t = tn.toffoli()
    for a, b, c in itertools.product(range(2), repeat=3):
        expect = np.zeros((2, 2, 2))
        expect[a, b, c ^ (a & b)] = 1.0
        assert np.allclose(t.data[:, :, :, a, b, c], expect)


def test_copy_tensor_rule():
    t = tn.copy_tensor(2, 1)
    for i, j, k in itertools.product(range(2), repeat=3):
        assert t.data[i, j, k] == (1.0 if i == j == k else 0.0)


def test_copy_with_no_inputs_is_ghz_like():
    t = tn.copy_tensor(3, 0)
    assert t.data[0, 0, 0] == 1.0 and t.data[1, 1, 1] == 1.0
    assert np.sum(np.abs(t.data)) == 2.0


def test_xor_tensor_parity_rule():
    t = tn.xor_tensor(2, 1)
    for i, j, k in itertools.product(range(2), repeat=3):
        assert t.data[i, j, k] == (1.0 if (i + j + k) % 2 == 0 else 0.0)


def test_xor_is_hadamard_conjugated_copy():
    # XOR = sqrt(2) (H (x) H) COPY H, checked entrywise
    h = tn.hadamard().data
    copy = tn.copy_tensor(2, 1).data
    conj = math.sqrt(2.0) * np.einsum("ai,bj,ijc,ck->abk", h, h, copy, h)
    assert np.allclose(conj, tn.xor_tensor(2, 1).data)


def test_plus_minus_kets():
    assert np.array_equal(tn.plus_ket().data, [1, 1])
    assert np.allclose(tn.plus_ket(normalized=True).data, np.array([1, 1]) / math.sqrt(2))
    assert np.allclose(tn.minus_ket().data, np.array([1, -1]) / math.sqrt(2))


def test_epsilon_antisymmetry():
    for n in (2, 3):
        e = tn.epsilon(n)
        assert e.order == (0, n)
        for perm in itertools.permutations(range(n)):
            assert e.data[perm] == perm_sign(perm)
    with pytest.raises(tn.ShapeError):
        tn.epsilon(1)


def test_copy_and_xor_need_a_wire():
    with pytest.raises(tn.ShapeError, match="copy_tensor"):
        tn.copy_tensor(0, 0)
    with pytest.raises(tn.ShapeError, match="xor_tensor"):
        tn.xor_tensor(0, 0)


def test_antisymmetrizer_is_projector():
    for n, d in [(2, 2), (2, 3), (3, 3)]:
        a = tn.antisymmetrizer(n, d)
        m = a.data.reshape(d**n, d**n)
        assert np.allclose(m @ m, m)
        assert np.allclose(m, m.conj().T)
    # antisymmetric subspace of d < n is empty
    assert np.allclose(tn.antisymmetrizer(3, 2).data, 0.0)


def test_antisymmetrizer_rank_is_binomial():
    a = tn.antisymmetrizer(2, 3)
    assert round(np.trace(a.data.reshape(9, 9)).real) == 3  # C(3, 2)


def test_boolean_gates():
    for gate, op in [(tn.and_tensor(), lambda a, b: a & b), (tn.or_tensor(), lambda a, b: a | b)]:
        for a, b in itertools.product(range(2), repeat=2):
            expect = np.zeros(2)
            expect[op(a, b)] = 1.0
            assert np.allclose(gate.data[:, a, b], expect)
    assert np.array_equal(tn.not_tensor().data, [[0, 1], [1, 0]])


def test_aklt_projector_is_isometry():
    p = tn.aklt_projector().data.reshape(3, 4)
    assert np.allclose(p @ p.conj().T, np.eye(3))


def test_oversized_catalog_tensors_are_refused_before_allocating(monkeypatch):
    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(np, "zeros", no_alloc)
    monkeypatch.setattr(np, "eye", no_alloc)
    t0 = time.perf_counter()
    for build in (lambda: catalog.copy_tensor(40), lambda: catalog.xor_tensor(40),
                  lambda: catalog.epsilon(10), lambda: catalog.antisymmetrizer(7, 4),
                  lambda: catalog.copy_tensor(10**9), lambda: catalog.swap(100),
                  lambda: catalog.identity(20000), lambda: catalog.cup(20000),
                  lambda: catalog.cap(20000)):
        with pytest.raises(tn.SizeLimitError, match="over the limit of 2\\^26"):
            build()
    assert time.perf_counter() - t0 < 1.0


def test_catalog_limit_is_inclusive(monkeypatch):
    assert errors.MAX_ELEMENTS == 2**26
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 2**4)
    assert catalog.copy_tensor(3, 1).data.size == 2**4
    assert catalog.xor_tensor(4, 0).data.size == 2**4
    assert catalog.epsilon(2).data.size == 4
    assert catalog.swap(2).data.size == 2**4
    with pytest.raises(tn.SizeLimitError):
        catalog.copy_tensor(4, 1)
    with pytest.raises(tn.SizeLimitError):
        catalog.epsilon(3)
    for build in (catalog.identity, catalog.cup, catalog.cap):
        assert build(4).data.size == 2**4
        with pytest.raises(tn.SizeLimitError):
            build(5)
    with pytest.raises(tn.SizeLimitError):
        catalog.swap(3)
    with pytest.raises(tn.SizeLimitError):
        catalog.antisymmetrizer(2, 3)


def test_one_patched_budget_refuses_in_the_catalog_the_engine_and_reshapes(monkeypatch):
    # errors.MAX_ELEMENTS is the one budget, read when each check runs
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 2**4)
    for build in (lambda: catalog.copy_tensor(5, 0),  # 32 elements
                  lambda: network.contract(tn.ket(np.ones(32)), [], tn.ket([1, 1])),  # 64
                  lambda: tn.enumerate_reshapes(tn.ket([1, 1, 1, 1]))):  # 3! matrices of 4
        with pytest.raises(tn.SizeLimitError, match="over the limit of 2\\^4 elements$"):
            build()
    assert network.contract(tn.ket(np.ones(8)), [], tn.ket([1, 1])).data.size == 2**4
    assert len(tn.enumerate_reshapes(tn.ket([1, 1]))) == 2


def test_catalog_matches_loop_references():
    for n_in, n_out in [(1, 0), (0, 2), (2, 1), (3, 2), (5, 0), (4, 3)]:
        n = n_in + n_out
        expect = np.zeros((2,) * n, dtype=complex)
        for bits in itertools.product(range(2), repeat=n):
            if sum(bits) % 2 == 0:
                expect[bits] = 1.0
        t = tn.xor_tensor(n_in, n_out)
        assert np.array_equal(t.data, expect)
        assert t.order == (n_out, n_in)

    expect = np.zeros((3,) * 4, dtype=complex)
    for i, j in itertools.product(range(3), repeat=2):
        expect[i, j, j, i] = 1.0
    assert np.array_equal(tn.swap(3).data, expect)

    for n, d in [(2, 3), (3, 2), (3, 4)]:
        expect = np.zeros((d,) * (2 * n), dtype=complex)
        for perm in itertools.permutations(range(n)):
            for i_tup in itertools.product(range(d), repeat=n):
                j_tup = [0] * n
                for k in range(n):
                    j_tup[perm[k]] = i_tup[k]
                expect[i_tup + tuple(j_tup)] += perm_sign(perm)
        expect /= math.factorial(n)
        assert np.array_equal(tn.antisymmetrizer(n, d).data, expect)

    for n in range(2, 6):
        expect = np.zeros((n,) * n, dtype=complex)
        for perm in itertools.permutations(range(n)):
            expect[perm] = perm_sign(perm)
        assert np.array_equal(tn.epsilon(n).data, expect)


def test_identity_cup_and_cap_are_the_bent_identity():
    for d in range(1, 5):
        eye = np.eye(d, dtype=complex)
        for t, wires in [(tn.identity(d), [("o0", tn.UPPER), ("i0", tn.LOWER)]),
                         (tn.cup(d), [("o0", tn.UPPER), ("o1", tn.UPPER)]),
                         (tn.cap(d), [("i0", tn.LOWER), ("i1", tn.LOWER)])]:
            assert t.data.tobytes() == eye.tobytes() and t.data.shape == (d, d)
            assert t.wires == tuple(tn.WireSpec(label, d, flavor) for label, flavor in wires)


def test_large_catalog_tensors_build_at_numpy_speed():
    t0 = time.perf_counter()
    t = tn.xor_tensor(22)
    assert time.perf_counter() - t0 < 2.0
    assert t.data.reshape(-1)[[0, 1, 3, 2**22 - 1]].tolist() == [1, 0, 1, 1]
    for n, d in [(9, 1), (6, 4)]:
        t0 = time.perf_counter()
        a = tn.antisymmetrizer(n, d)
        assert time.perf_counter() - t0 < 1.0
        assert a.data.shape == (d,) * (2 * n) and not a.data.any()  # d < n: no antisymmetric states
