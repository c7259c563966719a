"""Matricization, SVD, trimming, Schmidt decomposition, entropies."""

import math
import tracemalloc

import numpy as np
import pytest

import tensornet as tn
from tensornet.decomp import svd_matrix

rng = np.random.default_rng(7)


def random_state(dims):
    v = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    v /= np.linalg.norm(v)
    return tn.ket(v.reshape(-1), dims=dims)


def test_matricize_round_trip():
    t = tn.Tensor(rng.normal(size=(2, 3, 4)),
                  [tn.WireSpec("a", 2, tn.UPPER), tn.WireSpec("b", 3, tn.LOWER),
                   tn.WireSpec("c", 4, tn.UPPER)])
    m, info = tn.matricize(t, ["c", "a"], ["b"])
    assert m.data.shape == (8, 3)
    back = tn.dematricize(m, info)
    assert back.labels == t.labels
    assert [w.flavor for w in back.wires] == [w.flavor for w in t.wires]
    assert np.allclose(back.data, t.data)


def test_matricize_requires_partition():
    t = tn.ket([1, 0, 0, 0], dims=[2, 2], labels=["a", "b"])
    with pytest.raises(tn.WireError):
        tn.matricize(t, ["a"], ["a"])


def test_svd_reconstructs():
    for shape in [(4, 3), (3, 5), (6, 6)]:
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        u, s, v = svd_matrix(m)
        assert np.allclose(u * s @ v, m)
        assert np.all(np.diff(s) <= 1e-14)


def test_svd_phase_convention():
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, s, v = svd_matrix(m)
    for k in range(4):
        i = int(np.argmax(np.abs(u[:, k])))
        a = u[i, k]
        assert a.real > 0
        assert abs(a.imag) < 1e-12
    # convention makes the decomposition reproducible
    u2, s2, v2 = svd_matrix(m.copy())
    assert np.array_equal(u, u2) and np.array_equal(v, v2)


@pytest.mark.parametrize("shape", [(6, 40), (40, 6)])
def test_svd_matrix_wide_and_tall(shape):
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    u, s, v = svd_matrix(m)
    k = min(shape)
    assert u.shape == (shape[0], k) and s.shape == (k,) and v.shape == (k, shape[1])
    assert np.linalg.norm(u * s @ v - m) <= 1e-12 * np.linalg.norm(m)
    assert np.all(np.diff(s) <= 0)
    assert np.allclose(u.conj().T @ u, np.eye(k)) and np.allclose(v @ v.conj().T, np.eye(k))
    for j in range(k):
        a = u[int(np.argmax(np.abs(u[:, j]))), j]
        assert a.real > 0 and abs(a.imag) < 1e-15


def test_svd_tensor_wrapper():
    m = tn.matrix(rng.normal(size=(3, 4)))
    res = tn.svd(m)
    assert res.u.labels == ("out", "bond")
    assert res.v_dag.labels == ("bond", "in")
    assert np.allclose(tn.svd_reconstruct(res), m.data)
    with pytest.raises(tn.ShapeError):
        tn.svd(tn.ket([1, 0]))


def test_trim_policy_validation():
    with pytest.raises(ValueError):
        tn.TrimPolicy()
    with pytest.raises(ValueError):
        tn.TrimPolicy(chi=2, xi=0.1)
    with pytest.raises(tn.DegenerateTrimError):
        tn.TrimPolicy.max_rank(0).keep_count(np.array([1.0]))
    with pytest.raises(tn.DegenerateTrimError):
        tn.TrimPolicy.cutoff(10.0).keep_count(np.array([1.0, 0.5]))


def test_trim_max_rank_and_discarded_weight():
    m = tn.matrix(rng.normal(size=(5, 5)))
    res = tn.svd(m)
    trimmed, w = tn.trim(res, tn.TrimPolicy.max_rank(2))
    assert trimmed.sigma.size == 2
    assert w == pytest.approx(float(np.sum(res.sigma[2:] ** 2)))


def test_trim_cutoff_absolute_and_relative():
    sigma = np.array([2.0, 1.0, 0.1, 0.01])
    assert tn.TrimPolicy.cutoff(0.5).keep_count(sigma) == 2
    assert tn.TrimPolicy.cutoff(0.04, relative=True).keep_count(sigma) == 3


def test_eckart_young_residual():
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    res = tn.svd(tn.matrix(m))
    trimmed, w = tn.trim(res, tn.TrimPolicy.max_rank(3))
    approx = tn.svd_reconstruct(trimmed)
    assert np.linalg.norm(m - approx) ** 2 == pytest.approx(w, rel=1e-10)


def test_schmidt_reconstruction():
    state = random_state([2, 3, 4])
    dec = tn.schmidt(state, ["w0", "w2"])
    m, _ = tn.matricize(state, ["w0", "w2"], ["w1"])
    rebuilt = (dec.left_vectors * dec.coeffs) @ dec.right_vectors
    assert np.allclose(rebuilt, m.data)
    assert dec.rank == min(8, 3)


def test_schmidt_two_qubit_formula():
    # sigma_k^2 = (1 +- sqrt(1 - 4|ad - bc|^2)) / 2
    state = random_state([2, 2])
    a, b, c, d = state.data.reshape(-1)
    det = a * d - b * c
    dec = tn.schmidt(state, ["w0"])
    disc = math.sqrt(max(0.0, 1.0 - 4.0 * abs(det) ** 2))
    expect = np.array([(1 + disc) / 2, (1 - disc) / 2])
    assert np.allclose(np.sort(dec.coeffs**2)[::-1], expect, atol=1e-12)


def test_schmidt_needs_both_sides():
    state = random_state([2, 2])
    with pytest.raises(tn.WireError):
        tn.schmidt(state, ["w0", "w1"])
    with pytest.raises(tn.ShapeError):
        tn.schmidt(tn.bra([1, 0]), [])


def reference_reduced_density(state, keep):
    """The partial trace as one np.einsum, with the kept wires and then
    their LOWER ``label*`` copies in ``keep`` order."""
    n = len(state.wires)
    axes = [state.axis(l) for l in keep]
    sub_bra = [i + n if i in axes else i for i in range(n)]
    rho = np.einsum(state.data, list(range(n)), np.conj(state.data), sub_bra, axes + [i + n for i in axes])
    wires = [state.wire(l) for l in keep]
    return rho, wires + [tn.WireSpec(w.label + "*", w.dim, tn.LOWER) for w in wires]


def test_reduced_density_matches_dense_partial_trace():
    state = random_state([2, 2, 3])
    rho = tn.reduced_density(state, ["w0", "w2"])
    psi = state.data
    expect = np.einsum("ijk,ljm->iklm", psi, np.conj(psi))
    assert np.allclose(rho.data, expect)
    assert rho.order == (2, 2)
    m = rho.data.reshape(6, 6)
    assert np.allclose(m, m.conj().T)
    assert np.trace(m).real == pytest.approx(1.0)
    # qubit and qudit kets, kept wires in any order, none kept and all kept
    draw = np.random.default_rng(25)
    cases = [([2] * 5, [1, 3]), ([2] * 6, [4, 0, 2]), ([3, 2, 4], [2, 0]), ([2, 3, 1, 2], [3, 1, 2]),
             ([3, 3], []), ([2, 3, 2], [0, 1, 2]), ([2, 4, 3], [2, 0, 1]), ([5], [0]), ([5], [])]
    for dims, keep_axes in cases:
        v = draw.normal(size=dims) + 1j * draw.normal(size=dims)
        state = tn.ket(v / np.linalg.norm(v), dims=dims)
        keep = [f"w{i}" for i in keep_axes]
        rho = tn.reduced_density(state, keep)
        expect, wires = reference_reduced_density(state, keep)
        assert rho.wires == tuple(wires)
        assert rho.data.shape == expect.shape
        assert np.max(np.abs(rho.data - expect), initial=0.0) < 1e-12


def test_reduced_density_requires_normalized_ket():
    with pytest.raises(tn.ShapeError):
        tn.reduced_density(tn.ket([2, 0, 0, 0], dims=[2, 2]), ["w0"])
    with pytest.raises(tn.ShapeError, match="expects a ket"):
        tn.reduced_density(tn.bra([1, 0, 0, 0], dims=[2, 2]), ["w0"])


def test_entropies_uniform_distribution():
    p = np.full(4, 0.25)
    assert tn.von_neumann(p) == pytest.approx(math.log(4))
    assert tn.renyi_entropy(p, 2) == pytest.approx(math.log(4))
    assert tn.renyi_entropy(p, 0) == pytest.approx(math.log(4))
    assert tn.renyi_entropy(p, 1) == pytest.approx(math.log(4))


def test_renyi_q_zero_is_log_rank():
    p = np.array([0.7, 0.3, 0.0])
    assert tn.renyi_entropy(p, 0) == pytest.approx(math.log(2))


def test_renyi_decreases_in_q():
    p = np.array([0.6, 0.3, 0.1])
    hs = [tn.renyi_entropy(p, q) for q in (0, 0.5, 1, 2, 5)]
    assert all(hs[i] >= hs[i + 1] - 1e-12 for i in range(len(hs) - 1))


def test_entropy_input_validation():
    with pytest.raises(ValueError):
        tn.von_neumann([0.5, 0.4])
    with pytest.raises(ValueError):
        tn.von_neumann([1.5, -0.5])
    with pytest.raises(ValueError):
        tn.renyi_entropy([1.0], -1)


def test_renyi_order_nan_is_refused():
    with pytest.raises(ValueError, match="got nan"):
        tn.renyi_entropy([0.5, 0.5], float("nan"))


@pytest.mark.parametrize("q", [0.5, 2, 5, 1e3, 1e308, math.inf])
def test_renyi_large_orders_are_finite_and_approach_the_min_entropy(q):
    # q = inf and 1e308 raised RuntimeWarnings and returned nan or inf
    p = np.array([0.6, 0.3, 0.1])
    h = tn.renyi_entropy(p, q)
    if q == math.inf:
        assert h == -math.log(0.6)
    elif q < 100:
        assert h == pytest.approx(math.log(np.sum(p**q)) / (1 - q), rel=1e-14)
    else:  # sum p^q = 0.6^q (1 + 0.5^q + (1/6)^q), and 0.5^q is below the float resolution
        assert h == pytest.approx(q * math.log(0.6) / (1 - q), rel=1e-14)
    assert -math.log(0.6) <= h <= math.log(3)


@pytest.mark.parametrize("q", [0, 0.5, 2, 5, 1e308, math.inf])
def test_renyi_of_a_product_cut_is_positive_zero(q):
    h = tn.renyi_entropy([1.0], q)
    assert h == 0.0 and math.copysign(1.0, h) == 1.0


def test_von_neumann_of_a_product_cut_is_positive_zero():
    # -(1 ln 1) is -0.0: q = 1 gave -0.0 where q = 2 gave 0.0
    for h in (tn.von_neumann([1.0]), tn.renyi_entropy([1.0, 0.0], 1), tn.renyi_entropy([1.0], 1)):
        assert h == 0.0 and math.copysign(1.0, h) == 1.0
    assert tn.von_neumann([0.5, 0.5]) == math.log(2)


def test_schmidt_rank_tolerance():
    assert tn.schmidt_rank([1.0, 1e-13, 0.0]) == 1
    assert tn.schmidt_rank([1.0, 1e-6]) == 2
    assert tn.schmidt_rank([]) == 0


def test_reduced_density_past_the_element_budget_is_refused_before_allocating():
    state = random_state([2] * 16)
    tracemalloc.start()
    try:
        with pytest.raises(tn.SizeLimitError):  # 2^28 elements, 4 GiB
            tn.reduced_density(state, [f"w{i}" for i in range(14)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_reduced_density_names_an_unknown_wire():
    with pytest.raises(tn.WireError, match="no wire labeled 'zz'"):
        tn.reduced_density(random_state([2, 2]), ["w0", "zz"])
