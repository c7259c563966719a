"""Matrix product states: factorization, evaluation, named states,
compression, entropies."""

import math
import time
import tracemalloc

import numpy as np
import pytest

import tensornet as tn
from tensornet import mps as mpsmod
from tensornet import tensor as tensormod
from tensornet.decomp import RANK_TOL, svd_matrix

rng = np.random.default_rng(99)


def random_state(n, d=2):
    v = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    v /= np.linalg.norm(v)
    return tn.ket(v, dims=[d] * n)


def test_mps_validation():
    with pytest.raises(tn.ShapeError):
        tn.MPS([])
    with pytest.raises(tn.ShapeError):
        tn.MPS([np.zeros((1, 2, 2)), np.zeros((3, 2, 1))])  # bond mismatch
    with pytest.raises(tn.ShapeError):
        tn.MPS([np.zeros((2, 2, 1))])  # open boundary needs bond 1
    with pytest.raises(ValueError):
        tn.MPS([np.zeros((1, 2, 1))], boundary="twisted")
    with pytest.raises(tn.ShapeError, match="core 1 has 2 axes"):
        tn.MPS([np.zeros((1, 2, 1)), np.zeros((1, 2))])
    with pytest.raises(tn.ShapeError, match="matching ring bonds"):
        tn.MPS([np.zeros((2, 2, 3)), np.zeros((3, 2, 3))], boundary=mpsmod.PERIODIC)
    with pytest.raises(tn.ShapeError, match="ghz_mps"):
        tn.ghz_mps(1)
    with pytest.raises(tn.ShapeError, match="w_mps"):
        tn.w_mps(2)


def test_round_trip_exact():
    for n in (2, 3, 5):
        state = random_state(n)
        m, rep = tn.mps_from_dense(state)
        assert np.allclose(tn.to_dense(m).data, state.data, atol=1e-12)
        assert rep.fidelity == pytest.approx(1.0)
        assert all(w == 0.0 for w in rep.discarded_weights)


def test_bond_dims_respect_schmidt_bound():
    state = random_state(6)
    m, _ = tn.mps_from_dense(state)
    assert max(m.bond_dims) <= 2 ** (6 // 2)


def test_amplitude_matches_dense():
    state = random_state(4)
    m, _ = tn.mps_from_dense(state)
    for config in [(0, 0, 0, 0), (1, 0, 1, 1), (0, 1, 1, 0)]:
        assert tn.amplitude(m, config) == pytest.approx(state.data[config])
    with pytest.raises(tn.ShapeError):
        tn.amplitude(m, (0, 0, 0))
    with pytest.raises(tn.ShapeError):
        tn.amplitude(m, (0, 0, 0, 2))


def test_inner_matches_dense_overlap():
    a, b = random_state(5), random_state(5)
    ma, _ = tn.mps_from_dense(a)
    mb, _ = tn.mps_from_dense(b)
    assert tn.inner(ma, mb) == pytest.approx(np.vdot(a.data, b.data))
    assert mpsmod.norm(ma) == pytest.approx(1.0)
    with pytest.raises(tn.ShapeError, match="physical dimensions differ"):
        tn.inner(ma, tn.mps_from_dense(random_state(4))[0])
    with pytest.raises(tn.ShapeError, match="boundary conditions differ"):
        tn.inner(tn.ghz_mps(3), tn.ghz_mps(3, boundary=mpsmod.PERIODIC))


def test_ghz_open_and_periodic():
    for n in (2, 3, 4, 6):
        m = tn.ghz_mps(n)
        dense = tn.to_dense(m).data.reshape(-1)
        expect = np.zeros(2**n)
        expect[0] = expect[-1] = 1 / math.sqrt(2)
        assert np.allclose(dense, expect)
        assert all(d == 2 for d in m.bond_dims)
    ring = tn.ghz_mps(4, boundary=mpsmod.PERIODIC)
    expect = np.zeros(16)
    expect[0] = expect[-1] = 1 / math.sqrt(2)
    assert np.allclose(tn.to_dense(ring).data.reshape(-1), expect)
    assert tn.amplitude(ring, (1, 1, 1, 1)) == pytest.approx(1 / math.sqrt(2))


def test_ghz_open_beyond_the_dense_guard():
    n = 32
    m = tn.ghz_mps(n)
    assert m.boundary == mpsmod.OPEN
    assert m.bond_dims == (2,) * (n - 1)
    assert tn.amplitude(m, (0,) * n) == pytest.approx(1 / math.sqrt(2))
    assert tn.amplitude(m, (1,) * n) == pytest.approx(1 / math.sqrt(2))
    assert tn.amplitude(m, (0, 1) * (n // 2)) == 0
    assert mpsmod.norm(m) == pytest.approx(1.0)


def random_cores(bonds, d=2):
    return [rng.normal(size=(l, d, r)) + 1j * rng.normal(size=(l, d, r)) for l, r in zip(bonds, bonds[1:])]


def test_inner_periodic_matches_dense_overlap():
    for ring_a, ring_b in ((3, 3), (2, 3)):
        a = tn.MPS(random_cores([ring_a, 3, 4, 2, 3, ring_a]), mpsmod.PERIODIC)
        b = tn.MPS(random_cores([ring_b, 2, 3, 4, 2, ring_b]), mpsmod.PERIODIC)
        expect = np.vdot(tn.to_dense(a).data, tn.to_dense(b).data)
        assert tn.inner(a, b) == pytest.approx(expect, rel=1e-12)
        assert tn.inner(b, a) == pytest.approx(np.conj(expect), rel=1e-12)
        assert mpsmod.norm(a) ** 2 == pytest.approx(np.linalg.norm(tn.to_dense(a).data) ** 2, rel=1e-12)


def test_inner_at_large_bond_stays_small():
    # a 4-index environment at chi = 128 would need chi^4 complex128 = 4 GiB
    n, chi = 30, 128
    bonds = [1] + [chi] * (n - 1) + [1]
    a, b = tn.MPS(random_cores(bonds)), tn.MPS(random_cores(bonds))
    tracemalloc.start()
    try:
        value = tn.inner(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert peak < 16 * 2**20


def test_w_state():
    for n in (3, 5):
        m = tn.w_mps(n)
        dense = tn.to_dense(m).data.reshape(-1)
        expect = np.zeros(2**n)
        for k in range(n):
            expect[1 << (n - 1 - k)] = 1 / math.sqrt(n)
        assert np.allclose(dense, expect)
        assert max(m.bond_dims) == 2


def test_compression_quadratic_bound():
    for xi in (1e-1, 1e-2):
        state = random_state(8)
        m, rep = tn.mps_from_dense(state, tn.TrimPolicy.cutoff(xi))
        assert rep.fidelity >= rep.fidelity_bound - 1e-12
        n_c = sum(rep.dropped_counts)
        assert rep.fidelity_bound == pytest.approx(1.0 - n_c * xi**2)


def test_compress_existing_mps():
    state = random_state(8)
    exact, _ = tn.mps_from_dense(state)
    small, rep = tn.compress(exact, tn.TrimPolicy.max_rank(4))
    assert max(small.bond_dims) <= 4
    overlap = tn.inner(exact, small)
    assert abs(overlap) ** 2 == pytest.approx(rep.fidelity, abs=1e-10)
    assert rep.fidelity >= rep.fidelity_bound - 1e-12


def test_compress_is_renormalized():
    state = random_state(7)
    exact, _ = tn.mps_from_dense(state)
    small, _ = tn.compress(exact, tn.TrimPolicy.cutoff(0.05))
    assert mpsmod.norm(small) == pytest.approx(1.0)


def test_linear_error_bound():
    # |<phi|psi - psi'>| <= n * xi for any normalized phi
    n, xi = 8, 1e-2
    state = random_state(n)
    approx, rep = tn.mps_from_dense(state, tn.TrimPolicy.cutoff(xi))
    raw_norm = math.sqrt(max(0.0, 1.0 - sum(rep.discarded_weights)))
    diff = tn.to_dense(approx).data.reshape(-1) * raw_norm - state.data.reshape(-1)
    for _ in range(20):
        phi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        phi /= np.linalg.norm(phi)
        assert abs(np.vdot(phi, diff)) <= n * xi + 1e-12


def test_schmidt_values_match_dense():
    state = random_state(6)
    m, _ = tn.mps_from_dense(state)
    for cut in (1, 3, 5):
        s_mps = tn.schmidt_values(m, cut)
        dec = tn.schmidt(state, [f"w{k}" for k in range(cut)])
        k = min(s_mps.size, dec.coeffs.size)
        assert np.allclose(np.sort(s_mps)[::-1][:k], dec.coeffs[:k], atol=1e-10)


def test_bond_entropy_ghz():
    m = tn.ghz_mps(4)
    for cut in (1, 2, 3):
        assert tn.bond_entropy(m, cut) == pytest.approx(math.log(2), abs=1e-10)
        assert tn.bond_entropy(m, cut, q=2) == pytest.approx(math.log(2), abs=1e-10)
    with pytest.raises(tn.ShapeError):
        tn.bond_entropy(m, 0)
    zero = tn.MPS([np.zeros((1, 2, 1), dtype=complex) for _ in range(3)])
    with pytest.raises(tn.ShapeError, match="zero-norm"):
        tn.bond_entropy(zero, 1)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200])
def test_bond_entropy_does_not_depend_on_the_norm_of_the_state(scale):
    # squared Schmidt values underflowed (1e-200 was refused as a zero-norm
    # state) or overflowed (-0.0 for q=1 and inf for q=2 at 1e200)
    bell, _ = tn.mps_from_dense(tn.ket(np.array([scale, 0, 0, scale], dtype=complex), dims=[2, 2]))
    for q in (0, 1, 2):
        assert tn.bond_entropy(bell, 1, q) == pytest.approx(math.log(2), rel=0, abs=1e-12)


def test_periodic_chains_and_bras_are_refused():
    ring = tn.ghz_mps(4, boundary=mpsmod.PERIODIC)
    with pytest.raises(tn.ShapeError, match="open-boundary"):
        tn.schmidt_values(ring, 1)
    with pytest.raises(tn.ShapeError, match="open-boundary"):
        tn.compress(ring, tn.TrimPolicy.max_rank(2))
    with pytest.raises(tn.ShapeError, match="expects a ket"):
        tn.mps_from_dense(tn.bra([1, 0, 0, 0], dims=[2, 2]))


def test_product_state_bonds_are_one():
    v = np.kron(np.kron([1, 0], [0.6, 0.8]), [1 / math.sqrt(2), 1j / math.sqrt(2)])
    m, _ = tn.mps_from_dense(tn.ket(v, dims=[2, 2, 2]))
    assert m.bond_dims == (1, 1)
    for cut in (1, 2):
        assert tn.bond_entropy(m, cut) == pytest.approx(0.0, abs=1e-12)


def test_bond_entropy_of_a_product_cut_is_positive_zero():
    m, _ = tn.mps_from_dense(tn.ket([1, 0, 0, 0], dims=[2, 2]))
    h = tn.bond_entropy(m, 1)
    assert h == 0.0 and math.copysign(1.0, h) == 1.0  # it was -0.0


def test_aklt_chain_structure():
    state = tn.aklt_chain(4)
    assert [w.dim for w in state.wires] == [2, 3, 3, 3, 2]
    assert state.order == (5, 0)
    # Schmidt rank across any cut is at most 2 (valence bond structure)
    normed = state * (1.0 / state.norm())
    for cut in (1, 2, 3):
        dec = tn.schmidt(normed, [w.label for w in state.wires[:cut]])
        assert dec.rank <= 2
    with pytest.raises(tn.ShapeError):
        tn.aklt_chain(1)


def test_to_dense_guard():
    m = tn.MPS([np.zeros((1, 2, 1), dtype=complex) for _ in range(25)])
    with pytest.raises(tn.SizeLimitError):
        tn.to_dense(m)


def test_oversized_dense_state_is_refused_before_the_sweep(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("swept a state that is refused")

    monkeypatch.setattr(mpsmod, "svd_matrix", no_svd)
    state = tn.ket(np.ones(2**21), dims=[2] * 21)
    with pytest.raises(tn.SizeLimitError, match=r"dense state would have 2097152 amplitudes \(> 1048576\)"):
        tn.mps_from_dense(state)


def reference_trim_sweep(block, dims, policy, tail=None):
    """The sweep before wide cuts were QR-reduced: every cut is one SVD of
    the whole block and the carry is s . v_dag."""
    cores = []
    weights = []
    dropped = []
    for k in range(len(dims) - 1):
        rank = block.shape[0]
        u, s, v_dag = svd_matrix(block.reshape(rank * dims[k], -1))
        if policy is None:
            # exact up to numerical rank: zero singular values carry nothing
            keep = max(int(np.sum(s > RANK_TOL * s[0])), 1) if s.size else 1
        else:
            keep = policy.keep_count(s)
        weights.append(float(np.sum(s[keep:] ** 2)))
        dropped.append(s.size - keep)
        cores.append(u[:, :keep].reshape(rank, dims[k], keep))
        carry = s[:keep, np.newaxis] * v_dag[:keep, :]
        block = carry if tail is None else np.tensordot(carry, tail[k], axes=(1, 0))
    cores.append(block.reshape(-1, dims[-1], 1))
    return cores, weights, dropped


def product_state(n):
    v = np.ones(1, dtype=complex)
    for _ in range(n):
        v = np.kron(v, rng.normal(size=2) + 1j * rng.normal(size=2))
    return tn.ket(v / np.linalg.norm(v), dims=[2] * n)


def assert_same_reports(run, monkeypatch):
    """``run()`` -> (MPS, report) against the same call on the reference sweep."""
    m, rep = run()
    with monkeypatch.context() as patched:
        patched.setattr(mpsmod, "_trim_sweep", reference_trim_sweep)
        ref_m, ref = run()
    assert rep.bond_dims == ref.bond_dims and rep.dropped_counts == ref.dropped_counts
    assert np.allclose(rep.discarded_weights, ref.discarded_weights, rtol=0, atol=1e-12)
    assert rep.fidelity == pytest.approx(ref.fidelity, rel=0, abs=1e-12)
    assert rep.fidelity_bound == pytest.approx(ref.fidelity_bound, rel=0, abs=1e-12)
    assert np.allclose(tn.to_dense(m).data, tn.to_dense(ref_m).data, rtol=0, atol=1e-12)


def test_qr_reduced_sweep_matches_the_reference_sweep(monkeypatch):
    policies = [tn.TrimPolicy.max_rank(3), tn.TrimPolicy.max_rank(16), tn.TrimPolicy.cutoff(0.02),
                tn.TrimPolicy.cutoff(0.05, relative=True)]
    for n in (6, 9, 11, 14):
        state = random_state(n)
        for policy in policies:
            assert_same_reports(lambda: tn.mps_from_dense(state, policy), monkeypatch)
        cores = random_cores([1] + [min(2**k, 2 ** (n - k), 32) for k in range(1, n)] + [1])
        exact = tn.MPS(cores)
        exact.cores[-1] = exact.cores[-1] / mpsmod.norm(exact)
        for policy in policies:
            assert_same_reports(lambda: tn.compress(exact, policy), monkeypatch)
    # exact factorization of rank-deficient states: zero singular values must
    # be dropped at the same cuts
    for n in (6, 10, 13):
        for state in (tn.to_dense(tn.ghz_mps(n)), tn.to_dense(tn.w_mps(n)), product_state(n)):
            assert_same_reports(lambda: tn.mps_from_dense(state), monkeypatch)
        assert_same_reports(lambda: tn.compress(tn.ghz_mps(n), tn.TrimPolicy.max_rank(2)), monkeypatch)


def test_square_and_tall_cuts_are_unchanged_bit_for_bit(monkeypatch):
    chain = tn.MPS(random_cores([1, 2, 4, 8, 4, 2, 1]))  # cuts of 2x2, 4x4, 8x8, then tall
    for policy in (tn.TrimPolicy.max_rank(8), tn.TrimPolicy.max_rank(4), tn.TrimPolicy.cutoff(0.3)):
        m, rep = tn.compress(chain, policy)
        with monkeypatch.context() as patched:
            patched.setattr(mpsmod, "_trim_sweep", reference_trim_sweep)
            ref_m, ref = tn.compress(chain, policy)
        assert rep == ref
        assert all(np.array_equal(a, b) for a, b in zip(m.cores, ref_m.cores))


def test_every_cut_is_one_svd_of_a_tall_or_square_matrix(monkeypatch):
    shapes = []

    def recorded(m):
        shapes.append(m.shape)
        return svd_matrix(m)

    monkeypatch.setattr(mpsmod, "svd_matrix", recorded)
    for n, chi in ((12, 8), (13, 32)):
        shapes.clear()
        m, _ = tn.mps_from_dense(random_state(n), tn.TrimPolicy.max_rank(chi))
        assert len(shapes) == n - 1 and all(rows >= cols for rows, cols in shapes)
        assert shapes[0] == (2, 2)  # the first cut, 2 x 2^(n-1), is reduced
        shapes.clear()
        tn.compress(m, tn.TrimPolicy.max_rank(chi // 4))
        assert len(shapes) == n - 1 and all(rows >= cols for rows, cols in shapes)
    # every wide cut of a cutoff or exact sweep, and a qutrit prefix
    own = np.random.default_rng(18)
    for dims, policies in (((2,) * 12, (None, tn.TrimPolicy.cutoff(0.02), tn.TrimPolicy.cutoff(0.05, relative=True))),
                           ((3,) * 7, (tn.TrimPolicy.max_rank(5),))):
        v = own.normal(size=math.prod(dims)) + 1j * own.normal(size=math.prod(dims))
        state = tn.ket(v / np.linalg.norm(v), dims=list(dims))
        for policy in policies:
            shapes.clear()
            tn.mps_from_dense(state, policy)
            assert len(shapes) == len(dims) - 1 and all(rows >= cols for rows, cols in shapes)


def reference_schmidt_values(m, cut):
    """schmidt_values with both QR sweeps forming Q."""
    carry = np.eye(1, dtype=complex)
    for k in range(cut):
        c = np.tensordot(carry, m.cores[k], axes=(1, 0))
        l, p, r = c.shape
        q, carry = np.linalg.qr(c.reshape(l * p, r))
    r_left = carry
    carry = np.eye(1, dtype=complex)
    for k in range(len(m) - 1, cut - 1, -1):
        c = np.tensordot(m.cores[k], carry, axes=(2, 0))
        l, p, r = c.shape
        q, rr = np.linalg.qr(c.reshape(l, p * r).conj().T)
        carry = rr.conj().T
    return np.linalg.svd(r_left @ carry, compute_uv=False)


def test_schmidt_values_equal_the_q_forming_sweeps_bitwise():
    n = 10
    m = tn.MPS(random_cores([1] + [min(2**k, 2 ** (n - k), 16) for k in range(1, n)] + [1]))
    for cut in range(1, n):
        assert np.array_equal(tn.schmidt_values(m, cut), reference_schmidt_values(m, cut))


def test_every_cut_takes_one_qr_sweep_each_way(monkeypatch):
    # each cut ran its own left and right sweep: n^2 - n QRs for every cut
    calls = []
    qr = np.linalg.qr

    def counted(a, mode="reduced"):
        calls.append((a.shape, mode))
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", counted)
    gen = np.random.default_rng(16)  # its own stream: later tests keep their draws of rng
    for n in (2, 5, 10, 40):
        bonds = [1] + [min(2**k, 2 ** (n - k), 8) for k in range(1, n)] + [1]
        m = tn.ghz_mps(n) if n == 40 else tn.MPS([gen.normal(size=(l, 2, r)) + 1j * gen.normal(size=(l, 2, r))
                                                  for l, r in zip(bonds, bonds[1:])])
        calls.clear()
        spectra = list(mpsmod._schmidt_spectra(m))
        assert len(spectra) == n - 1 and len(calls) <= 2 * (n - 1)
        assert {mode for _, mode in calls} == {"r"}  # neither sweep forms a Q
        for cut, s in enumerate(spectra, start=1):
            assert np.array_equal(s, reference_schmidt_values(m, cut))
        calls.clear()
        tn.schmidt_values(m, n // 2)
        assert len(calls) == n and {mode for _, mode in calls} == {"r"}


def test_every_cut_of_a_400_site_ghz_state_in_one_sweep():
    # 4.6-6.4 s on 2 vCPUs when every cut ran its own pair of sweeps
    m = tn.ghz_mps(400)
    start = time.perf_counter()
    entropies = [mpsmod._entropy(s, 1.0) for s in mpsmod._schmidt_spectra(m)]
    assert time.perf_counter() - start < 1.0
    assert len(entropies) == 399
    assert entropies == pytest.approx([math.log(2)] * 399, rel=0, abs=1e-12)


def test_zero_state_is_refused_before_the_sweep(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("swept a zero state")

    monkeypatch.setattr(mpsmod, "svd_matrix", no_svd)
    for policy in (None, tn.TrimPolicy.max_rank(2)):
        with pytest.raises(tn.ShapeError, match="zero-norm state"):
            tn.mps_from_dense(tn.ket(np.zeros(4), dims=[2, 2]), policy)
    with pytest.raises(tn.ShapeError, match="zero-norm state"):
        tn.compress(tn.MPS([np.zeros((1, 2, 1), dtype=complex) for _ in range(3)]), tn.TrimPolicy.max_rank(2))


def test_states_past_the_float_range_are_refused_before_the_sweep(monkeypatch):
    # the norm raised OverflowError, which the CLI reads as a numerical failure
    def no_svd(*args, **kwargs):
        raise AssertionError("swept a state past the float range")

    monkeypatch.setattr(mpsmod, "svd_matrix", no_svd)
    for amps in (np.full(4, 1.5e308), [np.nan, 0, 0, 1], [np.inf, 0, 0, 1]):
        for policy in (None, tn.TrimPolicy.max_rank(1)):
            with pytest.raises(tn.ShapeError, match="not a finite float"):
                tn.mps_from_dense(tn.ket(amps, dims=[2, 2]), policy)
    for core in (np.full((1, 2, 1), 1e200, dtype=complex), np.full((1, 2, 1), np.nan, dtype=complex)):
        with pytest.raises(tn.ShapeError, match="not a finite float"):  # 1e200: the norm 2.8e600 overflows
            tn.compress(tn.MPS([core] * 3), tn.TrimPolicy.max_rank(1))


def test_unnormalized_state_reports_fractions_of_its_squared_norm():
    # 2|00> + 2|11>: squared norm 8, Schmidt values 2 and 2
    state = tn.ket(np.array([2, 0, 0, 2], dtype=complex), dims=[2, 2])
    _, rep = tn.mps_from_dense(state)
    assert rep.fidelity == pytest.approx(1.0)
    assert rep.discarded_weights == (0.0,) and rep.fidelity_bound == 1.0
    _, rep = tn.mps_from_dense(state, tn.TrimPolicy.max_rank(1))
    assert rep.discarded_weights == pytest.approx((0.5,))
    assert rep.fidelity_bound == pytest.approx(0.5) and rep.fidelity == pytest.approx(0.5)
    # 2|00> + 0.2|11> cut at xi = 0.5: weight 0.04 and xi^2 = 0.25, both of 4.04
    _, rep = tn.mps_from_dense(tn.ket(np.array([2, 0, 0, 0.2], dtype=complex), dims=[2, 2]), tn.TrimPolicy.cutoff(0.5))
    assert rep.discarded_weights == pytest.approx((0.04 / 4.04,))
    assert rep.fidelity_bound == pytest.approx(1 - 0.25 / 4.04)
    assert rep.fidelity == pytest.approx(4 / 4.04)


@pytest.mark.parametrize("scale", [1e-3, 3.0, 1e4])
def test_reports_do_not_depend_on_the_norm_of_the_input(scale):
    state = random_state(7)
    big = state * scale
    exact, big_exact = tn.mps_from_dense(state)[0], tn.mps_from_dense(big)[0]
    for policy, scaled in [(None, None), (tn.TrimPolicy.max_rank(3), tn.TrimPolicy.max_rank(3)),
                           (tn.TrimPolicy.cutoff(0.05), tn.TrimPolicy.cutoff(0.05 * scale)),
                           (tn.TrimPolicy.cutoff(0.1, relative=True), tn.TrimPolicy.cutoff(0.1, relative=True))]:
        _, rep = tn.mps_from_dense(state, policy)
        _, big_rep = tn.mps_from_dense(big, scaled)
        assert big_rep.bond_dims == rep.bond_dims and big_rep.dropped_counts == rep.dropped_counts
        assert np.allclose(big_rep.discarded_weights, rep.discarded_weights, rtol=1e-9, atol=1e-12)
        assert big_rep.fidelity_bound == pytest.approx(rep.fidelity_bound, rel=1e-9)
        assert big_rep.fidelity == pytest.approx(rep.fidelity, rel=1e-9)
        if policy is not None:
            _, rep = tn.compress(exact, policy)
            _, big_rep = tn.compress(big_exact, scaled)
            assert big_rep.bond_dims == rep.bond_dims
            assert np.allclose(big_rep.discarded_weights, rep.discarded_weights, rtol=1e-9, atol=1e-12)
            assert big_rep.fidelity_bound == pytest.approx(rep.fidelity_bound, rel=1e-9)
            assert big_rep.fidelity == pytest.approx(rep.fidelity, rel=1e-9)


@pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300, 1e200])
def test_states_far_from_unit_norm_are_swept_scaled(scale):
    # squares of 1e-160 amplitudes underflow: a Bell state got fidelity 0.0
    bell = tn.ket(np.array([scale, 0, 0, scale], dtype=complex), dims=[2, 2])
    m, rep = tn.mps_from_dense(bell)
    assert rep.fidelity == pytest.approx(1.0, rel=0, abs=1e-12) and rep.fidelity_bound == 1.0
    assert np.allclose(tn.to_dense(m).data, bell.data, rtol=0, atol=1e-14 * scale)
    state = random_state(7)
    big = state * scale
    m, _ = tn.mps_from_dense(big)
    assert np.allclose(tn.to_dense(m).data, big.data, rtol=0, atol=1e-12 * scale)
    exact = tn.mps_from_dense(state)[0]
    # compress of a tiny MPS reported fidelity 0.5331 for 0.5337 at 1e-160,
    # refused 1e-200 as a zero-norm state, and reported NaN at 1e200
    big_mps = [m, tn.MPS([exact.cores[0] * scale, *exact.cores[1:]])]  # the scale in the last core, then the first
    for policy, scaled in [(None, None), (tn.TrimPolicy.max_rank(3), tn.TrimPolicy.max_rank(3)),
                           (tn.TrimPolicy.cutoff(0.05), tn.TrimPolicy.cutoff(0.05 * scale)),
                           (tn.TrimPolicy.cutoff(0.1, relative=True), tn.TrimPolicy.cutoff(0.1, relative=True))]:
        pairs = [(tn.mps_from_dense(state, policy)[1], tn.mps_from_dense(big, scaled)[1])]
        if policy is not None:
            pairs += [(tn.compress(exact, policy)[1], tn.compress(b, scaled)[1]) for b in big_mps]
        for rep, big_rep in pairs:
            assert big_rep.bond_dims == rep.bond_dims and big_rep.dropped_counts == rep.dropped_counts
            assert np.allclose(big_rep.discarded_weights, rep.discarded_weights, rtol=1e-9, atol=1e-12)
            assert big_rep.fidelity_bound == pytest.approx(rep.fidelity_bound, rel=1e-9)
            assert big_rep.fidelity == pytest.approx(rep.fidelity, rel=1e-9)


@pytest.mark.parametrize("scale, xi", [(1e-300, 1e-5), (1e-320, 0.1)])
def test_tiny_states_name_the_given_cutoff_that_discards_everything(scale, xi):
    # the cutoff divided by 2^e named 6.7e294 for 1e-5 at 1e-300, and at
    # 1e-320 the division overflowed: OverflowError, "math range error"
    bell = tn.ket(np.array([scale, 0, 0, scale], dtype=complex), dims=[2, 2])
    exact, _ = tn.mps_from_dense(bell)
    policy = tn.TrimPolicy.cutoff(xi)
    message = f"cutoff {xi} discards every singular value"
    with pytest.raises(tn.DegenerateTrimError, match=message):
        tn.mps_from_dense(bell, policy)
    with pytest.raises(tn.DegenerateTrimError, match=message):
        tn.compress(exact, policy)
    # a state without cuts trims nothing, at any cutoff: its report is the unit state's
    one = tn.ket(np.array([scale, scale], dtype=complex), dims=[2])
    _, rep = tn.mps_from_dense(one, policy)
    _, unit = tn.mps_from_dense(tn.ket(np.array([1, 1], dtype=complex), dims=[2]), tn.TrimPolicy.cutoff(1e6))
    assert (rep.bond_dims, rep.dropped_counts, rep.fidelity_bound) == (unit.bond_dims, unit.dropped_counts, 1.0)
    assert rep.fidelity == pytest.approx(1.0, rel=0, abs=1e-12)


def test_states_near_unit_norm_are_swept_unscaled(monkeypatch):
    # 64 amplitudes of modulus 1/8: the float norm is exactly 1, so the scaled
    # states below are at the ends of NORM_RANGE, not a rounding outside them
    state = tn.ket(rng.choice([1, -1, 1j, -1j], size=64) / 8, dims=[2] * 6)
    assert state.norm() == 1.0
    m, _ = tn.mps_from_dense(state)
    with monkeypatch.context() as patched:
        for module in (mpsmod, tensormod):
            patched.setattr(module, "_times_pow2", lambda *args: pytest.fail("scaled a state inside NORM_RANGE"))
        same, _ = tn.mps_from_dense(state)
        for scale in tensormod.NORM_RANGE:  # the fidelity divides by the norm before it squares
            _, rep = tn.mps_from_dense(state * scale)
            assert rep.fidelity == pytest.approx(1.0, rel=0, abs=1e-12)
    assert all(np.array_equal(a, b) for a, b in zip(m.cores, same.cores))


# -- the untrimmed prefix of a max-rank sweep ----------------------------


def test_the_untrimmed_prefix_reduces_the_state_once(monkeypatch):
    sizes = []
    r_factor = mpsmod._r_factor

    def recorded(a):
        sizes.append(a.size)
        return r_factor(a)

    monkeypatch.setattr(mpsmod, "_r_factor", recorded)
    for n, chi in ((12, 8), (13, 32)):
        sizes.clear()
        tn.mps_from_dense(random_state(n), tn.TrimPolicy.max_rank(chi))
        assert sizes.count(2**n) == 1 and max(sizes) == 2**n


def test_first_trim_finds_the_first_wide_cut_a_max_rank_can_trim():
    qutrits, mixed = (3,) * 7, (2, 3, 2, 3, 2, 3, 2)  # rows 3, 9, 27, 81, ...; 2, 6, 12, 36, 72, ...
    assert [mpsmod._first_trim(1, qutrits, 0, tn.TrimPolicy.max_rank(chi)) for chi in (1, 2, 3, 5, 24, 50, 3**7)] == \
        [0, 0, 1, 1, 2, 0, 0]  # cut 0 trims at once; 81 x 27 at chi = 50 is tall
    assert [mpsmod._first_trim(1, mixed, 0, tn.TrimPolicy.max_rank(chi)) for chi in (2, 3, 5, 8, 24, 432)] == \
        [1, 1, 1, 2, 0, 0]  # 36 x 12 at chi = 24 is tall
    # from cut 1 with a left bond of 2: rows 6, 18, 54, 162 against columns 243, 81, 27, 9
    assert [mpsmod._first_trim(2, qutrits, 1, tn.TrimPolicy.max_rank(chi)) for chi in (5, 6, 17, 18, 54, 10**6)] == \
        [1, 2, 2, 1, 1, 1]  # 54 x 27 at chi = 18 is tall
    # from cut 1 of the mixed dims with a left bond of 2: rows 6, 12, 36, 72 against columns 72, 24, 12, 6
    assert [mpsmod._first_trim(2, mixed, 1, tn.TrimPolicy.max_rank(chi)) for chi in (5, 6, 11, 12, 10**6)] == \
        [1, 2, 2, 1, 1]  # 36 x 12 at chi = 12 is tall
    assert mpsmod._first_trim(4, qutrits, 5, tn.TrimPolicy.max_rank(2)) == 5  # the last cut
    for policy in (None, tn.TrimPolicy.cutoff(0.1), tn.TrimPolicy.cutoff(0.1, relative=True)):
        for rank, k in ((1, 0), (2, 3), (8, 7)):
            assert mpsmod._first_trim(rank, (2,) * 10, k, policy) == k


def test_prefix_sweep_matches_the_reference_sweep_on_qudits(monkeypatch):
    for dims, chis in (((3,) * 7, (2, 3, 5, 24, 50, 3**7)), ((2, 3, 2, 3, 2, 3, 2), (2, 3, 5, 8, 24, 432))):
        v = rng.normal(size=math.prod(dims)) + 1j * rng.normal(size=math.prod(dims))
        state = tn.ket(v / np.linalg.norm(v), dims=list(dims))
        for chi in chis:
            assert_same_reports(lambda: tn.mps_from_dense(state, tn.TrimPolicy.max_rank(chi)), monkeypatch)


# -- the blocked R-only QR of wide cuts ---------------------------------


def test_r_factor_of_uneven_blocks(monkeypatch):
    monkeypatch.setattr(mpsmod, "QR_BLOCK", 64)
    shapes = []
    qr = np.linalg.qr

    def recorded(a, mode):
        shapes.append(a.shape)
        return qr(a, mode=mode)

    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "qr", recorded)
        mpsmod._r_factor(np.ones((45, 6)))
    # 64 // 6 = 10 rows per block: blocks of 10, 10, 10, 10 and a last one
    # of 5 rows, fewer than its 6 columns, then the QR of their stacked Rs
    assert shapes == [(10, 6)] * 4 + [(5, 6), (4 * 6 + 5, 6)]
    # 64 // 20 < 20 gives blocks of 20 rows
    for rows, cols in ((45, 6), (41, 6), (50, 20), (10, 6), (7, 7), (300, 1)):
        a = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        r = mpsmod._r_factor(a)
        gram = a.conj().T @ a
        assert r.shape == (cols, cols) and np.array_equal(r, np.triu(r))
        assert np.linalg.norm(r.conj().T @ r - gram) <= 1e-12 * np.linalg.norm(gram)
    a = rng.normal(size=(10, 6)) + 0j  # 60 elements: one block, the direct call
    assert np.array_equal(mpsmod._r_factor(a), np.linalg.qr(a, mode="r"))


def recorded_sweep(run, monkeypatch):
    """``run()`` -> (MPS, report), and the singular values of every cut."""
    values = []

    def recorded(m):
        u, s, v_dag = svd_matrix(m)
        values.append(s)
        return u, s, v_dag

    with monkeypatch.context() as patched:
        patched.setattr(mpsmod, "svd_matrix", recorded)
        m, rep = run()
    return m, rep, values


def test_blocked_qr_sweep_matches_the_one_block_sweep(monkeypatch):
    policies = [None, tn.TrimPolicy.max_rank(3), tn.TrimPolicy.max_rank(16), tn.TrimPolicy.cutoff(0.02)]
    for n in (8, 10, 12):
        states = {"random": random_state(n), "product": product_state(n),
                  "ghz": tn.to_dense(tn.ghz_mps(n)), "w": tn.to_dense(tn.w_mps(n))}
        for kind, state in states.items():
            for policy in policies:
                m, rep, values = recorded_sweep(lambda: tn.mps_from_dense(state, policy), monkeypatch)
                with monkeypatch.context() as patched:
                    patched.setattr(mpsmod, "QR_BLOCK", 2**6)  # every wide cut of over 64 elements is blocked
                    blocked, brep = tn.mps_from_dense(state, policy)
                assert brep.bond_dims == rep.bond_dims and brep.dropped_counts == rep.dropped_counts
                assert np.allclose(brep.discarded_weights, rep.discarded_weights, rtol=0, atol=1e-12)
                assert brep.fidelity == pytest.approx(rep.fidelity, rel=0, abs=1e-12)
                assert np.allclose(tn.to_dense(blocked).data, tn.to_dense(m).data, rtol=0, atol=1e-12)
                if kind in ("ghz", "w"):
                    continue  # degenerate Schmidt values: any basis of their span is right
                for core, ref, s in zip(blocked.cores, m.cores, values):
                    # a kept, numerically zero singular value has an arbitrary vector
                    live = s[:ref.shape[2]] > RANK_TOL * s[0]
                    assert np.allclose(core[..., live], ref[..., live], rtol=0, atol=1e-10)


# -- densifying ----------------------------------------------------------


def reference_to_dense(m):
    """to_dense as one tensordot chain, tracing the ring at the end."""
    acc = m.cores[0]  # (l0, phys..., r)
    for c in m.cores[1:]:
        acc = np.tensordot(acc, c, axes=([-1], [0]))
    if m.boundary == mpsmod.PERIODIC:
        acc = np.trace(acc, axis1=0, axis2=acc.ndim - 1)
    else:
        acc = acc.reshape(m.phys_dims)
    return acc


def test_half_chain_to_dense_matches_the_tensordot_chain():
    for n in range(1, 8):
        for d in (2, 3):
            inner_bonds = list(rng.integers(1, 5, size=n - 1))
            chains = [tn.MPS(random_cores([1, *inner_bonds, 1], d))]
            chains += [tn.MPS(random_cores([ring, *inner_bonds, ring], d), mpsmod.PERIODIC) for ring in (1, 2, 3)]
            for m in chains:
                dense, ref = tn.to_dense(m), reference_to_dense(m)
                assert dense.data.shape == ref.shape == (d,) * n
                assert [w.label for w in dense.wires] == [f"s{k}" for k in range(n)]
                assert np.allclose(dense.data, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


def test_to_dense_holds_little_beyond_its_output():
    n, chi = 18, 32
    m = tn.MPS(random_cores([1] + [min(2**k, 2 ** (n - k), chi) for k in range(1, n)] + [1]))
    tracemalloc.start()
    try:
        dense = tn.to_dense(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * dense.data.nbytes
