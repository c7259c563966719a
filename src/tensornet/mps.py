"""Matrix product states: exact factorization by recursive SVD,
truncation with quantified error, amplitude evaluation, named states, and
bond entropies.

Cores are order-3 arrays with axes (left bond, physical, right bond).
Factorization and compression share one left-to-right SVD/trim sweep that
absorbs the kept singular values into the right factor at every cut.  Its
one step for a wide cut (fewer rows than columns) sweeps the cuts up to
the first one that can trim on one R factor: the state's matrix there is
reduced to the triangular factor R of a QR of its transpose, those cuts
of R have the state's cores and singular values, and one product with
the chain of their cores gives the carry.  Under a max rank chi the
cuts before the first with more than chi rows keep every value, so a
dense state is reduced once for all of them; a wide cut that can trim at
once (every wide cut under a cutoff, and in ``compress``) is the case of
one cut.  That R comes from a sequential TSQR: R-only QRs of row blocks
of about ``QR_BLOCK`` elements, stacked, and one more R-only QR of the
stack.  Tall and square cuts take one SVD of the cut itself.
Both sweeps scale their input by the one rule of ``tensor._unit``: a
state whose norm is outside ``tensor.NORM_RANGE`` is swept divided by a
power of two (for ``compress``, the one core of its right-canonical form
that carries the norm), and each fidelity divides the overlap by both
norms before it squares.
``compress`` trims the cores of one right-to-left QR sweep
(``_right_canonical``, which returns only the cores).  The Schmidt values
take their own right-to-left sweep of R-only QRs, which keeps each cut's
R^dagger, and one left sweep of R-only QRs then gives every cut's values
as the singular values of R_left R^dagger, so all n-1 cuts take 2(n-1)
QRs and one cut takes n.
Densifying contracts the left and the right half of the chain as two
matrix chains and joins them with one matrix product, which also traces
the ring bonds of a periodic chain.
Overlaps and norms are zipper contractions: a 2-index environment per
boundary pair, grown site by site at O(D^2 chi^3 d) per site (D the ring
bond, 1 for open chains), so no chi^4 array is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import catalog
from .decomp import TrimPolicy, renyi_entropy, schmidt_rank, svd_matrix
from .errors import DegenerateTrimError, ShapeError, SizeLimitError
from .network import from_terms
from .tensor import UPPER, Tensor, WireSpec, _adopt, _times_pow2, _unit, raise_wire

OPEN = "open"
PERIODIC = "periodic"

DENSE_GUARD = 2**20  # refuse to densify anything larger than this
# elements per row block of the TSQR of a wide cut; a cut of at most this
# many elements takes one direct QR (see CHANGES.md for the timing table)
QR_BLOCK = 2**15


@dataclass
class MPS:
    cores: list[np.ndarray]
    boundary: str = OPEN

    def __post_init__(self):
        if self.boundary not in (OPEN, PERIODIC):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if not self.cores:
            raise ShapeError("MPS needs at least one core")
        for k, c in enumerate(self.cores):
            if c.ndim != 3:
                raise ShapeError(f"core {k} has {c.ndim} axes, expected 3")
        for k in range(len(self.cores) - 1):
            if self.cores[k].shape[2] != self.cores[k + 1].shape[0]:
                raise ShapeError(f"bond mismatch between cores {k} and {k + 1}")
        if self.boundary == OPEN:
            if self.cores[0].shape[0] != 1 or self.cores[-1].shape[2] != 1:
                raise ShapeError("open MPS requires boundary bond dimension 1")
        elif self.cores[0].shape[0] != self.cores[-1].shape[2]:
            raise ShapeError("periodic MPS requires matching ring bonds")

    def __len__(self) -> int:
        return len(self.cores)

    @property
    def phys_dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        """Internal bond dimensions (between consecutive sites)."""
        return tuple(c.shape[2] for c in self.cores[:-1])


@dataclass
class CompressionReport:
    bond_dims: tuple[int, ...]
    discarded_weights: tuple[float, ...]  # per internal cut
    fidelity_bound: float
    fidelity: float
    dropped_counts: tuple[int, ...] = field(default=())


# -- construction ------------------------------------------------------


def mps_from_dense(state: Tensor, policy: TrimPolicy | None = None) -> tuple[MPS, CompressionReport]:
    """Factor a dense ket into an open-boundary MPS by recursive SVD.

    ``policy=None`` keeps every singular value (exact factorization);
    otherwise each cut is trimmed and the final state is renormalized.
    The fidelity is (|<m|psi>| / (||m|| ||psi||))^2 either way, and each
    discarded weight is a fraction of ||psi||^2.  The state is swept as
    :func:`_unit_sweep` scales it; an exact factorization then gets its
    last core multiplied back by 2^e.
    """
    if any(w.flavor is not UPPER for w in state.wires):
        raise ShapeError("mps_from_dense expects a ket (all wires UPPER)")
    dims = [w.dim for w in state.wires]
    _check_dense(dims)  # the fidelity below densifies the result
    m, rep, e = _unit_sweep(state.data.reshape(1, -1), dims, policy, None,
                            lambda m, unit, e: np.vdot(to_dense(m).data, unit))
    if policy is None and e:
        m.cores[-1] = _times_pow2(m.cores[-1], e)
    return m, rep


def _unit_sweep(block: np.ndarray, dims: Sequence[int], policy: TrimPolicy | None,
                tail: Sequence[np.ndarray] | None, overlap) -> tuple[MPS, CompressionReport, int]:
    """:func:`_trim_sweep` of ``block / 2^e`` as ``tensor._unit`` scales
    it, with an absolute cutoff divided by 2^e alike, so that no power of
    the norm below underflows or overflows.  Where that division
    overflows, the cutoff is inf: past every singular value of the scaled
    block, as the given one is past every singular value of ``block``.  A
    cutoff that discards every singular value is named as given.  A zero
    or non-finite norm is refused before any SVD.  The cores are renormalized unless ``policy`` is None, and
    the fidelity is (|overlap(m, block / 2^e, e)| / (||m||
    ||block / 2^e||))^2, ``overlap`` giving the overlap of the result with
    the scaled input.  Returns the MPS, its report and e.
    """
    unit, size, e = _unit(block)
    if size == 0:
        raise ShapeError("zero-norm state: its squared norm is 0, so it has no fidelity")
    if not math.isfinite(size):
        raise ShapeError(f"state norm is {size}: not a finite float")
    given = policy
    if e and policy is not None and policy.xi is not None and not policy.relative:
        try:
            policy = TrimPolicy.cutoff(math.ldexp(policy.xi, -e))
        except OverflowError:
            policy = TrimPolicy.cutoff(math.inf)
    try:
        cores, weights, dropped = _trim_sweep(unit, dims, policy, tail)
    except DegenerateTrimError:
        if policy is given:
            raise
        raise DegenerateTrimError(f"cutoff {given.xi} discards every singular value") from None
    m = MPS(cores)
    nrm = norm(m)
    if policy is not None and nrm > 0:  # renormalize: ||m|| is then 1
        cores[-1] = cores[-1] / nrm
        nrm = 1.0
    fid = (abs(overlap(m, unit, e)) / (nrm * size)) ** 2
    return m, _report(m, policy, weights, dropped, size**2, fid), e


def _trim_sweep(block: np.ndarray, dims: Sequence[int], policy: TrimPolicy | None,
                tail: Sequence[np.ndarray] | None = None) -> tuple[list[np.ndarray], list[float], list[int]]:
    """Left-to-right SVD sweep that trims every cut.

    ``block`` holds the first site and everything right of it with the
    left bond as its first axis.  Each step starts at a cut k with left
    bond r and sweeps cuts k to ``stop``, the cut :func:`_first_trim`
    gives: under a max rank chi, the first cut with more than chi rows if
    that cut is wide, else k.  ``mat`` is the state's matrix at ``stop``,
    with r prod(dims[k:stop+1]) rows (left bond and sites).

    A tall or square ``mat`` (then stop = k) is split as ``u s v_dag`` and
    the kept carry ``s . v_dag`` becomes the rest of the state.  A wide
    ``mat`` is reduced once, ``mat.T = Q R`` by the blocked R-only QR of
    :func:`_r_factor`, and cuts k to ``stop`` are swept on ``R.T``, read
    as left bond r, sites k to ``stop`` and one site of ``rows`` states.
    At each of these cuts the state's matrix is ``R.T``'s times the
    isometry ``I (x) Q.T`` on the right, so the cores, singular values,
    keep counts and weights are the same.  The carry is then
    ``L^dagger . mat``, ``L`` the chain product of those cores.  A wide
    cut that can trim at once is the case stop = k, as is every wide cut
    under a cutoff or ``policy=None``.  So ``svd_matrix`` runs once per
    cut and never on a wide matrix.

    If ``tail`` (the cores right of the first) is given, stop = k and each
    carry is absorbed into the next core instead.  ``policy=None`` keeps
    every singular value above the numerical rank.  Returns the cores, the
    discarded weight and the dropped count per cut.
    """
    cores: list[np.ndarray] = []
    weights: list[float] = []
    dropped: list[int] = []
    k = 0
    while k < len(dims) - 1:
        rank = block.shape[0]
        stop = k if tail is not None else _first_trim(rank, dims, k, policy)
        mat = block.reshape(rank * math.prod(dims[k:stop + 1]), -1)
        rows = mat.shape[0]
        if rows < mat.shape[1]:
            # mat = R.T Q.T with Q.T's rows orthonormal; Q is never formed
            part, w, d = _trim_sweep(_r_factor(mat.T).T.reshape(rank, -1), [*dims[k:stop + 1], rows], policy)
            part.pop()  # the carry of R.T; the state's is formed from mat
            carry = _left_chain(part, rank).reshape(rows, -1).conj().T @ mat
        else:
            u, s, v_dag = svd_matrix(mat)
            if policy is None:
                # exact up to numerical rank: zero singular values carry nothing
                keep = max(schmidt_rank(s), 1)
            else:
                keep = policy.keep_count(s)
            part, w, d = [u[:, :keep].reshape(rank, dims[k], keep)], [float(np.sum(s[keep:] ** 2))], [s.size - keep]
            carry = s[:keep, np.newaxis] * v_dag[:keep, :]
        cores += part
        weights += w
        dropped += d
        block = carry if tail is None else np.tensordot(carry, tail[stop], axes=(1, 0))
        k = stop + 1
    cores.append(block.reshape(-1, dims[-1], 1))
    return cores, weights, dropped


def _first_trim(rank: int, dims: Sequence[int], k: int, policy: TrimPolicy | None) -> int:
    """The last cut that one R factor sweeps from cut k with left bond
    ``rank``: under a max-rank ``policy``, the first cut from k with more
    than chi rows rank prod(dims[k:stop+1]), if it is wide; otherwise k.
    Each cut before it has at most chi rows and keeps them all."""
    if policy is None or policy.chi is None:
        return k
    rows = rank
    for stop in range(k, len(dims) - 1):
        rows *= dims[stop]
        if rows > policy.chi:
            return stop if rows < math.prod(dims[stop + 1:]) else k
    return k


def _r_factor(a: np.ndarray) -> np.ndarray:
    """R of ``a = Q R`` for a tall ``a`` (rows >= columns), by a flat
    sequential TSQR: the R-only QR of each row block of about ``QR_BLOCK``
    elements (and at least as many rows as columns), then the R-only QR of
    the stacked block factors.  ``R^H R = a^H a`` either way; ``a`` that
    fits in one block takes the direct call.
    """
    rows, cols = a.shape
    step = max(QR_BLOCK // cols, cols)
    if rows <= step:
        return np.linalg.qr(a, mode="r")
    parts = [np.linalg.qr(a[i:i + step], mode="r") for i in range(0, rows, step)]
    return np.linalg.qr(np.concatenate(parts), mode="r")


def _report(m: MPS, policy: TrimPolicy | None, weights: list[float], dropped: list[int], norm2: float,
            fid: float) -> CompressionReport:
    """The report of a sweep of a state of squared norm ``norm2``: its
    absolute discarded weights become fractions of ``norm2``, and so does
    the xi^2 of the quadratic fidelity bound of an absolute cutoff."""
    weights = [float(w / norm2) for w in weights]
    if policy is not None and policy.xi is not None and not policy.relative:
        # quadratic bound: |<psi|psi''>|^2 >= 1 - sum_cuts n_c xi^2 / ||psi||^2;
        # with nothing dropped it is 1, for a cutoff whose square overflows too
        bound = 1.0 - policy.xi**2 * sum(dropped) / norm2 if any(dropped) else 1.0
    else:
        bound = 1.0 - sum(weights)
    return CompressionReport(m.bond_dims, tuple(weights), float(bound), float(fid), tuple(dropped))


# -- evaluation --------------------------------------------------------


def amplitude(m: MPS, config: Sequence[int]) -> complex:
    """Component of the state at the given physical configuration."""
    if len(config) != len(m):
        raise ShapeError(f"config has {len(config)} entries for {len(m)} sites")
    for k, (s, d) in enumerate(zip(config, m.phys_dims)):
        if not 0 <= s < d:
            raise ShapeError(f"config[{k}] = {s} out of range for dim {d}")
    prod = m.cores[0][:, config[0], :]
    for k in range(1, len(m)):
        prod = prod @ m.cores[k][:, config[k], :]
    if m.boundary == PERIODIC:
        return complex(np.trace(prod))
    return complex(prod[0, 0])


def _check_dense(phys_dims: Sequence[int]) -> None:
    total = math.prod(phys_dims)
    if total > DENSE_GUARD:
        raise SizeLimitError(f"dense state would have {total} amplitudes (> {DENSE_GUARD})")


def to_dense(m: MPS) -> Tensor:
    """Full state vector as a Tensor; guarded against huge outputs.

    The left half of the chain is contracted left to right into a matrix
    with rows (ring bond, left sites) and the right half right to left into
    one with rows (middle bond) and columns (right sites, ring bond).  One
    matrix product over the (ring bond, middle bond) pairs joins them and
    traces the ring, so the only full-size array is the output itself.
    """
    _check_dense(m.phys_dims)
    half = len(m) // 2
    ring, mid = m.cores[0].shape[0], m.cores[half].shape[0]
    left = _left_chain(m.cores[:half], ring)
    right = np.eye(ring, dtype=complex)  # rows the open bond, columns (sites so far, ring)
    for c in reversed(m.cores[half:]):
        right = c.reshape(-1, c.shape[2]) @ right.reshape(c.shape[2], -1)
    left = left.reshape(ring, -1, mid).transpose(1, 0, 2).reshape(-1, ring * mid)
    right = right.reshape(mid, -1, ring).transpose(2, 0, 1).reshape(ring * mid, -1)
    wires = [WireSpec(f"s{k}", d, UPPER) for k, d in enumerate(m.phys_dims)]
    return _adopt(left @ right, wires)


def _left_chain(cores: Sequence[np.ndarray], bond: int) -> np.ndarray:
    """The cores contracted left to right as a matrix chain, with their
    left bond (of dimension ``bond``, a ring bond in :func:`to_dense`) open:
    rows (left bond, sites but the last), columns (last site, right bond)."""
    left = np.eye(bond, dtype=complex)
    for c in cores:
        left = left.reshape(-1, c.shape[0]) @ c.reshape(c.shape[0], -1)
    return left


def inner(a: MPS, b: MPS) -> complex:
    """<a|b> by the zipper contraction (no densification).

    The environment has axes (la0, lb0, ra, rb): the ring bonds at the left
    end stay open and the right bonds grow site by site, at O(D^2 chi^3 d)
    per site for ring bonds D (1 on open chains).  Tracing the left ring
    bonds against the right ones at the end closes either boundary.
    """
    if a.phys_dims != b.phys_dims:
        raise ShapeError(f"physical dimensions differ: {a.phys_dims} vs {b.phys_dims}")
    if a.boundary != b.boundary:
        raise ShapeError("boundary conditions differ")
    la0, lb0 = a.cores[0].shape[0], b.cores[0].shape[0]
    env = np.eye(la0 * lb0, dtype=complex).reshape(la0, lb0, la0, lb0)
    for ca, cb in zip(a.cores, b.cores):
        env = np.tensordot(env, np.conj(ca), axes=(2, 0))  # (la0, lb0, rb, p, ra)
        env = np.tensordot(env, cb, axes=([2, 3], [0, 1]))  # (la0, lb0, ra, rb)
    return complex(np.einsum("abab->", env))


def norm(m: MPS) -> float:
    return math.sqrt(max(inner(m, m).real, 0.0))


# -- named states ------------------------------------------------------


def ghz_mps(n: int, boundary: str = OPEN) -> MPS:
    """GHZ state (|0...0> + |1...1>)/sqrt(2).

    The natural reading of the trace formula is a periodic bond-2 chain of
    identical diagonal cores.  ``boundary=OPEN`` (the default) cuts the
    ring: the first core is the row vector (|0>, |1>)/sqrt(2), the last the
    column vector (|0>; |1>), with the diagonal cores between them.
    """
    if n < 2:
        raise ShapeError("ghz_mps needs n >= 2")
    core = np.zeros((2, 2, 2), dtype=complex)
    core[0, 0, 0] = 1.0
    core[1, 1, 1] = 1.0
    cores = [core.copy() for _ in range(n)]
    if boundary == PERIODIC:
        cores[0] = cores[0] / math.sqrt(2.0)
        return MPS(cores, PERIODIC)
    cores[0] = core.sum(axis=0, keepdims=True) / math.sqrt(2.0)  # (1, 2, 2)
    cores[-1] = core.sum(axis=2, keepdims=True)  # (2, 2, 1)
    return MPS(cores, boundary)


def w_mps(n: int) -> MPS:
    """W state (|10...0> + |010...0> + ... + |0...01>)/sqrt(n)."""
    if n < 3:
        raise ShapeError("w_mps needs n >= 3")
    first = np.zeros((1, 2, 2), dtype=complex)  # row vector (|1>, |0>)
    first[0, 1, 0] = 1.0
    first[0, 0, 1] = 1.0
    bulk = np.zeros((2, 2, 2), dtype=complex)  # [[|0>, 0], [|1>, |0>]]
    bulk[0, 0, 0] = 1.0
    bulk[1, 1, 0] = 1.0
    bulk[1, 0, 1] = 1.0
    last = np.zeros((2, 2, 1), dtype=complex)  # column vector (|0>; |1>)
    last[0, 0, 0] = 1.0
    last[1, 1, 0] = 1.0
    cores = [first / math.sqrt(n)] + [bulk.copy() for _ in range(n - 2)] + [last]
    return MPS(cores)


def aklt_chain(n: int) -> Tensor:
    """Dense AKLT-style chain built from singlets and spin-1 projectors.

    ``n`` singlets (epsilon / sqrt 2) are laid side by side and each of the
    n - 1 interior qubit pairs is projected onto the spin-1 subspace,
    leaving two dangling boundary qubit wires around n - 1 spin-1 wires.
    The terms alternate singlet, projector, singlet, ..., so the open wires
    come out in chain order: left qubit qL, spin sites s0 ... s(n-2), right
    qubit qR.
    """
    if n < 2:
        raise ShapeError("aklt_chain needs n >= 2 singlets")
    singlet = raise_wire(raise_wire(catalog.epsilon(2), "i0"), "i1") * (1.0 / math.sqrt(2.0))
    projector = catalog.aklt_projector()
    qubits = ["qL", *range(2 * n - 2), "qR"]  # singlet k holds qubits 2k and 2k + 1
    terms = [(singlet, qubits[:2])]
    for k in range(n - 1):  # projector k joins the right qubit of singlet k to the left one of singlet k + 1
        terms += [(projector, [f"s{k}", 2 * k, 2 * k + 1]), (singlet, qubits[2 * k + 2:2 * k + 4])]
    return from_terms(terms).contract_all()


# -- entropies and compression -----------------------------------------


def _right_canonical(cores: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Right-to-left QR sweep of an open chain: each core k = n-1, ..., 1,
    with the carry from its right absorbed, is split as
    ``R^dagger Q^dagger``; it becomes the right isometry ``Q^dagger`` and
    ``R^dagger`` moves into core k-1.  Returns the cores, every one but the
    first right-canonical."""
    cores = list(cores)
    for k in range(len(cores) - 1, 0, -1):
        q, rr = np.linalg.qr(cores[k].reshape(cores[k].shape[0], -1).conj().T)
        cores[k] = q.conj().T.reshape(-1, *cores[k].shape[1:])
        cores[k - 1] = np.tensordot(cores[k - 1], rr.conj().T, axes=(2, 0))
    return cores


def _schmidt_spectra(m: MPS, first: int = 1):
    """Schmidt values of the open-boundary ``m`` across cuts first, ...,
    n-1, in turn, from one sweep each way: the right sweep of
    :func:`_right_canonical` down to ``first``, with R-only QRs (the same R,
    no Q formed), gives every such cut's ``R_right = R^dagger``, and a left
    sweep of R-only QRs grows ``R_left`` by one site per cut.  A cut's
    values are the singular values of ``R_left R_right``, which has the
    state's Schmidt values because the factors beside it are isometries.
    """
    carries, core = {}, m.cores[-1]
    for k in range(len(m) - 1, first - 1, -1):
        carries[k] = np.linalg.qr(core.reshape(core.shape[0], -1).conj().T, mode="r").conj().T
        core = np.tensordot(m.cores[k - 1], carries[k], axes=(2, 0))
    r_left = np.eye(1, dtype=complex)
    for cut in range(1, len(m)):
        c = np.tensordot(r_left, m.cores[cut - 1], axes=(1, 0))
        r_left = np.linalg.qr(c.reshape(-1, c.shape[2]), mode="r")
        if cut >= first:
            yield np.linalg.svd(r_left @ carries[cut], compute_uv=False)


def schmidt_values(m: MPS, cut: int) -> np.ndarray:
    """Schmidt coefficients across the bond between sites cut-1 and cut:
    ``cut`` left QRs and n - cut right ones."""
    if m.boundary != OPEN:
        raise ShapeError("schmidt_values requires an open-boundary MPS")
    if not 1 <= cut < len(m):
        raise ShapeError(f"cut must be in [1, {len(m) - 1}], got {cut}")
    return next(_schmidt_spectra(m, cut))


def _entropy(s: np.ndarray, q: float) -> float:
    """Renyi-q entropy of a cut with Schmidt values ``s`` (largest first)."""
    if not s[0] > 0:  # the largest, by which they are divided before they are squared
        raise ShapeError("zero-norm state has no entanglement entropy")
    p = (s / s[0]) ** 2
    return renyi_entropy(p / p.sum(), q)


def bond_entropy(m: MPS, cut: int, q: float = 1.0) -> float:
    """Renyi-q entanglement entropy across the given cut (natural log)."""
    return _entropy(schmidt_values(m, cut), q)


def compress(m: MPS, policy: TrimPolicy) -> tuple[MPS, CompressionReport]:
    """Sweep of SVD + trim across every bond of an open-boundary MPS.

    The MPS is first right-canonicalized (:func:`_right_canonical`), so
    each later SVD sees true Schmidt values and its first core alone
    carries the norm: that core is the block that :func:`_unit_sweep`
    scales.  The result is renormalized; the report carries per-cut
    discarded weights as fractions of the input's squared norm, the
    quadratic fidelity lower bound, and the actual fidelity against the
    input cores, their overlap with the result divided by 2^e.
    """
    if m.boundary != OPEN:
        raise ShapeError("compress requires an open-boundary MPS")
    with np.errstate(over="ignore", invalid="ignore"):  # a norm past the float range is refused below
        cores = _right_canonical(m.cores)
    out, rep, _ = _unit_sweep(cores[0], m.phys_dims, policy, cores[1:],
                              lambda out, unit, e: math.ldexp(abs(inner(m, out)), -e))
    return out, rep
