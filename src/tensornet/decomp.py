"""Matricization, SVD with trimming, Schmidt decomposition, entropies."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateTrimError, ShapeError, WireError
from .network import contract
from .tensor import LOWER, UPPER, Tensor, WireSpec, _as_map, bra, permute

RANK_TOL = 1e-12  # sigma counts toward rank iff sigma > RANK_TOL * sigma_max


# -- matricization -----------------------------------------------------


@dataclass(frozen=True)
class GroupInfo:
    """Bookkeeping needed to undo a matricization."""

    row_wires: tuple[WireSpec, ...]
    col_wires: tuple[WireSpec, ...]
    original_labels: tuple[str, ...]


def matricize(t: Tensor, row_labels: Sequence[str], col_labels: Sequence[str]) -> tuple[Tensor, GroupInfo]:
    """Group wires into a single UPPER row wire and LOWER column wire.

    The two groups must partition ``t``'s wires.  Grouping is row-major
    within each group; any flavor conversion implied by the grouping is a
    bend and leaves components untouched.
    """
    row_labels, col_labels = list(row_labels), list(col_labels)
    if sorted(row_labels + col_labels) != sorted(t.labels):
        raise WireError(
            f"row {row_labels} + col {col_labels} is not a partition of wires {list(t.labels)}"
        )
    perm = [t.axis(l) for l in row_labels + col_labels]
    data = np.transpose(t.data, perm)
    row_dim = math.prod(t.wire(l).dim for l in row_labels)
    m = Tensor(
        data.reshape(row_dim, -1),
        [WireSpec("row", row_dim, UPPER), WireSpec("col", data.size // row_dim, LOWER)],
    )
    info = GroupInfo(
        tuple(t.wire(l) for l in row_labels),
        tuple(t.wire(l) for l in col_labels),
        t.labels,
    )
    return m, info


def dematricize(m: Tensor, info: GroupInfo) -> Tensor:
    """Inverse of :func:`matricize`; restores wire order and flavors."""
    wires = info.row_wires + info.col_wires
    data = m.data.reshape([w.dim for w in wires])
    grouped = Tensor(data, wires)
    perm = [grouped.axis(l) for l in info.original_labels]
    return Tensor(np.transpose(grouped.data, perm), [wires[i] for i in perm])


# -- singular value decomposition --------------------------------------


@dataclass
class SvdResult:
    u: Tensor  # order-(1,1), isometric columns
    sigma: np.ndarray  # nonnegative, nonincreasing
    v_dag: Tensor  # order-(1,1), isometric rows


def _fix_phases(u: np.ndarray, v_dag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Make the largest-magnitude entry of each left singular vector real
    positive (ties break toward the lowest index)."""
    cols = np.arange(u.shape[1])
    a = u[np.argmax(np.abs(u), axis=0), cols]  # argmax picks the lowest index on ties
    mag = np.abs(a)
    phase = np.divide(a, mag, out=np.ones_like(a), where=mag > 0)
    return u * np.conj(phase), v_dag * phase[:, np.newaxis]


def svd_matrix(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD of a 2-D array with the package's fixed phase convention."""
    # LAPACK is markedly slower on wide inputs than on their transpose, so
    # a wide matrix is factored on its tall side: m.T = u s v_dag gives
    # m = v_dag.T s u.T.
    wide = m.shape[0] < m.shape[1]
    try:
        u, s, v_dag = np.linalg.svd(m.T if wide else m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend failure
        raise ArithmeticError(f"SVD backend failed: {exc}") from exc
    if wide:
        u, v_dag = v_dag.T, u.T
    u, v_dag = _fix_phases(u, v_dag)
    return u, s, v_dag


def svd(m: Tensor) -> SvdResult:
    """SVD of an order-(1,1) tensor, m = u . diag(sigma) . v_dag."""
    arr, wu, wl = _as_map(m, "svd")
    u, s, v_dag = svd_matrix(arr)
    k = s.size
    u_t = Tensor(u, [WireSpec(wu.label, wu.dim, UPPER), WireSpec("bond", k, LOWER)])
    v_t = Tensor(v_dag, [WireSpec("bond", k, UPPER), WireSpec(wl.label, wl.dim, LOWER)])
    return SvdResult(u_t, s, v_t)


def svd_reconstruct(s: SvdResult) -> np.ndarray:
    """u . diag(sigma) . v_dag as a plain matrix."""
    return (s.u.data * s.sigma[np.newaxis, :]) @ s.v_dag.data


# -- trimming ----------------------------------------------------------


@dataclass(frozen=True)
class TrimPolicy:
    """Either keep the ``chi`` largest singular values, or drop all
    singular values below the cutoff ``xi`` (absolute by default)."""

    chi: int | None = None
    xi: float | None = None
    relative: bool = False

    def __post_init__(self):
        if (self.chi is None) == (self.xi is None):
            raise ValueError("exactly one of chi / xi must be set")
        if self.xi is not None and not self.xi >= 0:  # also refuses NaN
            raise ValueError(f"cutoff must be a number >= 0, got {self.xi}")

    @classmethod
    def max_rank(cls, chi: int) -> "TrimPolicy":
        return cls(chi=int(chi))

    @classmethod
    def cutoff(cls, xi: float, relative: bool = False) -> "TrimPolicy":
        return cls(xi=float(xi), relative=relative)

    def keep_count(self, sigma: np.ndarray) -> int:
        if self.chi is not None:
            if self.chi < 1:
                raise DegenerateTrimError("max rank chi must be positive")
            return min(self.chi, sigma.size)
        xi = self.xi * (sigma[0] if sigma.size else 1.0) if self.relative else self.xi
        keep = int(np.sum(sigma >= xi))
        if keep == 0:
            raise DegenerateTrimError(f"cutoff {self.xi} discards every singular value")
        return keep


def trim(s: SvdResult, policy: TrimPolicy) -> tuple[SvdResult, float]:
    """Drop trailing singular values; returns the trimmed result and the
    discarded weight (sum of squares of dropped values).

    By Eckart-Young-Mirsky the Frobenius error of the trimmed
    reconstruction is exactly sqrt(discarded weight).
    """
    keep = policy.keep_count(s.sigma)
    dropped = s.sigma[keep:]
    discarded = float(np.sum(dropped**2))
    wu = s.u.wires[0]
    wl = s.v_dag.wires[1]
    u_t = Tensor(s.u.data[:, :keep], [wu, WireSpec("bond", keep, LOWER)])
    v_t = Tensor(s.v_dag.data[:keep, :], [WireSpec("bond", keep, UPPER), wl])
    return SvdResult(u_t, s.sigma[:keep].copy(), v_t), discarded


# -- Schmidt decomposition and reduced densities -----------------------


@dataclass
class SchmidtDecomposition:
    coeffs: np.ndarray  # nonincreasing, nonnegative
    left_vectors: np.ndarray  # columns are orthonormal kets on side A
    right_vectors: np.ndarray  # rows are orthonormal kets on side B

    @property
    def rank(self) -> int:
        return schmidt_rank(self.coeffs)


def schmidt(state: Tensor, left_labels: Sequence[str]) -> SchmidtDecomposition:
    """Schmidt decomposition of a ket across the given bipartition.

    ``state`` must have only UPPER wires; ``left_labels`` names side A.
    Reconstruction: sum_k coeffs[k] * left[:, k] (x) right[k, :].
    """
    if any(w.flavor is not UPPER for w in state.wires):
        raise ShapeError("schmidt expects a ket (all wires UPPER)")
    left_labels = list(left_labels)
    right_labels = [l for l in state.labels if l not in left_labels]
    if not left_labels or not right_labels:
        raise WireError("both sides of the bipartition must be non-empty")
    m, _ = matricize(state, left_labels, right_labels)
    u, s, v_dag = svd_matrix(m.data)
    return SchmidtDecomposition(s, u, v_dag)


def reduced_density(state: Tensor, keep_labels: Sequence[str]) -> Tensor:
    """Partial trace of |psi><psi| keeping the named subsystems.

    The network of the ket and its conjugate, with one bond per traced
    wire, run by ``network.contract``, so a result or merge past
    ``MAX_ELEMENTS`` is refused before it is built.  The result's wires are
    the kept wires (UPPER) and then their ``label*`` copies (LOWER), both
    in ``keep_labels`` order: an order-(k,k) tensor, Hermitian and PSD with
    unit trace for a normalized input ket.
    """
    if any(w.flavor is not UPPER for w in state.wires):
        raise ShapeError("reduced_density expects a ket (all wires UPPER)")
    if abs(state.norm() - 1.0) > 1e-8:
        raise ShapeError(f"state norm {state.norm():.3g} is not 1")
    keep = list(keep_labels)
    kept = {state.wire(l).label for l in keep}  # an unknown label raises here
    conj = bra(state.data, [l + "*" for l in state.labels], [w.dim for w in state.wires])
    traced = [(l, l + "*") for l in state.labels if l not in kept]
    return permute(contract(state, traced, conj), keep + [l + "*" for l in keep])


# -- entropies ---------------------------------------------------------


def _check_probs(probs) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    if np.any(p < -1e-12):
        raise ValueError(f"negative probability in {p}")
    p = np.clip(p, 0.0, None)
    if abs(p.sum() - 1.0) > 1e-8:
        raise ValueError(f"probabilities sum to {p.sum()}, not 1")
    return p


def _check_order(q: float) -> None:
    if not q >= 0:  # also refuses NaN
        raise ValueError(f"order q must be >= 0, got {q}")


def von_neumann(probs) -> float:
    """-sum p ln p with 0 ln 0 = 0 (natural log)."""
    p = _check_probs(probs)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz))) + 0.0  # a product cut gives 0.0, not -0.0


def renyi_entropy(probs, q: float) -> float:
    """Renyi entropy (1/(1-q)) ln sum p^q, natural log, with 0^0 = 0.

    q = 1 dispatches to the von Neumann entropy; q = 0 gives ln(rank) and
    q = inf the min-entropy -ln max p.  Other orders factor out the largest
    p, so a large q neither overflows nor underflows to ln 0.  A NaN or
    negative q raises ``ValueError``.
    """
    _check_order(q)
    p = _check_probs(probs)
    if q == 1:
        return von_neumann(p)
    nz = p[p > 0]
    if q == 0:
        return float(np.log(nz.size))
    top = nz.max()
    if q == math.inf:
        h = -np.log(top)
    else:  # sum p^q = top^q sum (p/top)^q, where the sum is at least 1
        h = q / (1.0 - q) * np.log(top) + np.log(np.sum((nz / top) ** q)) / (1.0 - q)
    return float(h) + 0.0  # a product cut gives 0.0, not -0.0


def schmidt_rank(coeffs) -> int:
    """Number of singular values above RANK_TOL relative to the largest."""
    s = np.asarray(coeffs, dtype=float)
    if s.size == 0 or s.max() == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s.max()))
