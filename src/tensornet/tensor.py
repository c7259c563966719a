"""Dense tensors with ordered, labeled, flavored wires.

A tensor is stored as a dense complex array whose axes follow the wire
order.  Each wire carries a label (unique within the tensor), a dimension,
and a flavor: UPPER wires are outputs (arms, ket-like indices) and LOWER
wires are inputs (legs, bra-like indices).  Contraction always joins an
UPPER wire to a LOWER wire of the same dimension; converting between the
two flavors is an explicit operation (:func:`bend`), which keeps the snake
equation a testable statement instead of a silent convention.

This module has no contraction of its own: ``contract``, ``tensor_product``
and ``trace`` build a network of one or two nodes and run it through the
one engine, ``network.TensorNetwork``.
"""

from __future__ import annotations

import enum
import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import errors
from .errors import ShapeError, SizeLimitError, WireError


class Flavor(enum.Enum):
    UPPER = "upper"
    LOWER = "lower"

    def flipped(self) -> "Flavor":
        return Flavor.LOWER if self is Flavor.UPPER else Flavor.UPPER


UPPER = Flavor.UPPER
LOWER = Flavor.LOWER


@dataclass(frozen=True)
class WireSpec:
    label: str
    dim: int
    flavor: Flavor

    def __post_init__(self):
        if self.dim < 1:
            raise WireError(f"wire {self.label!r}: dim must be >= 1, got {self.dim}")


# id -> each array that a Tensor copied and froze, or adopted fresh from an
# operation (_adopt).  Only these, and their read-only views, are shared: a
# caller may make its own read-only array writeable again, so that is copied.
_OWNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Tensor:
    """Immutable dense tensor over complex doubles.

    Parameters
    ----------
    data : array_like
        Components, either flat (row-major over the wire order) or already
        shaped to the wire dimensions.  They are copied into a read-only
        array, unless they already are a tensor's array or a read-only view
        of one: wire-only changes share it.  ``t * c``, :func:`conjugate`,
        :func:`dagger` and :func:`bra` freeze their freshly computed array
        in place.
    wires : sequence of WireSpec
        Ordered wires; labels must be unique.
    """

    __slots__ = ("wires", "data", "_axes")

    def __init__(self, data, wires: Sequence[WireSpec]):
        wires = tuple(wires)
        axes = {w.label: i for i, w in enumerate(wires)}  # label -> axis
        if len(axes) != len(wires):
            raise WireError(f"duplicate wire labels: {[w.label for w in wires]}")
        dims = tuple(w.dim for w in wires)
        arr = np.asarray(data, dtype=complex)
        if arr.size != math.prod(dims):
            raise ShapeError(f"data has {arr.size} entries, wires require {math.prod(dims)}")
        arr = arr.reshape(dims)
        owner = arr if arr.base is None else arr.base
        if arr.flags.writeable or _OWNED.get(id(owner)) is not owner:
            arr = arr.copy()
            arr.flags.writeable = False
            _OWNED[id(arr)] = arr
        object.__setattr__(self, "wires", wires)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "_axes", axes)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    # -- introspection -------------------------------------------------

    @property
    def order(self) -> tuple[int, int]:
        """(number of UPPER wires, number of LOWER wires)."""
        ups = sum(1 for w in self.wires if w.flavor is UPPER)
        return ups, len(self.wires) - ups

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(w.label for w in self.wires)

    def wire(self, label: str) -> WireSpec:
        return self.wires[self.axis(label)]

    def axis(self, label: str) -> int:
        try:
            return self._axes[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label is no label either
            raise WireError(f"no wire labeled {label!r} (have {list(self.labels)})") from None

    def item(self) -> complex:
        """The single component of an order-(0,0) tensor."""
        if self.wires:
            raise ShapeError("item() requires a fully contracted (0,0) tensor")
        return complex(self.data)

    def norm(self) -> float:
        return _norm(self.data)

    def relabeled(self, mapping: dict[str, str]) -> "Tensor":
        wires = [
            WireSpec(mapping.get(w.label, w.label), w.dim, w.flavor) for w in self.wires
        ]
        return Tensor(self.data, wires)

    def __mul__(self, c):
        return _adopt(np.multiply(self.data, complex(c), order="C"), self.wires)

    __rmul__ = __mul__

    def __repr__(self):
        parts = ", ".join(
            f"{w.label}:{w.dim}{'^' if w.flavor is UPPER else '_'}" for w in self.wires
        )
        return f"Tensor({parts})"


# a 2-norm outside this range may have lost bits to an underflowing or
# overflowing sum of squares, so it is taken again on a rescaled array
NORM_RANGE = (2.0**-500, 2.0**500)


def _norm(data: np.ndarray) -> float:
    """2-norm of ``data``, inf past the float range (see :func:`_unit`)."""
    _, size, e = _unit(data)
    return math.ldexp(size, e)


def _unit(data: np.ndarray) -> tuple[np.ndarray, float, int]:
    """``(data / 2^e, its 2-norm, e)``, the one rule by which a state far
    from unit norm is scaled.  e is 0 when the norm of ``data`` is inside
    ``NORM_RANGE``; otherwise it is the power of two of the largest |entry|,
    as LAPACK's drivers scale, so that no sum of squares underflows or
    overflows.  A zero, non-finite or overflowing norm (2^e times the
    scaled norm past the float range) comes back as 0, NaN or inf with
    e = 0 and ``data`` unscaled."""
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(data))
        if NORM_RANGE[0] <= nrm <= NORM_RANGE[1]:
            return data, nrm, 0
        big = float(np.max(np.abs(data), initial=0.0))
    if big == 0 or not math.isfinite(big):
        return data, nrm, 0
    e = math.frexp(big)[1]
    unit = _times_pow2(data, -e)
    size = float(np.linalg.norm(unit))
    if e + math.frexp(size)[1] > 1024:  # 2^e size is not a float
        return data, math.inf, 0
    return unit, size, e


def _times_pow2(a: np.ndarray, e: int) -> np.ndarray:
    """``a * 2**e``, exact wherever the result is a normal float; in two
    factors, since ``2.0**e`` alone overflows for |e| > 1023."""
    return a * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)


def _adopt(fresh: np.ndarray, wires: Sequence[WireSpec]) -> Tensor:
    """Tensor that takes over ``fresh``, an array just computed for it that
    nothing else holds: it is frozen in place instead of copied.  Callers
    compute it with ``order="C"``, so it is C-contiguous as a copy is."""
    fresh = np.asarray(fresh)  # a 0-d ufunc result is a numpy scalar
    fresh.flags.writeable = False
    _OWNED[id(fresh)] = fresh
    return Tensor(fresh, wires)


# -- constructors ------------------------------------------------------


def _auto_labels(n: int, prefix: str = "w") -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def scalar(c: complex) -> Tensor:
    """Order-(0,0) tensor holding the complex number ``c``."""
    return Tensor([c], [])


def ket(values, labels: Sequence[str] | None = None, dims: Sequence[int] | None = None) -> Tensor:
    """State tensor with all-UPPER wires.

    ``dims`` defaults to an n-qubit split when the length is a power of two,
    otherwise a single wire of the full length.
    """
    arr = np.asarray(values, dtype=complex)
    if dims is None:
        if arr.ndim > 1:
            dims = arr.shape
        else:
            n = arr.size
            if n > 1 and n & (n - 1) == 0:
                dims = (2,) * (n.bit_length() - 1)
            else:
                dims = (n,)
    if labels is None:
        labels = _auto_labels(len(dims))
    return Tensor(arr, [WireSpec(l, d, UPPER) for l, d in zip(labels, dims)])


def bra(values, labels: Sequence[str] | None = None, dims: Sequence[int] | None = None) -> Tensor:
    """Like :func:`ket` but with LOWER wires and conjugated components."""
    t = ket(values, labels, dims)  # shares a tensor's frozen array
    return _adopt(np.conj(t.data, order="C"), [WireSpec(w.label, w.dim, LOWER) for w in t.wires])


def matrix(m, out_label: str = "out", in_label: str = "in") -> Tensor:
    """Order-(1,1) tensor from a 2-D array (UPPER row wire, LOWER column wire)."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ShapeError(f"matrix() expects a 2-D array, got shape {arr.shape}")
    return Tensor(arr, [WireSpec(out_label, arr.shape[0], UPPER), WireSpec(in_label, arr.shape[1], LOWER)])


# -- primitive operations ---------------------------------------------


def bend(a: Tensor, label: str, direction: Flavor) -> Tensor:
    """Flip the flavor of one wire via a cup or cap.

    ``direction`` names the target flavor: RAISE corresponds to UPPER,
    LOWER to lowering.  Components are unchanged because the cup and cap
    are delta tensors in the computational basis.
    """
    w = a.wire(label)
    if w.flavor is direction:
        raise WireError(f"wire {label!r} is already {direction.value}")
    wires = [
        WireSpec(x.label, x.dim, direction if x.label == label else x.flavor) for x in a.wires
    ]
    return Tensor(a.data, wires)


def raise_wire(a: Tensor, label: str) -> Tensor:
    return bend(a, label, UPPER)


def lower_wire(a: Tensor, label: str) -> Tensor:
    return bend(a, label, LOWER)


def _as_map(a: Tensor, what: str) -> tuple[np.ndarray, WireSpec, WireSpec]:
    """An order-(1,1) tensor as its (upper, lower) array, its upper wire
    and its lower wire; ``what`` names the caller in the error."""
    if a.order != (1, 1):
        raise ShapeError(f"{what} needs an order-(1,1) tensor, got {a.order}")
    i_up = 0 if a.wires[0].flavor is UPPER else 1
    return (a.data if i_up == 0 else a.data.T), a.wires[i_up], a.wires[1 - i_up]


def transpose_map(a: Tensor) -> Tensor:
    """Transpose an order-(1,1) tensor (cup-cap conjugation)."""
    m, wu, wl = _as_map(a, "transpose_map")
    return Tensor(m.T, [WireSpec(wu.label, wl.dim, UPPER), WireSpec(wl.label, wu.dim, LOWER)])


def permute(a: Tensor, order: Sequence[str] | Sequence[int]) -> Tensor:
    """Reorder wires (and data axes) according to ``order``.

    ``order`` is a permutation given either as labels or as axis indices.
    """
    if len(order) != len(a.wires):
        raise WireError(f"permutation names {len(order)} wires, tensor has {len(a.wires)}")
    if order and isinstance(order[0], str):
        idx = [a.axis(l) for l in order]
    else:
        idx = [int(i) for i in order]
    if sorted(idx) != list(range(len(a.wires))):
        raise WireError(f"not a permutation: {order}")
    return Tensor(np.transpose(a.data, idx), [a.wires[i] for i in idx])


def conjugate(a: Tensor) -> Tensor:
    """Entrywise complex conjugate; wires unchanged."""
    return _adopt(np.conj(a.data, order="C"), a.wires)


def dagger(a: Tensor) -> Tensor:
    """Hermitian adjoint: mirror the wire order, flip flavors, conjugate."""
    n = len(a.wires)
    rev = tuple(range(n - 1, -1, -1))
    wires = [WireSpec(w.label, w.dim, w.flavor.flipped()) for w in reversed(a.wires)]
    return _adopt(np.conj(np.transpose(a.data, rev), order="C"), wires)


def vectorize(a: Tensor) -> Tensor:
    """Order-(1,1) map ``A`` to the state ``|A> = (A (x) I)|cup>``.

    Both result wires are UPPER; flattened row-major this is the rowwise
    vectorization of the matrix.
    """
    m, wu, wl = _as_map(a, "vectorize")
    return Tensor(m, [WireSpec(wu.label, wu.dim, UPPER), WireSpec(wl.label, wl.dim, UPPER)])


def devectorize(a: Tensor) -> Tensor:
    """Inverse of :func:`vectorize`: two UPPER wires back to a (1,1) map."""
    if a.order != (2, 0):
        raise ShapeError(f"devectorize needs an order-(2,0) tensor, got {a.order}")
    w0, w1 = a.wires
    return Tensor(a.data, [WireSpec(w0.label, w0.dim, UPPER), WireSpec(w1.label, w1.dim, LOWER)])


MAX_RESHAPE_WIRES = 4  # enumerate_reshapes refuses a tensor with more wires


def enumerate_reshapes(a: Tensor) -> list[np.ndarray]:
    """All distinct reshapes reachable with cups, caps, and SWAPs.

    A configuration is an ordered split of the wires into an upper group
    and a lower group; its component array is the matrix whose row index
    runs over the upper group and column index over the lower group.  For
    a generic order-(p,q) tensor there are (p+q+1)! distinct matrices.
    More than ``MAX_RESHAPE_WIRES`` (4) wires, or (n+1)! matrices of more than
    ``errors.MAX_ELEMENTS`` elements in all, are refused before any is built.
    """
    n = len(a.wires)
    if n > MAX_RESHAPE_WIRES:
        raise SizeLimitError(f"enumerate_reshapes limited to {MAX_RESHAPE_WIRES} wires, got {n}")
    count = math.factorial(n + 1)
    if count * a.data.size > errors.MAX_ELEMENTS:
        raise errors.over_limit(f"enumerate_reshapes would hold {count} matrices of {a.data.size} elements")
    dims = [w.dim for w in a.wires]
    seen: dict[tuple, np.ndarray] = {}
    for perm in itertools.permutations(range(n)):
        arr = np.transpose(a.data, perm)
        for k in range(n + 1):
            rows = math.prod(dims[i] for i in perm[:k])
            m = arr.reshape(rows, -1)
            key = (m.shape, m.tobytes())
            seen.setdefault(key, m)
    return list(seen.values())


def allclose(a: Tensor, b: Tensor, tol: float = 1e-10) -> bool:
    """Componentwise comparison in matching wire order (labels ignored)."""
    if tuple(w.dim for w in a.wires) != tuple(w.dim for w in b.wires):
        return False
    return bool(np.allclose(a.data, b.data, rtol=0.0, atol=tol))
