"""Dense tensors with ordered, labeled, flavored wires.

A tensor is stored as a dense complex array whose axes follow the wire
order.  Each wire carries a label (unique within the tensor), a dimension,
and a flavor: UPPER wires are outputs (arms, ket-like indices) and LOWER
wires are inputs (legs, bra-like indices).  Contraction always joins an
UPPER wire to a LOWER wire of the same dimension; converting between the
two flavors is an explicit operation (:func:`bend`), which keeps the snake
equation a testable statement instead of a silent convention.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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


class Tensor:
    """Immutable dense tensor over complex doubles.

    Parameters
    ----------
    data : array_like
        Components, either flat (row-major over the wire order) or already
        shaped to the wire dimensions.
    wires : sequence of WireSpec
        Ordered wires; labels must be unique.
    """

    __slots__ = ("wires", "data")

    def __init__(self, data, wires: Sequence[WireSpec]):
        wires = tuple(wires)
        labels = [w.label for w in wires]
        if len(set(labels)) != len(labels):
            raise WireError(f"duplicate wire labels: {labels}")
        dims = tuple(w.dim for w in wires)
        arr = np.asarray(data, dtype=complex)
        if arr.size != math.prod(dims):
            raise ShapeError(f"data has {arr.size} entries, wires require {math.prod(dims)}")
        arr = arr.reshape(dims).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "wires", wires)
        object.__setattr__(self, "data", arr)

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
        for i, w in enumerate(self.wires):
            if w.label == label:
                return i
        raise WireError(f"no wire labeled {label!r} (have {list(self.labels)})")

    def item(self) -> complex:
        """The single component of an order-(0,0) tensor."""
        if self.wires:
            raise ShapeError("item() requires a fully contracted (0,0) tensor")
        return complex(self.data)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def relabeled(self, mapping: dict[str, str]) -> "Tensor":
        wires = [
            WireSpec(mapping.get(w.label, w.label), w.dim, w.flavor) for w in self.wires
        ]
        return Tensor(self.data, wires)

    def __mul__(self, c):
        return Tensor(self.data * complex(c), self.wires)

    __rmul__ = __mul__

    def __repr__(self):
        parts = ", ".join(
            f"{w.label}:{w.dim}{'^' if w.flavor is UPPER else '_'}" for w in self.wires
        )
        return f"Tensor({parts})"


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
    t = ket(np.conj(np.asarray(values, dtype=complex)), labels, dims)
    return Tensor(t.data, [WireSpec(w.label, w.dim, LOWER) for w in t.wires])


def matrix(m, out_label: str = "out", in_label: str = "in") -> Tensor:
    """Order-(1,1) tensor from a 2-D array (UPPER row wire, LOWER column wire)."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ShapeError(f"matrix() expects a 2-D array, got shape {arr.shape}")
    return Tensor(arr, [WireSpec(out_label, arr.shape[0], UPPER), WireSpec(in_label, arr.shape[1], LOWER)])


# -- primitive operations ---------------------------------------------


def tensor_product(a: Tensor, b: Tensor) -> Tensor:
    """Kronecker-structured product; ``a``'s wires followed by ``b``'s.

    This is :func:`contract` over no pairs, so label collisions are
    resolved by its rule: a colliding label of ``b`` gets the first free
    suffix ``_1``, ``_2``, ...
    """
    return contract(a, [], b)


def _check_pair(wa: WireSpec, wb: WireSpec):
    if wa.dim != wb.dim:
        raise WireError(f"cannot contract {wa.label!r} (dim {wa.dim}) with {wb.label!r} (dim {wb.dim})")
    if wa.flavor is wb.flavor:
        raise WireError(
            f"cannot contract {wa.label!r} with {wb.label!r}: both are {wa.flavor.value}; bend one first"
        )


def contract(a: Tensor, pairs: Iterable[tuple[str, str]], b: Tensor | None = None) -> Tensor:
    """Sum over the paired wires.

    With ``b`` given, each pair joins a wire of ``a`` to a wire of ``b``;
    otherwise both ends name wires of ``a`` (self-contraction).  Surviving
    wires keep their relative order, ``a``'s before ``b``'s.
    """
    pairs = list(pairs)
    if b is None:
        used: set[str] = set()
        for la, lb in pairs:
            if la in used or lb in used or la == lb:
                raise WireError(f"wire reused in contraction pairs: ({la!r}, {lb!r})")
            used.update((la, lb))
            _check_pair(a.wire(la), a.wire(lb))
        subs = list(range(len(a.wires)))
        for la, lb in pairs:
            subs[a.axis(lb)] = subs[a.axis(la)]
        keep = [i for i, w in enumerate(a.wires) if w.label not in used]
        data = np.einsum(a.data, subs, [subs[i] for i in keep])
        return Tensor(data, [a.wires[i] for i in keep])

    used_a: set[str] = set()
    used_b: set[str] = set()
    for la, lb in pairs:
        if la in used_a or lb in used_b:
            raise WireError(f"wire reused in contraction pairs: ({la!r}, {lb!r})")
        used_a.add(la)
        used_b.add(lb)
        _check_pair(a.wire(la), b.wire(lb))
    axes_a = [a.axis(la) for la, _ in pairs]
    axes_b = [b.axis(lb) for _, lb in pairs]
    data = np.tensordot(a.data, b.data, axes=(axes_a, axes_b))
    keep_a = [w for w in a.wires if w.label not in used_a]
    keep_b = [w for w in b.wires if w.label not in used_b]
    # disambiguate surviving labels across the two operands
    taken = {w.label for w in keep_a}
    out_b = []
    for w in keep_b:
        lab = w.label
        k = 1
        while lab in taken:
            lab = f"{w.label}_{k}"
            k += 1
        taken.add(lab)
        out_b.append(WireSpec(lab, w.dim, w.flavor))
    return Tensor(data, keep_a + out_b)


def trace(a: Tensor, pairs: Iterable[tuple[str, str]]) -> Tensor:
    """Partial trace over (UPPER, LOWER) wire pairs of equal dimension."""
    return contract(a, pairs)


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


def transpose_map(a: Tensor) -> Tensor:
    """Transpose an order-(1,1) tensor (cup-cap conjugation)."""
    up, low = a.order
    if (up, low) != (1, 1):
        raise ShapeError(f"transpose_map needs an order-(1,1) tensor, got {a.order}")
    i_up = next(i for i, w in enumerate(a.wires) if w.flavor is UPPER)
    i_low = 1 - i_up
    wu, wl = a.wires[i_up], a.wires[i_low]
    m = a.data if i_up == 0 else a.data.T  # (upper, lower) layout
    wires = [WireSpec(wu.label, wl.dim, UPPER), WireSpec(wl.label, wu.dim, LOWER)]
    return Tensor(m.T, wires)


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
    return Tensor(np.conj(a.data), a.wires)


def dagger(a: Tensor) -> Tensor:
    """Hermitian adjoint: mirror the wire order, flip flavors, conjugate."""
    n = len(a.wires)
    rev = tuple(range(n - 1, -1, -1))
    wires = [WireSpec(w.label, w.dim, w.flavor.flipped()) for w in reversed(a.wires)]
    return Tensor(np.conj(np.transpose(a.data, rev)), wires)


def vectorize(a: Tensor) -> Tensor:
    """Order-(1,1) map ``A`` to the state ``|A> = (A (x) I)|cup>``.

    Both result wires are UPPER; flattened row-major this is the rowwise
    vectorization of the matrix.
    """
    up, low = a.order
    if (up, low) != (1, 1):
        raise ShapeError(f"vectorize needs an order-(1,1) tensor, got {a.order}")
    i_up = next(i for i, w in enumerate(a.wires) if w.flavor is UPPER)
    m = a.data if i_up == 0 else a.data.T
    wu = a.wires[i_up]
    wl = a.wires[1 - i_up]
    return Tensor(m, [WireSpec(wu.label, wu.dim, UPPER), WireSpec(wl.label, wl.dim, UPPER)])


def devectorize(a: Tensor) -> Tensor:
    """Inverse of :func:`vectorize`: two UPPER wires back to a (1,1) map."""
    if a.order != (2, 0):
        raise ShapeError(f"devectorize needs an order-(2,0) tensor, got {a.order}")
    w0, w1 = a.wires
    return Tensor(a.data, [WireSpec(w0.label, w0.dim, UPPER), WireSpec(w1.label, w1.dim, LOWER)])


def enumerate_reshapes(a: Tensor, max_wires: int = 4) -> list[np.ndarray]:
    """All distinct reshapes reachable with cups, caps, and SWAPs.

    A configuration is an ordered split of the wires into an upper group
    and a lower group; its component array is the matrix whose row index
    runs over the upper group and column index over the lower group.  For
    a generic order-(p,q) tensor there are (p+q+1)! distinct matrices.
    """
    n = len(a.wires)
    if n > max_wires:
        raise SizeLimitError(f"enumerate_reshapes limited to {max_wires} wires, got {n}")
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
