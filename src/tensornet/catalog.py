"""Constructors for the concrete tensors used throughout the package.

Wire naming convention: outputs (UPPER) are labeled ``o0, o1, ...`` and
inputs (LOWER) ``i0, i1, ...`` in left-to-right order, unless a more
specific name is documented.  Entries are exact (0, 1, -1, 1/sqrt(2))
with no rounding.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ShapeError, check_elements
from .tensor import LOWER, UPPER, Tensor, WireSpec, lower_wire, matrix, raise_wire

_SQRT2 = math.sqrt(2.0)


def _gate(data, n_out: int, n_in: int, d: int = 2) -> Tensor:
    wires = [WireSpec(f"o{k}", d, UPPER) for k in range(n_out)]
    wires += [WireSpec(f"i{k}", d, LOWER) for k in range(n_in)]
    return Tensor(data, wires)


def _truth_gate(f, n_out: int, n_in: int, d: int = 2, what: str = "gate") -> Tensor:
    """sum_x |f(x)><x| over every input x in range(d)^n_in.  ``f`` takes the
    n_in input digits, as arrays over all inputs at once, and returns the
    n_out output digits.  Refused past ``MAX_ELEMENTS`` before allocating."""
    check_elements(d, n_out + n_in, what)
    data = np.zeros((d,) * (n_out + n_in), dtype=complex)
    x = tuple(np.indices((d,) * n_in).reshape(n_in, -1))
    data[tuple(f(*x)) + x] = 1.0
    return _gate(data, n_out, n_in, d)


def identity(d: int = 2) -> Tensor:
    """delta^o0_i0 = sum_k |k><k|; wires (o0, i0)."""
    return _truth_gate(lambda k: (k,), 1, 1, d, "identity")


def cup(d: int = 2) -> Tensor:
    """|cup> = sum_k |kk>, the unnormalized Bell state: the identity with
    its input bent up; two UPPER wires."""
    return raise_wire(identity(d), "i0").relabeled({"i0": "o1"})


def cap(d: int = 2) -> Tensor:
    """<cap| = sum_k <kk|: the identity with its output bent down; two
    LOWER wires."""
    return lower_wire(identity(d), "o0").relabeled({"o0": "i0", "i0": "i1"})


def swap(d: int = 2) -> Tensor:
    """SWAP^{ij}_{kl} = delta^i_l delta^j_k."""
    return _truth_gate(lambda k, l: (l, k), 2, 2, d, "swap")


def pauli_x() -> Tensor:
    return matrix([[0, 1], [1, 0]])


def pauli_y() -> Tensor:
    return matrix([[0, -1j], [1j, 0]])


def pauli_z() -> Tensor:
    return matrix([[1, 0], [0, -1]])


def hadamard() -> Tensor:
    """H = (1/sqrt 2) sum_ab (-1)^{ab} |a><b|."""
    return matrix(np.array([[1, 1], [1, -1]]) / _SQRT2)


def cnot() -> Tensor:
    """CNOT = sum_ab |a, a xor b><a, b|; wires (o0, o1, i0, i1)."""
    return _truth_gate(lambda a, b: (a, a ^ b), 2, 2)


def toffoli() -> Tensor:
    """Doubly-controlled NOT: |a, b, c xor (a and b)><a, b, c|."""
    return _truth_gate(lambda a, b, c: (a, b, c ^ (a & b)), 3, 3)


def copy_tensor(n_out: int, n_in: int = 1) -> Tensor:
    """Generalized COPY: 1 on all-equal binary index assignments, else 0."""
    n = n_out + n_in
    if n < 1:
        raise ShapeError("copy_tensor needs at least one wire")
    check_elements(2, n, "copy_tensor")
    data = np.zeros((2,) * n, dtype=complex)
    data[(0,) * n] = 1.0
    data[(1,) * n] = 1.0
    return _gate(data, n_out, n_in)


def xor_tensor(n_in: int, n_out: int = 1) -> Tensor:
    """Generalized XOR/parity: 1 on even-parity assignments, else 0."""
    n = n_out + n_in
    if n < 1:
        raise ShapeError("xor_tensor needs at least one wire")
    check_elements(2, n, "xor_tensor")
    even = np.ones(1)
    for _ in range(n):  # a leading 1 bit flips the parity of the rest
        even = np.concatenate([even, 1 - even])
    return _gate(even, n_out, n_in)


def plus_ket(normalized: bool = False) -> Tensor:
    """|+> = |0> + |1>; pass ``normalized=True`` for H|0>."""
    v = np.array([1.0, 1.0], dtype=complex)
    if normalized:
        v /= _SQRT2
    return Tensor(v, [WireSpec("o0", 2, UPPER)])


def minus_ket(normalized: bool = True) -> Tensor:
    """|-> = (|0> - |1>)/sqrt(2) by default (the convention of H|1>)."""
    v = np.array([1.0, -1.0], dtype=complex)
    if normalized:
        v /= _SQRT2
    return Tensor(v, [WireSpec("o0", 2, UPPER)])


def epsilon(n: int) -> Tensor:
    """Fully antisymmetric order-(0,n) Levi-Civita tensor, dimension n.

    eps_{01...(n-1)} = 1; sign flips under any index interchange.
    """
    if n < 2:
        raise ShapeError("epsilon needs n >= 2")
    check_elements(n, n, "epsilon")
    data = np.zeros((n,) * n, dtype=complex)
    for perm in itertools.permutations(range(n)):
        data[perm] = _perm_sign(perm)
    return Tensor(data, [WireSpec(f"i{k}", n, LOWER) for k in range(n)])


def _perm_sign(perm) -> int:
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


def antisymmetrizer(n: int, d: int) -> Tensor:
    """Order-(n,n) projector onto the antisymmetric subspace.

    (1/n!) sum over permutations sigma of sign(sigma) times the
    corresponding permutation tensor.  Identically zero when d < n.
    """
    check_elements(d, 2 * n, "antisymmetrizer")
    data = np.zeros((d,) * (2 * n), dtype=complex)
    if d >= n:  # otherwise every term cancels
        i_tup = tuple(np.indices((d,) * n))
        for perm in itertools.permutations(range(n)):
            # j[perm[k]] = i[k]: argsort inverts the permutation
            data[i_tup + tuple(i_tup[k] for k in np.argsort(perm))] += _perm_sign(perm)
        data /= math.factorial(n)
    wires = [WireSpec(f"o{k}", d, UPPER) for k in range(n)]
    wires += [WireSpec(f"i{k}", d, LOWER) for k in range(n)]
    return Tensor(data, wires)


def and_tensor() -> Tensor:
    """AND = sum |x1 and x2><x1, x2|."""
    return _truth_gate(lambda x1, x2: (x1 & x2,), 1, 2)


def or_tensor() -> Tensor:
    """OR = sum |x1 or x2><x1, x2|."""
    return _truth_gate(lambda x1, x2: (x1 | x2,), 1, 2)


def not_tensor() -> Tensor:
    """Logical NOT; identical components to the Pauli X gate."""
    return _truth_gate(lambda x: (1 - x,), 1, 1)


def aklt_projector() -> Tensor:
    """Projector from two qubits onto the spin-1 triplet subspace.

    P = |+1><11| + (1/sqrt 2)|0>(<01| + <10|) + |-1><00|, with the spin-1
    basis ordered (|+1>, |0>, |-1>).
    """
    data = np.zeros((3, 2, 2), dtype=complex)
    data[0, 1, 1] = 1.0
    data[1, 0, 1] = 1.0 / _SQRT2
    data[1, 1, 0] = 1.0 / _SQRT2
    data[2, 0, 0] = 1.0
    return Tensor(data, [WireSpec("o0", 3, UPPER), WireSpec("i0", 2, LOWER), WireSpec("i1", 2, LOWER)])
