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
from .tensor import LOWER, UPPER, Tensor, WireSpec, matrix

_SQRT2 = math.sqrt(2.0)


def _gate(data, n_out: int, n_in: int, d: int = 2) -> Tensor:
    wires = [WireSpec(f"o{k}", d, UPPER) for k in range(n_out)]
    wires += [WireSpec(f"i{k}", d, LOWER) for k in range(n_in)]
    return Tensor(data, wires)


def identity(d: int = 2) -> Tensor:
    return matrix(np.eye(d), "o0", "i0")


def cup(d: int = 2) -> Tensor:
    """|cup> = sum_k |kk>, the unnormalized Bell state; two UPPER wires."""
    data = np.eye(d, dtype=complex)
    return Tensor(data, [WireSpec("o0", d, UPPER), WireSpec("o1", d, UPPER)])


def cap(d: int = 2) -> Tensor:
    """<cap| = sum_k <kk|; two LOWER wires."""
    data = np.eye(d, dtype=complex)
    return Tensor(data, [WireSpec("i0", d, LOWER), WireSpec("i1", d, LOWER)])


def swap(d: int = 2) -> Tensor:
    """SWAP^{ij}_{kl} = delta^i_l delta^j_k."""
    data = np.zeros((d, d, d, d), dtype=complex)
    for i, j in itertools.product(range(d), repeat=2):
        data[i, j, j, i] = 1.0
    return _gate(data, 2, 2, d)


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
    data = np.zeros((2, 2, 2, 2), dtype=complex)
    for a, b in itertools.product(range(2), repeat=2):
        data[a, a ^ b, a, b] = 1.0
    return _gate(data, 2, 2)


def toffoli() -> Tensor:
    """Doubly-controlled NOT: |a, b, c xor (a and b)><a, b, c|."""
    data = np.zeros((2,) * 6, dtype=complex)
    for a, b, c in itertools.product(range(2), repeat=3):
        data[a, b, c ^ (a & b), a, b, c] = 1.0
    return _gate(data, 3, 3)


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
    data = np.zeros((2,) * n, dtype=complex)
    for bits in itertools.product(range(2), repeat=n):
        if sum(bits) % 2 == 0:
            data[bits] = 1.0
    return _gate(data, n_out, n_in)


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
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def antisymmetrizer(n: int, d: int) -> Tensor:
    """Order-(n,n) projector onto the antisymmetric subspace.

    (1/n!) sum over permutations sigma of sign(sigma) times the
    corresponding permutation tensor.  Identically zero when d < n.
    """
    check_elements(d, 2 * n, "antisymmetrizer")
    data = np.zeros((d,) * (2 * n), dtype=complex)
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        for i_tup in itertools.product(range(d), repeat=n):
            j_tup = [0] * n
            for k in range(n):
                j_tup[perm[k]] = i_tup[k]
            data[i_tup + tuple(j_tup)] += sign
    data /= math.factorial(n)
    wires = [WireSpec(f"o{k}", d, UPPER) for k in range(n)]
    wires += [WireSpec(f"i{k}", d, LOWER) for k in range(n)]
    return Tensor(data, wires)


def and_tensor() -> Tensor:
    """AND = sum |x1 and x2><x1, x2|."""
    data = np.zeros((2, 2, 2), dtype=complex)
    for x1, x2 in itertools.product(range(2), repeat=2):
        data[x1 & x2, x1, x2] = 1.0
    return _gate(data, 1, 2)


def or_tensor() -> Tensor:
    """OR = sum |x1 or x2><x1, x2|."""
    data = np.zeros((2, 2, 2), dtype=complex)
    for x1, x2 in itertools.product(range(2), repeat=2):
        data[x1 | x2, x1, x2] = 1.0
    return _gate(data, 1, 2)


def not_tensor() -> Tensor:
    """Logical NOT; identical components to the Pauli X gate."""
    return _gate(np.array([[0, 1], [1, 0]], dtype=complex), 1, 1)


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
