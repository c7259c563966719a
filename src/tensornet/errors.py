"""Exception types shared across the package, and the one element limit
on dense arrays.

``MAX_ELEMENTS`` is the package's only element budget: the catalog
(``check_elements``), the contraction engine (``contract_all``) and
``enumerate_reshapes`` read it from this module each time they check, so
patching it here changes every refusal, and each refusal's message ends
with the same ``over_limit`` tail.
"""

# Largest array, in elements, that the package builds (1 GiB of complex128).
MAX_ELEMENTS = 2**26


class TensorError(ValueError):
    """Base class for tensor construction and wiring mistakes."""


class WireError(TensorError):
    """Unknown label, flavor mismatch, or illegal wire pairing."""


class ShapeError(TensorError):
    """Operand has the wrong order or dimensions for the operation."""


class DegenerateTrimError(ValueError):
    """A trim policy would discard every singular value."""


class NonIntegralError(ValueError):
    """A counting contraction did not round cleanly to an integer."""


class ParseError(ValueError):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class SizeLimitError(ValueError):
    """Operation refused because the input exceeds its size guard."""


def check_elements(dim: int, order: int, what: str) -> None:
    """Refuse a dense array of ``order`` axes of dimension ``dim`` that
    would hold more than ``MAX_ELEMENTS`` elements, before it is built."""
    # order >= bit_length already exceeds the limit for dim >= 2; checking
    # it first keeps dim ** order small for huge orders
    if dim > 1 and (order >= MAX_ELEMENTS.bit_length() or dim**order > MAX_ELEMENTS):
        raise over_limit(f"{what} would have {dim}^{order} elements")


def over_limit(head: str) -> SizeLimitError:
    """The refusal of something past ``MAX_ELEMENTS``: ``head``, then the
    limit, read as it stands now."""
    return SizeLimitError(f"{head}, over the limit of 2^{MAX_ELEMENTS.bit_length() - 1} elements")
