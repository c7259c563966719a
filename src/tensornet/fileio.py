"""The plain-text input formats' shared reading rules, and the amplitude
files of the CLI and the MPS tools.

Every format (DIMACS CNF and edge lists in ``counting``, amplitudes here)
reads its lines through ``_lines`` and its numbers through ``_numbers``:
lines are numbered from 1, a line with no token (blank, or only a
comment) is skipped, and a token that is not the number the format wants
raises ``ParseError`` naming the token and its line.  A number is written
in ASCII without ``_``.

Amplitude format: first line ``dims d1 d2 ... dn``; each following
non-empty line holds one ``re im`` pair, in row-major order over the
wires.  There is no comment syntax.  Every amplitude, and the norm of the
state, must be finite.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import ParseError
from .tensor import UPPER, Tensor, WireSpec, _norm


def _lines(text: str, comment: str | None = None) -> Iterator[tuple[int, list[str]]]:
    """Each line of ``text`` that has a token, as its number (from 1) and
    its tokens; with ``comment``, every line ends at its first ``comment``."""
    for no, line in enumerate(text.splitlines(), start=1):
        toks = (line.partition(comment)[0] if comment else line).split()
        if toks:
            yield no, toks


def _numbers(no: int | list[int], toks: list[str], kind: type, what: str) -> list:
    """``toks`` converted by ``kind`` (int or float) in one call.  ``no`` is
    their line, or a list of each token's line; the first token that does
    not convert, or that holds ``_`` or a non-ASCII character (``1_0``, a
    full-width ``３``, which ``int`` and ``float`` take), is refused as
    ``ParseError(line, "<what> '<token>'")``.  A leading ``+`` is taken."""
    joined = "".join(toks)
    try:
        if joined.isascii() and "_" not in joined:
            return [*map(kind, toks)]
    except ValueError:
        pass
    for k, tok in enumerate(toks):  # only when some token is refused
        try:
            if tok.isascii() and "_" not in tok:
                kind(tok)
                continue
        except ValueError:
            pass
        raise ParseError(no if isinstance(no, int) else no[k], f"{what} {tok!r}")


def parse_amplitudes(text: str) -> Tensor:
    lines = _lines(text)
    no, header = next(lines, (1, [""]))
    if header[0] != "dims":
        raise ParseError(no, "expected header 'dims d1 d2 ...'")
    dims = _numbers(no, header[1:], int, "non-integer dimension")
    if not dims or min(dims) < 1:
        raise ParseError(no, f"dimensions must be positive integers, got {dims}")
    want = math.prod(dims)
    toks, nos, stop = [], [], None  # the amplitude tokens, the line of each, and what stopped the reading
    for no, pair in lines:
        if len(pair) != 2:
            stop = ParseError(no, f"expected 're im' pair, got {' '.join(pair)!r}")
            break
        toks += pair
        nos += no, no
        if len(nos) > 2 * want:
            stop = ParseError(no, f"more than {want} amplitudes for dims {dims}")
            break
    # the lines before the one that stopped the reading are read, and checked finite, first
    values = np.array(_numbers(nos, toks, float, "non-numeric amplitude"))
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ParseError(nos[bad[0]], f"non-finite amplitude {toks[bad[0]]!r}")
    if stop:
        raise stop
    amps = values.view(complex)
    if len(amps) != want:
        raise ParseError(len(text.splitlines()), f"got {len(amps)} amplitudes, dims {dims} require {want}")
    if not math.isfinite(_norm(amps)):
        raise ParseError(len(text.splitlines()), "amplitudes too large: their norm overflows")
    return Tensor(amps, [WireSpec(f"s{k}", d, UPPER) for k, d in enumerate(dims)])


def read_amplitudes(path) -> Tensor:
    return parse_amplitudes(Path(path).read_text(encoding="utf-8"))


def format_amplitudes(t: Tensor) -> str:
    lines = ["dims " + " ".join(str(w.dim) for w in t.wires)]
    for c in t.data.reshape(-1):
        lines.append(f"{c.real:.17g} {c.imag:.17g}")
    return "\n".join(lines) + "\n"


def write_amplitudes(path, t: Tensor) -> None:
    Path(path).write_text(format_amplitudes(t), encoding="utf-8")
