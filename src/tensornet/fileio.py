"""Plain-text amplitude files shared by the CLI and the MPS tools.

Format: first line ``dims d1 d2 ... dn``; each following non-empty line
holds one ``re im`` pair, in row-major order over the wires.  Every
amplitude, and the norm of the state, must be finite.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import ParseError
from .tensor import UPPER, Tensor, WireSpec, _norm


def parse_amplitudes(text: str) -> Tensor:
    lines = text.splitlines()
    header = None
    header_no = 0
    for no, line in enumerate(lines, start=1):
        if line.strip():
            header, header_no = line.split(), no
            break
    if header is None or header[0] != "dims":
        raise ParseError(header_no or 1, "expected header 'dims d1 d2 ...'")
    try:
        dims = [int(tok) for tok in header[1:]]
    except ValueError:
        raise ParseError(header_no, f"non-integer dimension in header: {header[1:]}")
    if not dims or any(d < 1 for d in dims):
        raise ParseError(header_no, f"dimensions must be positive integers, got {dims}")
    want = math.prod(dims)
    values = []
    for no, line in enumerate(lines[header_no:], start=header_no + 1):
        if not line.strip():
            continue
        toks = line.split()
        if len(toks) != 2:
            raise ParseError(no, f"expected 're im' pair, got {line.strip()!r}")
        try:
            values.append(complex(float(toks[0]), float(toks[1])))
        except ValueError:
            raise ParseError(no, f"non-numeric amplitude {line.strip()!r}")
        if len(values) > want:
            raise ParseError(no, f"more than {want} amplitudes for dims {dims}")
    if len(values) != want:
        raise ParseError(len(lines), f"got {len(values)} amplitudes, dims {dims} require {want}")
    amps = np.array(values)
    if not np.isfinite(amps).all():  # name its line: the non-empty lines are the header, then the amplitudes
        no = [k for k, line in enumerate(lines, start=1) if line.strip()][1 + np.isfinite(amps).argmin()]
        raise ParseError(no, f"non-finite amplitude {lines[no - 1].strip()!r}")
    if not math.isfinite(_norm(amps)):
        raise ParseError(len(lines), "amplitudes too large: their norm overflows")
    wires = [WireSpec(f"s{k}", d, UPPER) for k, d in enumerate(dims)]
    return Tensor(amps, wires)


def read_amplitudes(path) -> Tensor:
    return parse_amplitudes(Path(path).read_text(encoding="utf-8"))


def format_amplitudes(t: Tensor) -> str:
    lines = ["dims " + " ".join(str(w.dim) for w in t.wires)]
    for c in t.data.reshape(-1):
        lines.append(f"{c.real:.17g} {c.imag:.17g}")
    return "\n".join(lines) + "\n"


def write_amplitudes(path, t: Tensor) -> None:
    Path(path).write_text(format_amplitudes(t), encoding="utf-8")
