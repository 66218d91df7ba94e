"""Text formats for point sets and line families.

Point/line files: header `q n kind`, then one row per element with field
elements written as base-p digit tokens (digits of the element code, most
significant first, joined by '-' for extension fields).  A point row has
n tokens; a line row has 2n tokens (direction vector, then base point).
Round trips are bit-exact.

Rows are written and read in blocks.  The writer gathers a block's bytes
from a table of every element's token (_format).  The reader decodes a
block with array operations when it formats back to its own bytes
(_decode_block), and any other block row by row (_parse_rows).
"""
from __future__ import annotations

from functools import lru_cache
from io import StringIO

import numpy as np

from .geom import LineFamily, PointSet, affine_space
from .gf import field_of_order

# characters read per block (then on to the end of its row); rows written per block
READ_BLOCK, WRITE_BLOCK = 1 << 14, 1 << 15


class FormatError(ValueError):
    pass


@lru_cache(maxsize=None)
def _codec(q: int) -> np.ndarray:
    """A (2q, width) uint8 table: row a holds the token of element code a
    of GF(q) and a space, row q + a the token and a newline, then zeros."""
    ctx = field_of_order(q)
    tokens = ["-".join(map(str, reversed(ctx.decode(a)))) for a in range(q)]
    ends = np.array([t + end for end in " \n" for t in tokens], dtype=bytes)
    return ends.view(np.uint8).reshape(2 * q, -1)


def _token_to_elem(ctx, tok: str) -> int:
    """Parse any token the format accepts, such as '01' for 1."""
    try:
        digits = [int(d) for d in tok.split("-")]
    except ValueError:
        raise FormatError(f"bad element token {tok!r} for GF({ctx.q})") from None
    if len(digits) != ctx.k or any(not 0 <= d < ctx.p for d in digits):
        raise FormatError(f"bad element token {tok!r} for GF({ctx.q})")
    return ctx.encode(digits[::-1])


def _format(q: int, rows: np.ndarray) -> bytes:
    """The text of rows of element codes, gathered from the token table."""
    out = _codec(q)[rows + q * (np.arange(rows.shape[1]) == rows.shape[1] - 1)]
    return out[out != 0].tobytes()


def _write_rows(path: str, header: str, q: int, items: np.ndarray, rows):
    """Write the header and the rows(items[s]) of each block s of items."""
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        for start in range(0, len(items), WRITE_BLOCK):
            fh.write(_format(q, rows(items[start:start + WRITE_BLOCK])))


def save_pointset(pset: PointSet, path: str):
    sp = affine_space(pset.q, pset.n)
    _write_rows(path, f"{pset.q} {pset.n} points", sp.q, pset.indices(),
                lambda pts: sp.point_coords(pts).T)


def save_linefamily(fam: LineFamily, path: str):
    sp = fam.space
    _write_rows(path, f"{sp.q} {sp.n} lines", sp.q, fam.lines, lambda lines: np.concatenate(
        [sp.proj.array[lines[:, 0]], sp.point_coords(lines[:, 1]).T], axis=1))


def _read_header(line: str):
    parts = line.split()
    if len(parts) != 3 or parts[2] not in ("points", "lines"):
        raise FormatError(f"bad header {line!r}")
    return int(parts[0]), int(parts[1]), parts[2]


def _parse_rows(lines, ctx, width: int, kind: str) -> list:
    """The element codes of rows of width tokens, one row at a time,
    skipping blank rows; a line row must not start with a zero direction."""
    ndir = width // 2 if kind == "line" else 0
    flat = []
    for line in lines:
        toks = line.split()
        if not toks:
            continue
        if len(toks) != width:
            raise FormatError(f"{kind} row needs {width} tokens: {line!r}")
        vals = [_token_to_elem(ctx, t) for t in toks]
        if ndir and not any(vals[:ndir]):
            raise FormatError(f"line row has a zero direction: {line!r}")
        flat += vals
    return flat


def _decode_block(block: bytes, ctx, width: int, ndir: int):
    """The (rows, width) element codes of a block exactly as _format writes
    it, or None: its digit groups (runs of digits between other bytes) are
    read as numbers, and the codes they give must format back to it."""
    d = np.frombuffer(b"\n" + block, dtype=np.uint8).astype(np.int64) - ord("0")
    ends = np.flatnonzero((d < 0) | (d > 9))  # ends[0] = 0, then one byte after each group
    if (len(ends) - 1) % (width * ctx.k):
        return None
    d[ends] = 0
    vals = d[ends[1:] - 1]
    for j in range(1, len(str(ctx.p - 1))):  # digit j from the right, or 0
        vals += d[np.maximum(ends[1:] - 1 - j, ends[:-1])] * 10 ** j
    rows = (vals.reshape(-1, ctx.k) @ ctx.p ** np.arange(ctx.k - 1, -1, -1)).reshape(-1, width)
    bad = rows.max(initial=0) >= ctx.q or (ndir and not rows[:, :ndir].any(axis=1).all())
    return None if bad or _format(ctx.q, rows) != block else rows


def _read_rows(fh, ctx, width: int, kind: str):
    """Yield the (rows, width) element codes of the remaining rows, a block
    of whole rows at a time: by _decode_block, or when it refuses the block
    by _parse_rows, which raises the error of the block's first bad row."""
    ndir = width // 2 if kind == "line" else 0
    while block := fh.read(READ_BLOCK):
        block += fh.readline()
        rows = _decode_block(block.encode(), ctx, width, ndir)
        if rows is None:
            rows = np.array(_parse_rows(StringIO(block), ctx, width, kind),
                            dtype=np.int64).reshape(-1, width)
        yield rows


def load_pointset(path: str) -> PointSet:
    """The point set of a points file, its rows read a block at a time
    (_read_rows); FormatError on a bad header, row or token."""
    with open(path) as fh:
        q, n, kind = _read_header(fh.readline())
        if kind != "points":
            raise FormatError(f"{path} holds {kind}, not points")
        sp = affine_space(q, n)
        out = PointSet(q, n)
        for rows in _read_rows(fh, sp.ctx, n, "point"):
            out.mask[rows @ q ** np.arange(n)] = True
    return out


def load_linefamily(path: str) -> LineFamily:
    with open(path) as fh:
        q, n, kind = _read_header(fh.readline())
        if kind != "lines":
            raise FormatError(f"{path} holds {kind}, not lines")
        sp = affine_space(q, n)
        rows = np.concatenate([*_read_rows(fh, sp.ctx, 2 * n, "line"), np.zeros((0, 2 * n), int)])
    dirs = sp.proj.ids(rows[:, :n])
    bases = sp.line_points(dirs, rows[:, n:] @ q ** np.arange(n)).min(axis=1)
    return LineFamily(sp, np.stack([dirs, bases], axis=1))
