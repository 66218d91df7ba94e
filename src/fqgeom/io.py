"""Text formats for point sets and line families.

Point/line files: header `q n kind`, then one row per element with field
elements written as base-p digit tokens (digits of the element code, most
significant first, joined by '-' for extension fields).  A point row has
n tokens; a line row has 2n tokens (direction vector, then base point).
Round trips are bit-exact.
"""
from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain

import numpy as np

from .geom import LineFamily, PointSet, affine_space
from .gf import field_of_order


class FormatError(ValueError):
    pass


@lru_cache(maxsize=None)
def _codec(q: int):
    """The token of every element code of GF(q), and the inverse dict."""
    ctx = field_of_order(q)
    tokens = ["-".join(map(str, reversed(ctx.decode(a)))) for a in range(q)]
    return tokens, {t: a for a, t in enumerate(tokens)}


def _token_to_elem(ctx, tok: str) -> int:
    """Parse any token the format accepts, such as '01' for 1; the table
    holds only the tokens the writer makes."""
    try:
        digits = [int(d) for d in tok.split("-")]
    except ValueError:
        raise FormatError(f"bad element token {tok!r} for GF({ctx.q})") from None
    if len(digits) != ctx.k or any(not 0 <= d < ctx.p for d in digits):
        raise FormatError(f"bad element token {tok!r} for GF({ctx.q})")
    return ctx.encode(digits[::-1])


def _write_rows(path: str, header: str, q: int, rows: np.ndarray):
    tokens = _codec(q)[0]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(" ".join(map(tokens.__getitem__, row)) + "\n"
                      for row in rows.tolist())


def save_pointset(pset: PointSet, path: str):
    sp = affine_space(pset.q, pset.n)
    _write_rows(path, f"{pset.q} {pset.n} points", sp.q, sp.point_coords(pset.indices()).T)


def save_linefamily(fam: LineFamily, path: str):
    sp = fam.space
    dirs, bases = fam.lines.T
    rows = np.concatenate([sp.proj.array[dirs], sp.point_coords(bases).T], axis=1)
    _write_rows(path, f"{sp.q} {sp.n} lines", sp.q, rows)


def _read_header(line: str):
    parts = line.split()
    if len(parts) != 3 or parts[2] not in ("points", "lines"):
        raise FormatError(f"bad header {line!r}")
    return int(parts[0]), int(parts[1]), parts[2]


def _parse_rows(lines, ctx, width: int, kind: str) -> list:
    """The element codes of rows of width tokens, one row at a time,
    skipping blank rows; a line row must not start with a zero direction."""
    codes = _codec(ctx.q)[1]
    ndir = width // 2 if kind == "line" else 0
    flat = []
    for line in lines:
        toks = line.split()
        if not toks:
            continue
        if len(toks) != width:
            raise FormatError(f"{kind} row needs {width} tokens: {line!r}")
        try:
            vals = [codes[t] for t in toks]
        except KeyError:
            vals = [_token_to_elem(ctx, t) for t in toks]
        if ndir and not any(vals[:ndir]):
            raise FormatError(f"line row has a zero direction: {line!r}")
        flat += vals
    return flat


def _map_rows(lines, codes, width: int, ndir: int):
    """The (rows, width) element codes of a chunk of rows, skipping blank
    rows, when every row has width tokens that the writer makes and no
    zero direction in its first ndir; else None."""
    rows = list(filter(None, map(str.split, lines)))
    if set(map(len, rows)) - {width}:
        return None
    try:
        vals = np.fromiter(map(codes.__getitem__, chain.from_iterable(rows)), dtype=np.int64)
    except KeyError:
        return None
    vals = vals.reshape(-1, width)
    if ndir and not vals[:, :ndir].any(axis=1).all():
        return None
    return vals


def _read_rows(fh, ctx, width: int, kind: str) -> np.ndarray:
    """The element codes of the remaining rows of width tokens, read in
    chunks of about 4 KB: a chunk is mapped whole by _map_rows, or, when
    that refuses it, row by row by _parse_rows, which accepts any digit
    spelling and raises the error of the chunk's first bad row."""
    codes = _codec(ctx.q)[1]
    ndir = width // 2 if kind == "line" else 0
    chunks = [np.zeros((0, width), dtype=np.int64)]
    for lines in iter(partial(fh.readlines, 4096), []):
        vals = _map_rows(lines, codes, width, ndir)
        if vals is None:
            vals = np.array(_parse_rows(lines, ctx, width, kind), dtype=np.int64).reshape(-1, width)
        chunks.append(vals)
    return np.concatenate(chunks)


def load_pointset(path: str) -> PointSet:
    """The point set of a points file, its rows parsed a chunk at a time
    (_read_rows); FormatError on a bad header, row or token."""
    with open(path) as fh:
        q, n, kind = _read_header(fh.readline())
        if kind != "points":
            raise FormatError(f"{path} holds {kind}, not points")
        sp = affine_space(q, n)
        rows = _read_rows(fh, sp.ctx, n, "point")
    out = PointSet(q, n)
    out.mask[rows @ q ** np.arange(n)] = True
    return out


def load_linefamily(path: str) -> LineFamily:
    with open(path) as fh:
        q, n, kind = _read_header(fh.readline())
        if kind != "lines":
            raise FormatError(f"{path} holds {kind}, not lines")
        sp = affine_space(q, n)
        rows = _read_rows(fh, sp.ctx, 2 * n, "line")
    dirs = sp.proj.ids(rows[:, :n])
    bases = sp.line_points(dirs, rows[:, n:] @ q ** np.arange(n)).min(axis=1)
    return LineFamily(sp, np.stack([dirs, bases], axis=1))
