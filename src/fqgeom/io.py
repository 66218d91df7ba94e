"""Text formats for point sets, line families, and polynomials.

Point/line files: header `q n kind`, then one row per element with field
elements written as base-p digit tokens (digits of the element code, most
significant first, joined by '-' for extension fields).  A point row has
n tokens; a line row has 2n tokens (direction vector, then base point).
Round trips are bit-exact.

Polynomial files: header `q n`, then one monomial per row as
`coeff e1 ... en`.
"""
from __future__ import annotations

import numpy as np

from .geom import LineFamily, PointSet, affine_space
from .gf import field_of_order
from .poly import MonomialBasis, MultiPoly


class FormatError(ValueError):
    pass


def _elem_to_token(ctx, a: int) -> str:
    digits = list(ctx.decode(a))[::-1]  # most significant first
    return "-".join(str(d) for d in digits)


def _token_to_elem(ctx, tok: str) -> int:
    digits = [int(d) for d in tok.split("-")]
    if len(digits) != ctx.k or any(not 0 <= d < ctx.p for d in digits):
        raise FormatError(f"bad element token {tok!r} for GF({ctx.q})")
    return ctx.encode(digits[::-1])


def save_pointset(pset: PointSet, path: str):
    sp = affine_space(pset.q, pset.n)
    ctx = sp.ctx
    with open(path, "w") as fh:
        fh.write(f"{pset.q} {pset.n} points\n")
        for idx in pset.indices():
            row = " ".join(_elem_to_token(ctx, c) for c in sp.coords(int(idx)))
            fh.write(row + "\n")


def save_linefamily(fam: LineFamily, path: str):
    sp = fam.space
    ctx = sp.ctx
    with open(path, "w") as fh:
        fh.write(f"{sp.q} {sp.n} lines\n")
        for d, base in fam.lines():
            vec = sp.directions[d]
            pt = sp.coords(base)
            row = " ".join(_elem_to_token(ctx, c) for c in (*vec, *pt))
            fh.write(row + "\n")


def _read_header(line: str):
    parts = line.split()
    if len(parts) != 3 or parts[2] not in ("points", "lines"):
        raise FormatError(f"bad header {line!r}")
    return int(parts[0]), int(parts[1]), parts[2]


def load_pointset(path: str) -> PointSet:
    with open(path) as fh:
        q, n, kind = _read_header(fh.readline())
        if kind != "points":
            raise FormatError(f"{path} holds {kind}, not points")
        sp = affine_space(q, n)
        ctx = sp.ctx
        out = PointSet(q, n)
        for line in fh:
            toks = line.split()
            if not toks:
                continue
            if len(toks) != n:
                raise FormatError(f"point row needs {n} tokens: {line!r}")
            out.add(sp.index(tuple(_token_to_elem(ctx, t) for t in toks)))
        return out


def load_linefamily(path: str) -> LineFamily:
    with open(path) as fh:
        q, n, kind = _read_header(fh.readline())
        if kind != "lines":
            raise FormatError(f"{path} holds {kind}, not lines")
        sp = affine_space(q, n)
        ctx = sp.ctx
        vecs, pts = [], []
        for line in fh:
            toks = line.split()
            if not toks:
                continue
            if len(toks) != 2 * n:
                raise FormatError(f"line row needs {2 * n} tokens: {line!r}")
            vals = [_token_to_elem(ctx, t) for t in toks]
            vec, pt = tuple(vals[:n]), tuple(vals[n:])
            if not any(vec):
                raise FormatError(f"line row has a zero direction: {line!r}")
            vecs.append(vec)
            pts.append(sp.index(pt))
    dirs = sp.proj.ids(np.array(vecs, dtype=np.int64).reshape(-1, n))
    bases = sp.line_points(dirs, pts).min(axis=1)
    return LineFamily(sp, zip(dirs.tolist(), bases.tolist()))


def save_poly(g: MultiPoly, path: str):
    with open(path, "w") as fh:
        fh.write(f"{g.basis.q} {g.basis.n}\n")
        for e, c in g.support():
            fh.write(f"{c} " + " ".join(str(x) for x in e) + "\n")


def load_poly(path: str, m) -> MultiPoly:
    """Load a polynomial into the capped basis given by m (a number or
    DegreeCap); coefficients are element codes of GF(q)."""
    with open(path) as fh:
        head = fh.readline().split()
        if len(head) != 2:
            raise FormatError("polynomial header must be 'q n'")
        q, n = int(head[0]), int(head[1])
        basis = MonomialBasis(n, q, m)
        ctx = field_of_order(q)
        coeffs = [0] * len(basis)
        for line in fh:
            toks = line.split()
            if not toks:
                continue
            if len(toks) != n + 1:
                raise FormatError(f"monomial row needs {n + 1} tokens: {line!r}")
            c = int(toks[0])
            e = tuple(int(t) for t in toks[1:])
            if not 0 <= c < ctx.q:
                raise FormatError(f"coefficient {c} outside GF({q})")
            if e not in basis.index:
                raise FormatError(f"exponent {e} outside the degree cap")
            coeffs[basis.index[e]] = c
        return MultiPoly(basis, coeffs, ctx)
