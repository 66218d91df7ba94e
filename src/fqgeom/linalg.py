"""Exact linear algebra over finite fields.

Two paths: a vectorized mod-p path (numpy, prime fields, used by the
interpolation solver where matrices get large) and a generic scalar path
that works over any FieldCtx (used for the small Hermitian systems).
"""
from __future__ import annotations

import numpy as np

from .gf import FieldCtx


def rref_mod_p(mat: np.ndarray, p: int):
    """Row-reduce mat in place (copy) mod p; returns (rref, pivot_cols)."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + nz[0]
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def nullspace_vector_mod_p(mat: np.ndarray, p: int):
    """One nonzero kernel vector of mat mod p, or None if the kernel is 0.

    The free column chosen is the first non-pivot column, set to 1;
    deterministic for a fixed input matrix.
    """
    a, pivots = rref_mod_p(mat, p)
    cols = a.shape[1]
    pivot_set = set(pivots)
    free = next((c for c in range(cols) if c not in pivot_set), None)
    if free is None:
        return None
    v = np.zeros(cols, dtype=np.int64)
    v[free] = 1
    for r, c in enumerate(pivots):
        if c < free:
            v[c] = (-a[r, free]) % p
    return v


# -- generic (any FieldCtx) scalar elimination for small systems --

def rref_ctx(rows, ctx: FieldCtx):
    """Row-reduce a list-of-lists of element codes; returns (rref, pivots)."""
    a = [list(r) for r in rows]
    if not a:
        return a, []
    ncols = len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(a):
            break
        pr = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = ctx.inv(a[r][c])
        a[r] = [ctx.mul(inv, x) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def rank_ctx(rows, ctx: FieldCtx) -> int:
    return len(rref_ctx(rows, ctx)[1])


def nullspace_basis_ctx(rows, ctx: FieldCtx, ncols=None):
    """Basis of the right kernel of the given rows over ctx."""
    if rows:
        ncols = len(rows[0])
    assert ncols is not None
    a, pivots = rref_ctx(rows, ctx)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = ctx.neg(a[r][free])
        basis.append(v)
    return basis
