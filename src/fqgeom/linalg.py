"""Exact linear algebra over finite fields.

One elimination path for every GF(q): Gauss-Jordan elimination on a numpy
array of element codes, written against the FieldCtx array kernel
(``vmul``, ``vsubmul``).  The reduced row echelon form is unique, so the
kernel basis read off it does not depend on the order of the input rows.
"""
from __future__ import annotations

import numpy as np

from .gf import FieldCtx


def rref(mat, ctx: FieldCtx):
    """Reduced row echelon form of a 2-D array of element codes; returns
    (rref, pivot_cols).  The input is not modified."""
    a = np.array(mat, dtype=np.int64)
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        pr = r + nz[0]
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = ctx.vmul(a[r], ctx.inv(int(a[r, c])))
        col = a[:, c].copy()
        col[r] = 0
        a = ctx.vsubmul(a, col[:, None], a[r][None, :])
        pivots.append(c)
        r += 1
    return a, pivots


def nullspace(mat, ctx: FieldCtx) -> np.ndarray:
    """Basis of the right kernel of mat, one row per non-pivot column in
    increasing order: that column set to 1, the other free columns 0."""
    a, pivots = rref(mat, ctx)
    is_pivot = np.zeros(a.shape[1], dtype=bool)
    is_pivot[pivots] = True
    free = np.flatnonzero(~is_pivot)
    basis = np.zeros((free.size, a.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = ctx.neg_table[a[:len(pivots), free]].T
    return basis
