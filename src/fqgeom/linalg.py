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
    (rref, pivot_cols).  The input is not modified.

    A pivot updates whole columns, from the pivot on (the pivot row is zero
    to its left), with the multiplier of the pivot row set to 0.
    On prime fields the reduction mod p is delayed, as in FFLAS-FFPACK
    (Dumas-Giorgi-Pernet, arXiv:cs/0601133): a step reduces only the pivot
    column and row, and the matrix is reduced once at the end.  An update
    subtracts a product of two reduced entries, so |entry| stays below
    (p-1) + rank*(p-1)^2: within int64 for p <= TABLE_LIMIT, rank < 2^43."""
    a = np.array(mat, dtype=np.int64)
    rows, cols = a.shape
    lazy = ctx.k == 1
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        if lazy:
            a[:, c] %= ctx.p
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        pr = r + nz[0]
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        if lazy:
            a[r, c:] %= ctx.p
        a[r, c:] = ctx.vmul(a[r, c:], ctx.inv(int(a[r, c])))
        col = a[:, c].copy()
        col[r] = 0
        if lazy:
            a[:, c:] -= col[:, None] * a[r, c:]
        else:
            a[:, c:] = ctx.vsubmul(a[:, c:], col[:, None], a[r, c:])
        pivots.append(c)
        r += 1
    if lazy:
        a %= ctx.p
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
