"""Exact linear algebra over finite fields.

One elimination routine for every GF(q): Gauss-Jordan elimination on a
numpy array of element codes, written against the FieldCtx array kernel
(``vmul``, ``vsubmul``).  Leading axes batch: ``rref`` and ``nullspace``
take one (r, c) matrix or a stack (..., r, c) of them, and a stack costs
c array steps, not one Python call per matrix.  A single matrix keeps a
loop body without the batch axis: on interpolation's systems the stack
body's per-item indexing took 1.6-1.8x as long.  The reduced row echelon
form is unique, so the kernel basis read off it does not depend on the
order of the input rows, nor on whether a matrix came alone or in a stack.
"""
from __future__ import annotations

import numpy as np

from .gf import FieldCtx


def rref(mat, ctx: FieldCtx):
    """Reduced row echelon form of an (r, c) array of element codes, or of
    each matrix of a stack (..., r, c); returns (rref, pivots), where
    pivots is a boolean (..., c) array marking each matrix's pivot columns
    (its rank is their count).  The input is not modified.

    A pivot updates whole columns, from the pivot on (the pivot row is zero
    to its left), with the multiplier of the pivot row set to 0.  One
    matrix takes one pivot per step; a stack takes, in each column, every
    matrix's pivot at once (its first nonzero entry below the rows already
    pivoted), and a matrix with none there is left as it is.
    On prime fields the reduction mod p is delayed, as in FFLAS-FFPACK
    (Dumas-Giorgi-Pernet, arXiv:cs/0601133): a step reduces only the pivot
    column and row, and the array is reduced once at the end.  An update
    subtracts a product of two reduced entries, so in each matrix |entry|
    stays below (p-1) + rank*(p-1)^2: within int64 for p <= TABLE_LIMIT,
    rank < 2^43."""
    a = np.array(mat, dtype=np.int64)
    if a.ndim == 2:
        return a, _rref_one(a, ctx)
    *lead, rows, cols = a.shape
    stack = a.reshape((int(np.prod(lead)), rows, cols))
    return a, _rref_stack(stack, ctx).reshape(a.shape[:-2] + (cols,))


def _rref_one(a, ctx: FieldCtx) -> np.ndarray:
    """rref's elimination of one matrix, in place; returns its pivot mask."""
    rows, cols = a.shape
    lazy = ctx.k == 1
    pivots = np.zeros(cols, dtype=bool)
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
        pivots[c] = True
        r += 1
    if lazy:
        a %= ctx.p
    return pivots


def _rref_stack(a, ctx: FieldCtx) -> np.ndarray:
    """rref's elimination of a (B, r, c) stack, in place; returns its
    (B, c) pivot mask.  Matrix b's next pivot row is rank[b]; a matrix with
    no pivot in column c swaps that row with itself, scales it by 1 and
    subtracts a zero column, so the whole stack takes the same steps."""
    items, rows, cols = a.shape
    lazy = ctx.k == 1
    pivots = np.zeros((items, cols), dtype=bool)
    rank = np.zeros(items, dtype=np.int64)
    every = np.arange(items)
    for c in range(cols):
        open_rows = rank < rows
        if not open_rows.any():
            break
        if lazy:
            a[:, :, c] %= ctx.p
        cand = (a[:, :, c] != 0) & (np.arange(rows) >= rank[:, None])
        pr = cand.argmax(axis=1)
        has = cand[every, pr]
        r = np.where(open_rows, rank, rows - 1)
        pr = np.where(has, pr, r)
        a[every, r], a[every, pr] = a[every, pr], a[every, r]
        row = a[every, r, c:]
        if lazy:
            row %= ctx.p
        scale = np.where(has, ctx.inv_table[row[:, 0]], 1)
        row = ctx.vmul(row, scale[:, None])
        a[every, r, c:] = row
        col = np.where(has[:, None], a[:, :, c], 0)
        col[every, r] = 0
        if lazy:
            a[:, :, c:] -= col[:, :, None] * row[:, None, :]
        else:
            a[:, :, c:] = ctx.vsubmul(a[:, :, c:], col[:, :, None], row[:, None, :])
        pivots[:, c] = has
        rank += has
    if lazy:
        a %= ctx.p
    return pivots


def nullspace(mat, ctx: FieldCtx) -> np.ndarray:
    """Basis of the right kernel of an (r, c) matrix, one row per
    non-pivot column in increasing order: that column set to 1, the other
    free columns 0.  A stack (..., r, c) gives (..., d, c), d the largest
    kernel dimension in it (c - min(r, c) for an empty stack): each
    matrix's basis, then zero rows."""
    a, pivots = rref(mat, ctx)
    *lead, rows, cols = a.shape
    a = a.reshape((int(np.prod(lead)), rows, cols))
    pivots = pivots.reshape((len(a), cols))
    # every pivot as (matrix, column, rref row), and every free column as
    # (matrix, column, its rank j among the matrix's free columns)
    pb, pc = np.nonzero(pivots)
    pt = (np.cumsum(pivots, axis=1) - 1)[pivots]
    fb, fc = np.nonzero(~pivots)
    fj = (np.cumsum(~pivots, axis=1) - 1)[~pivots]
    dim = int(fj.max(initial=cols - min(rows, cols) - 1)) + 1
    free = np.zeros((len(a), dim), dtype=np.int64)
    free[fb, fj] = fc
    # kernel row j of matrix b holds -a[b, t, free[b, j]] at the column of
    # pivot row t, and 1 at free[b, j]; rows past the matrix's kernel are 0
    basis = np.zeros((len(a), dim, cols), dtype=np.int64)
    entries = a[pb[:, None], pt[:, None], free[pb]]
    basis[pb[:, None], np.arange(dim), pc[:, None]] = ctx.neg_table[entries]
    basis[np.arange(dim) >= cols - pivots.sum(axis=1)[:, None]] = 0
    basis[fb, fj, fc] = 1
    return basis.reshape(tuple(lead) + (dim, cols))
