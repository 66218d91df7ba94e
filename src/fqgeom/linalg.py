"""Exact linear algebra over finite fields.

``rref`` and ``nullspace`` take one (r, c) matrix of element codes or a
stack (..., r, c) of them.  The reduced row echelon form is unique, so the
kernel basis read off it does not depend on the order of the input rows, on
the route the elimination takes, nor on whether a matrix came alone or in a
stack.  Two routes share the work:

- one matrix over a prime field: Gauss-Jordan elimination with the
  reduction mod p delayed, as in FFLAS-FFPACK (Dumas-Giorgi-Pernet,
  arXiv:cs/0601133), on panels of PANEL columns in the narrowest integer
  dtype that holds the proven bound on the unreduced entries
  (``gf.exact_dtype``), with float64 BLAS products carrying each panel to
  the columns on its right;
- a stack, and one matrix over GF(p^k), k > 1, as a stack of one: every
  matrix's pivot in a column at once, through the field's ``vmul`` and
  ``vsubmul``, so a stack costs c array steps, not one Python call per
  matrix.
"""
from __future__ import annotations

import numpy as np

from .gf import FieldCtx, exact_dtype

# columns per panel of the prime-field elimination, and per block of a
# panel's trailing update: the interpolate benchmark's q = 7 systems (at
# most 188 columns) are one panel, which records no row transform
PANEL = 256


def rref(mat, ctx: FieldCtx):
    """Reduced row echelon form of an (r, c) array of element codes, or of
    each matrix of a stack (..., r, c); returns (rref, pivots), where rref
    is int64 and pivots is a boolean (..., c) array marking each matrix's
    pivot columns (its rank is their count).  The input is not modified.

    A pivot updates whole columns, from the pivot on (the pivot row is zero
    to its left; one matrix over a prime field stops at its panel's end),
    with the multiplier of the pivot row set to 0.  One matrix over a prime
    field takes one pivot per step.  A stack, and one matrix over GF(p^k),
    k > 1, as a stack of one, takes in each column every matrix's pivot at
    once (its first nonzero entry below the rows already pivoted), reducing
    every entry, and a matrix with none there is left as it is.

    One matrix over a prime field reduces only the pivot column and row at
    a step, and the rest once per panel.  A step adds the product of two
    reduced codes to an entry, and a panel takes at most min(r, c, PANEL)
    steps, so |entry| stays within (p-1) + min(r, c, PANEL)*(p-1)^2.  So do
    the float64 products that carry a panel's row transform to the columns
    on its right: sums of at most that many products of reduced codes, plus
    a reduced code."""
    mat = np.asarray(mat)
    if ctx.k == 1 and mat.ndim == 2:
        return _rref_prime(mat, ctx.p)
    a = np.array(mat, dtype=np.int64)
    *lead, rows, cols = a.shape
    stack = a.reshape((int(np.prod(lead)), rows, cols))
    return a, _rref_stack(stack, ctx).reshape(a.shape[:-2] + (cols,))


def _rref_prime(mat, p: int):
    """rref of one (r, c) matrix over GF(p), panel by panel: (int64 rref,
    pivot mask).  Rows at and below the rank are zero in every column
    already eliminated, so a row swap moves only the current panel; the
    columns to its right take the panel's row order and transform after
    it, PANEL columns at a time, so no copy of them is wider.  The panel's
    transform changes a row only by multiples of its pivot rows, as they
    stood when each was picked.  So it is recorded in one extra column per
    pivot, set to 1 in the pivot row when it is picked, that the panel's
    steps update with the other columns."""
    rows, cols = mat.shape
    bound = (p - 1) + min(rows, cols, PANEL) * (p - 1) ** 2
    a = np.array(mat, dtype=exact_dtype(bound))
    if cols > PANEL:
        exact_dtype(bound, (np.float64,))
    pivots = np.zeros(cols, dtype=bool)
    r = 0
    for c0 in range(0, cols, PANEL):
        if r == rows:
            break
        w = min(PANEL, cols - c0)
        track = c0 + w < cols
        r0 = r
        if track:
            work = np.zeros((rows, w + min(w, rows - r0)), dtype=a.dtype)
            work[:, :w] = a[:, c0:c0 + w]
            order = np.arange(rows)
        else:
            work = a[:, c0:]
        for c in range(w):
            if r == rows:
                break
            # the multipliers, reduced; the column itself reaches multiples
            # of p, which the panel's last reduction zeroes
            col = work[:, c] % p
            if not col[r]:
                nz = np.flatnonzero(col[r:])
                if nz.size == 0:
                    continue
                pr = r + nz[0]
                work[[r, pr]] = work[[pr, r]]
                col[[r, pr]] = col[[pr, r]]
                if track:
                    order[[r, pr]] = order[[pr, r]]
            # the transform's columns past this pivot's are still zero
            end = w + r - r0 + 1 if track else w
            if track:
                work[r, end - 1] = 1
            row = work[r, c:end]
            row %= p
            row *= pow(int(col[r]), -1, p)
            row %= p
            col[r] = 0
            work[:, c:end] -= col[:, None] * row
            pivots[c0 + c] = True
            r += 1
        work %= p
        if track:
            a[:, c0:c0 + w] = work[:, :w]
            if r > r0:
                transform = work[:, w:w + r - r0].astype(np.float64)
                for b0 in range(c0 + w, cols, PANEL):
                    rest = a[order, b0:b0 + PANEL]
                    picked = rest[r0:r].astype(np.float64)
                    rest[r0:r] = 0
                    prod = transform @ picked
                    prod += rest
                    a[:, b0:b0 + PANEL] = np.fmod(prod, p, out=prod)
    return a.astype(np.int64), pivots


def _rref_stack(a, ctx: FieldCtx) -> np.ndarray:
    """rref's elimination of a (B, r, c) stack, in place; returns its
    (B, c) pivot mask.  Matrix b's next pivot row is rank[b]; a matrix with
    no pivot in column c swaps that row with itself, scales it by 1 and
    subtracts a zero column, so the whole stack takes the same steps."""
    items, rows, cols = a.shape
    pivots = np.zeros((items, cols), dtype=bool)
    rank = np.zeros(items, dtype=np.int64)
    every = np.arange(items)
    for c in range(cols):
        open_rows = rank < rows
        if not open_rows.any():
            break
        cand = (a[:, :, c] != 0) & (np.arange(rows) >= rank[:, None])
        pr = cand.argmax(axis=1)
        has = cand[every, pr]
        r = np.where(open_rows, rank, rows - 1)
        pr = np.where(has, pr, r)
        a[every, r], a[every, pr] = a[every, pr], a[every, r]
        row = a[every, r, c:]
        scale = np.where(has, ctx.inv_table[row[:, 0]], 1)
        row = ctx.vmul(row, scale[:, None])
        a[every, r, c:] = row
        col = np.where(has[:, None], a[:, :, c], 0)
        col[every, r] = 0
        a[:, :, c:] = ctx.vsubmul(a[:, :, c:], col[:, :, None], row[:, None, :])
        pivots[:, c] = has
        rank += has
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
