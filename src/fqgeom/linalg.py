"""Exact linear algebra over finite fields.

``rref`` and ``nullspace`` take one (r, c) matrix of element codes.  The
reduced row echelon form is unique, so the kernel basis read off it does
not depend on the order of the input rows nor on the route the elimination
takes.  Two routes share the work:

- over a prime field: Gauss-Jordan elimination with the reduction mod p
  delayed, as in FFLAS-FFPACK (Dumas-Giorgi-Pernet, arXiv:cs/0601133), on
  panels of PANEL columns in the narrowest integer dtype that holds the
  proven bound on the unreduced entries (``gf.exact_dtype``), with float64
  BLAS products carrying each panel to the columns on its right;
- over GF(p^k), k > 1: one pivot at a time through the field's ``vmul``
  and ``vsubmul`` tables, which reduce every entry at every step.
"""
from __future__ import annotations

import numpy as np

from .gf import FieldCtx, exact_dtype

# columns per panel of the prime-field elimination, and per block of a
# panel's trailing update: the interpolate benchmark's q = 7 systems (at
# most 188 columns) are one panel, which records no row transform
PANEL = 256


def rref(mat, ctx: FieldCtx):
    """Reduced row echelon form of one (r, c) array of element codes;
    returns (rref, pivots): rref in int64, and a boolean (c,) mask of the
    pivot columns (the rank is their count).  The input is not modified;
    ValueError on any array that is not 2-D.

    A pivot updates whole columns, from the pivot on (the pivot row is zero
    to its left; over a prime field it stops at its panel's end), with the
    multiplier of the pivot row set to 0.  Over GF(p^k), k > 1, a pivot is a
    row swap, one vmul and one vsubmul, every entry reduced by the tables.

    Over a prime field only the pivot column and row are reduced at a
    step, and the rest once per panel.  A step adds the product of two
    reduced codes to an entry, and a panel takes at most min(r, c, PANEL)
    steps, so |entry| stays within (p-1) + min(r, c, PANEL)*(p-1)^2.  So do
    the float64 products that carry a panel's row transform to the columns
    on its right: sums of at most that many products of reduced codes, plus
    a reduced code."""
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError(f"rref needs one (r, c) matrix, not shape {mat.shape}")
    if ctx.k == 1:
        return _rref_prime(mat, ctx.p)
    a = np.array(mat, dtype=np.int64)
    pivots = np.zeros(a.shape[1], dtype=bool)
    r = 0
    for c in range(a.shape[1]):
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        row = ctx.vmul(a[r, c:], ctx.inv_table[a[r, c]])
        a[:, c:] = ctx.vsubmul(a[:, c:], a[:, c, None], row)
        a[r, c:] = row
        pivots[c] = True
        r += 1
    return a, pivots


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


def nullspace(mat, ctx: FieldCtx) -> np.ndarray:
    """Basis of the right kernel of one (r, c) matrix, one row per
    non-pivot column in increasing order: that column set to 1, the other
    free columns 0, and minus the column's rref entries at the pivots."""
    a, pivots = rref(mat, ctx)
    pc, fc = np.flatnonzero(pivots), np.flatnonzero(~pivots)
    basis = np.zeros((len(fc), a.shape[1]), dtype=np.int64)
    basis[:, pc] = ctx.neg_table[a[:len(pc), fc]].T
    basis[np.arange(len(fc)), fc] = 1
    return basis
