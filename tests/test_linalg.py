"""The elimination in linalg against brute force over small fields: every
one of the q^cols vectors is tested for membership in the kernel."""
import random
import re
from itertools import product

import numpy as np
import pytest

from fqgeom import gf, linalg
from fqgeom.gf import WidthExceeded, exact_dtype, field_of_order
from fqgeom.linalg import nullspace, rref

QS = [2, 3, 4, 5, 8, 9]


def matrices(q):
    """Seeded matrices with at most 4 columns, plus an empty one, and in
    four shapes a zero matrix and one with a zero leading column."""
    rng = random.Random(q)
    out = [np.zeros((0, 3), dtype=np.int64)]
    for rows, cols in [(2, 4), (1, 3), (3, 3), (4, 2)]:
        out.append(np.zeros((rows, cols), dtype=np.int64))
        lead = np.array([[rng.randrange(q) for _ in range(cols)] for _ in range(rows)])
        lead[:, 0] = 0
        out.append(lead)
    for _ in range(8):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.5:
            m[-1] = list(m[0])  # a repeated row lowers the rank
        out.append(np.array(m, dtype=np.int64))
    return out


def brute_kernel(ctx, mat):
    rows = mat.tolist()
    return {v for v in product(range(ctx.q), repeat=mat.shape[1])
            if all(ctx.dot(r, v) == 0 for r in rows)}


def span(ctx, basis, cols):
    out = set()
    for coeffs in product(range(ctx.q), repeat=len(basis)):
        v = [0] * cols
        for c, b in zip(coeffs, basis):
            v = [ctx.add(x, ctx.mul(c, y)) for x, y in zip(v, b)]
        out.add(tuple(v))
    return out


@pytest.mark.parametrize("q", QS)
def test_elimination_matches_brute_force(q):
    ctx = field_of_order(q)
    for mat in matrices(q):
        before = mat.copy()
        cols = mat.shape[1]
        kernel = brute_kernel(ctx, mat)
        red, mask = rref(mat, ctx)
        pivots = np.flatnonzero(mask).tolist()
        rank = len(pivots)
        assert np.array_equal(mat, before)
        # rank
        assert len(kernel) == q ** (cols - rank)
        # reduced row echelon form with the row space of the input
        assert pivots == sorted(set(pivots))
        for r, c in enumerate(pivots):
            assert red[r, c] == 1
            assert not red[r, :c].any()
            assert np.count_nonzero(red[:, c]) == 1
        assert not red[rank:].any()
        assert brute_kernel(ctx, red) == kernel
        # kernel dimension and membership; the basis spans the whole kernel
        basis = nullspace(mat, ctx).tolist()
        assert len(basis) == cols - rank
        assert all(tuple(v) in kernel for v in basis)
        assert span(ctx, basis, cols) == kernel


def gauss_jordan(rows, p):
    """Reduced row echelon form mod p, in plain Python with a reduction
    after every operation; returns (rows, pivot_cols)."""
    a = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(a[0]) if a else 0):
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


@pytest.mark.parametrize("p", [2, 1021])
def test_delayed_reduction_matches_gauss_jordan(p):
    """Delayed mod-p reduction at a large prime: the exact RREF and pivots
    of a plain Gauss-Jordan elimination, and kernel rows that M kills."""
    ctx = field_of_order(p)
    rng = np.random.default_rng(p)
    low = (rng.integers(0, p, (60, 25)) @ rng.integers(0, p, (25, 40))) % p
    large = (rng.integers(0, p, (40, 60)), rng.integers(0, p, (60, 40)), low)
    # full-rank and rank-deficient 12 x 16 matrices: a product of rank 5,
    # three zero leading columns, and the zero matrix
    small = rng.integers(0, p, (6, 12, 16))
    small[1] = (rng.integers(0, p, (12, 5)) @ rng.integers(0, p, (5, 16))) % p
    small[2, :, :3] = 0
    small[3] = 0
    for mat in (*large, *small):
        red, mask = rref(mat, ctx)
        want, want_pivots = gauss_jordan(mat.tolist(), p)
        assert np.flatnonzero(mask).tolist() == want_pivots
        assert red.tolist() == want
        kernel = nullspace(mat, ctx)
        assert len(kernel) == mat.shape[1] - len(want_pivots)
        assert not ((mat @ kernel.T) % p).any()


@pytest.mark.parametrize("q", [5, 9])
def test_refuses_anything_but_one_matrix(q):
    """rref and nullspace take one (r, c) matrix; a stack or a vector is a
    ValueError that names its shape."""
    ctx = field_of_order(q)
    for bad in (np.zeros((3, 2, 4), dtype=np.int64), np.zeros(4, dtype=np.int64)):
        for fn in (rref, nullspace):
            with pytest.raises(ValueError, match=re.escape(f"not shape {bad.shape}")):
                fn(bad, ctx)


def _extension_matrix(q, rows, cols, rng):
    """A seeded (rows, cols) matrix over GF(q) with two zero leading
    columns, a repeated row and a row that is a multiple of another, so
    its rank falls below min(rows, cols)."""
    ctx = field_of_order(q)
    mat = rng.integers(0, q, (rows, cols))
    mat[:, :2] = 0
    mat[-1] = mat[0]
    mat[-2] = ctx.vmul(mat[1], 2)
    return mat


def field_gauss_jordan(mat, ctx):
    """Reduced row echelon form over GF(q), one row operation at a time
    through the field's vmul and vsubmul; returns (rows, pivot_cols)."""
    a = np.array(mat, dtype=np.int64)
    pivots = []
    for c in range(a.shape[1]):
        r = len(pivots)
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r] = ctx.vmul(a[r], ctx.inv(int(a[r, c])))
        for i in np.flatnonzero(a[:, c]):
            if i != r:
                a[i] = ctx.vsubmul(a[i], a[i, c], a[r])
        pivots.append(c)
    return a, pivots


@pytest.mark.parametrize("q, rows, cols", [(4, 150, 300), (8, 100, 100), (9, 140, 141)])
def test_extension_matches_row_reduction(q, rows, cols):
    """One GF(p^k) matrix, eliminated through the field tables, equals byte
    for byte a row-at-a-time Gauss-Jordan elimination, and its kernel basis
    is killed by the matrix."""
    ctx = field_of_order(q)
    mat = _extension_matrix(q, rows, cols, np.random.default_rng(q))
    before = mat.copy()
    red, mask = rref(mat, ctx)
    want, want_pivots = field_gauss_jordan(mat, ctx)
    assert red.dtype == np.int64
    assert red.tobytes() == want.tobytes()
    assert np.flatnonzero(mask).tolist() == want_pivots
    assert not mask[:2].any() and mask.sum() < min(rows, cols)
    kernel = nullspace(mat, ctx)
    assert len(kernel) == cols - len(want_pivots)
    assert not ctx.dot(mat[:, None, :], kernel[None, :, :]).any()
    assert np.array_equal(mat, before)


def reference_kernel(red, pivots, cols, p):
    """The kernel basis read off a reference RREF: one row per free column,
    in increasing order, with 1 there and the negated RREF entries at the
    pivot columns."""
    out = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[f] = 1
        for t, c in enumerate(pivots):
            v[c] = -red[t][f] % p
        out.append(v)
    return out


def assert_matches_reference(mat, p):
    ctx = field_of_order(p)
    before = mat.copy()
    want, want_pivots = gauss_jordan(mat.tolist(), p)
    red, mask = rref(mat, ctx)
    assert red.dtype == np.int64 and red.tolist() == want
    assert np.flatnonzero(mask).tolist() == want_pivots
    kernel = nullspace(mat, ctx)
    assert kernel.dtype == np.int64
    assert kernel.tolist() == reference_kernel(want, want_pivots, mat.shape[1], p)
    assert np.array_equal(mat, before)


def test_exact_dtype_boundaries():
    # the narrowest signed width that holds the bound, up to each width's
    # largest value; float64 up to 2^53; WidthExceeded past the last width
    assert exact_dtype(0) == np.int16
    assert exact_dtype(2 ** 15 - 1) == np.int16
    assert exact_dtype(2 ** 15) == np.int32
    assert exact_dtype(2 ** 31 - 1) == np.int32
    assert exact_dtype(2 ** 31) == np.int64
    assert exact_dtype(2 ** 63 - 1) == np.int64
    with pytest.raises(WidthExceeded, match="int16, int32, int64"):
        exact_dtype(2 ** 63)
    assert exact_dtype(2 ** 53, (np.float64,)) == np.float64
    with pytest.raises(WidthExceeded, match="float64"):
        exact_dtype(2 ** 53 + 1, (np.float64,))


@pytest.mark.parametrize("p, rows, width", [
    (31, 36, np.int16),    # 30 + 36 * 30^2 = 32430 < 2^15
    (31, 37, np.int32),    # 30 + 37 * 30^2 = 33330 > 2^15
    (181, 1, np.int16),    # 180 + 180^2 = 32580
    (181, 2, np.int32),    # 180 + 2 * 180^2 = 64980
    (13, 227, np.int16),   # 12 + 227 * 12^2 = 32700
    (13, 228, np.int32),   # 12 + 228 * 12^2 = 32844
])
def test_width_at_the_int16_boundary(monkeypatch, p, rows, width):
    """Matrices whose bound (p-1) + min(r, c)*(p-1)^2 falls just below and
    just above 2^15 run in int16 and int32, and match Gauss-Jordan.  The
    bound counts min(r, c), the largest rank; the p = 13 matrices have
    rank 4, which keeps the reference elimination short."""
    chosen = []

    def spy(bound, widths=gf.INT_WIDTHS):
        chosen.append(gf.exact_dtype(bound, widths))
        return chosen[-1]

    monkeypatch.setattr(linalg, "exact_dtype", spy)
    rng = np.random.default_rng(p * rows)
    if p == 13:
        mat = (rng.integers(0, p, (rows, 4)) @ rng.integers(0, p, (4, rows + 3))) % p
    else:
        mat = rng.integers(0, p, (rows, rows + 5))
    assert_matches_reference(mat, p)
    assert chosen[0] == width


def _wide(p, rows, panel, rng):
    """A rows x (3*panel + 5) matrix: the first panel has rank at most 2
    (only rows 0 and 1 are nonzero there), the second is zero, and at the
    third panel's first column rows 2-5 are zero and row 6 is not, so its
    first pivot row is swapped up from below the rows pivoted before."""
    mat = rng.integers(0, p, (rows, 3 * panel + 5))
    mat[2:, :2 * panel] = 0
    mat[:2, panel:2 * panel] = 0
    mat[2:6, 2 * panel] = 0
    mat[6, 2 * panel] = 1
    return mat


@pytest.mark.parametrize("panel", [8, 256])
@pytest.mark.parametrize("p", [2, 3, 13, 1021])
def test_panels_match_gauss_jordan(monkeypatch, p, panel):
    """Matrices wider than one panel match Gauss-Jordan, at the default
    panel width and at 8 columns: a rank-deficient panel, an all-zero
    panel and a row swapped up across a panel boundary (_wide), a first
    panel that pivots every row while columns remain, one whose trailing
    update ends in a block of one column, and a dependent matrix taller
    than it is wide."""
    monkeypatch.setattr(linalg, "PANEL", panel)
    rng = np.random.default_rng(p + panel)
    assert_matches_reference(_wide(p, 24, panel, rng), p)
    assert_matches_reference(rng.integers(0, p, (5, 2 * panel + 3)), p)
    assert_matches_reference(rng.integers(0, p, (5, 2 * panel + 1)), p)
    tall = rng.integers(0, p, (40, 20))
    tall[:, 10:] = tall[:, :10]
    assert_matches_reference(tall, p)


@pytest.mark.parametrize("p", [2, 7, 13, 1021])
def test_panels_match_one_panel(monkeypatch, p):
    """Square and dependent systems over many 8-column panels equal the
    same systems eliminated as one panel."""
    rng = np.random.default_rng(p)
    mats = [rng.integers(0, p, (90, 91)), rng.integers(0, p, (60, 130))]
    mats.append((rng.integers(0, p, (100, 30)) @ rng.integers(0, p, (30, 101))) % p)
    ctx = field_of_order(p)
    monkeypatch.setattr(linalg, "PANEL", 10 ** 6)
    whole = [rref(m, ctx) for m in mats]
    monkeypatch.setattr(linalg, "PANEL", 8)
    for m, (red, mask) in zip(mats, whole):
        got, got_mask = rref(m, ctx)
        assert np.array_equal(got, red) and np.array_equal(got_mask, mask)
