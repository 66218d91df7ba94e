"""The elimination in linalg against brute force over small fields: every
one of the q^cols vectors is tested for membership in the kernel."""
import random
from itertools import product

import numpy as np
import pytest

from fqgeom.gf import field_of_order
from fqgeom.linalg import nullspace, rref

QS = [2, 3, 4, 5, 8, 9]


def matrices(q):
    """Seeded matrices with at most 4 columns, plus an empty and a zero one."""
    rng = random.Random(q)
    out = [np.zeros((0, 3), dtype=np.int64), np.zeros((2, 4), dtype=np.int64)]
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
    for mat in (rng.integers(0, p, (40, 60)), rng.integers(0, p, (60, 40)), low):
        red, mask = rref(mat, ctx)
        want, want_pivots = gauss_jordan(mat.tolist(), p)
        assert np.flatnonzero(mask).tolist() == want_pivots
        assert red.tolist() == want
        kernel = nullspace(mat, ctx)
        assert len(kernel) == mat.shape[1] - len(want_pivots)
        assert not ((mat @ kernel.T) % p).any()
    # a stack of full-rank and rank-deficient 12 x 16 matrices: the bound
    # on the unreduced entries holds per matrix, whatever the others' ranks
    stack = rng.integers(0, p, (6, 12, 16))
    stack[1] = (rng.integers(0, p, (12, 5)) @ rng.integers(0, p, (5, 16))) % p
    stack[2, :, :3] = 0
    stack[3] = 0
    red, mask = rref(stack, ctx)
    kernels = nullspace(stack, ctx)
    for mat, r, m, k in zip(stack, red, mask, kernels):
        want, want_pivots = gauss_jordan(mat.tolist(), p)
        assert r.tolist() == want
        assert np.flatnonzero(m).tolist() == want_pivots
        dim = mat.shape[1] - len(want_pivots)
        assert not ((mat @ k[:dim].T) % p).any() and not k[dim:].any()


@pytest.mark.parametrize("q", QS)
def test_stack_matches_single_matrices(q):
    """rref and nullspace of a stack, item by item, equal those of each
    matrix alone; a stack mixes ranks and pivot columns, and an item with a
    smaller kernel than the largest has zero rows after its basis."""
    ctx = field_of_order(q)
    rng = np.random.default_rng(q)
    for rows, cols in [(2, 4), (1, 3), (3, 3), (4, 2)]:
        stack = rng.integers(0, q, (12, rows, cols))
        stack[1, :, 0] = 0                  # a zero leading column
        stack[2, :, :2] = 0
        stack[3, -1] = stack[3, 0]          # a repeated row
        stack[4] = 0                        # the zero matrix
        stack[5, 0] = 0
        before = stack.copy()
        nested = stack.reshape(2, 6, rows, cols)
        for mats in (stack, nested[:, :3], stack[:0], nested[:, :0]):
            red, mask = rref(mats, ctx)
            kernels = nullspace(mats, ctx)
            assert red.shape == mats.shape and mask.shape == mats.shape[:-2] + (cols,)
            flat = mats.reshape(-1, rows, cols)
            dim = cols - min([rows, cols] + [np.count_nonzero(rref(m, ctx)[1]) for m in flat])
            assert kernels.shape == mats.shape[:-2] + (dim, cols)
            for i, m in enumerate(flat):
                one, one_mask = rref(m, ctx)
                kernel = nullspace(m, ctx)
                assert np.array_equal(red.reshape(flat.shape)[i], one)
                assert np.array_equal(mask.reshape(-1, cols)[i], one_mask)
                got = kernels.reshape(-1, dim, cols)[i]
                assert np.array_equal(got[:len(kernel)], kernel)
                assert not got[len(kernel):].any()
        assert np.array_equal(stack, before)
