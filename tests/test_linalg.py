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
        red, pivots = rref(mat, ctx)
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
        red, pivots = rref(mat, ctx)
        want, want_pivots = gauss_jordan(mat.tolist(), p)
        assert pivots == want_pivots
        assert red.tolist() == want
        kernel = nullspace(mat, ctx)
        assert len(kernel) == mat.shape[1] - len(pivots)
        assert not ((mat @ kernel.T) % p).any()
