"""Degree-capped multivariate polynomials over F_q.

The monomial basis caps individual degree at q-1 and total degree at m*q,
where m may be a rational number or carry an exact q^(-1/3) term (the
fractional-multiplicity parameter).  All degree-cap comparisons are exact:
rationals are compared by cross-multiplication and cube-root terms by
cubing, never through floats.

Multiplicity of vanishing follows the shifted-polynomial definition: the
coefficients of g(x+a) are extracted with binomial (Hasse-style) weights,
which stay correct in small characteristic where iterated derivatives
degenerate.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import ceil, comb, inf

import numpy as np

from .gf import FieldCtx, exact_dtype, field_of_order
from .linalg import nullspace


class InfeasibleCount(ValueError):
    pass


class SetsNotDisjoint(ValueError):
    pass


class ZeroPolynomial(ValueError):
    pass


class DegreeCapViolated(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact degree caps
# ---------------------------------------------------------------------------

def sign_frac_plus_cbrt(r: Fraction, s: Fraction, q: int) -> int:
    """Exact sign of r + s * q^(2/3)."""
    if s == 0:
        return (r > 0) - (r < 0)
    if s > 0:
        if r >= 0:
            return 1
        return (s ** 3 * q * q > (-r) ** 3) - (s ** 3 * q * q < (-r) ** 3)
    return -sign_frac_plus_cbrt(-r, -s, q)


class DegreeCap:
    """Multiplicity parameter m = a + b * q^(-1/3), held exactly."""

    def __init__(self, a, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @classmethod
    def fractional(cls, u: int, alpha) -> "DegreeCap":
        """m = (alpha - d*alpha)*u + (1 - alpha - d*alpha)*(u+1), d=q^(-1/3)."""
        alpha = Fraction(alpha)
        return cls((u + 1) - alpha, -alpha * (2 * u + 1))

    def allows_total(self, total: int, q: int) -> bool:
        """total < m*q, exactly.  m*q = a*q + b*q^(2/3)."""
        return sign_frac_plus_cbrt(self.a * q - total, self.b, q) > 0

    def max_total(self, q: int) -> int:
        """The largest total degree below m*q (negative for m <= 0): a float
        estimate, corrected by the exact allows_total."""
        top = ceil(self.value(q) * q) - 1
        while self.allows_total(top + 1, q):
            top += 1
        while not self.allows_total(top, q):
            top -= 1
        return top

    def value(self, q: int) -> float:
        return float(self.a) + float(self.b) * q ** (-1 / 3)


def _as_cap(m) -> DegreeCap:
    return m if isinstance(m, DegreeCap) else DegreeCap(Fraction(m))


# ---------------------------------------------------------------------------
# monomial counting and bases
# ---------------------------------------------------------------------------

def count_capped_monomials(n: int, q: int, m) -> int:
    """Number of monomials in n variables with individual degree < q and
    total degree < m*q (m a number or a DegreeCap), by inclusion-exclusion.

    The class peeled at step i has total degree at most ceil((m-i)*q) - 1 =
    top - i*q, with top = DegreeCap.max_total(q).  Binomial(t, n) is 0 for
    t < n, which absorbs the empty classes."""
    cap = _as_cap(m)
    if n < 1 or q < 2 or not cap.allows_total(0, q):
        raise ValueError("need n >= 1, q >= 2, m > 0")
    top = cap.max_total(q)
    total = 0
    for i in range(n + 1):
        t = top - i * q + n
        term = comb(t, n) if t >= n else 0
        total += (-1) ** i * comb(n, i) * term
    return total


def count_capped_monomials_bruteforce(n: int, q: int, m) -> int:
    cap = _as_cap(m)
    return sum(1 for e in product(range(q), repeat=n) if cap.allows_total(sum(e), q))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def _basis_exponents(n: int, q: int, a: Fraction, b: Fraction):
    """The exponent vectors in graded-lex order, as a tuple and as a
    read-only (len, n) int64 array."""
    top = DegreeCap(a, b).max_total(q)
    exps = [e for e in product(range(q), repeat=n) if sum(e) <= top]
    exps.sort(key=lambda e: (sum(e), e))  # graded-lex
    return tuple(exps), _frozen(np.array(exps, dtype=np.int64).reshape(-1, n))


@lru_cache(maxsize=None)
def _binom_mod_p(rows: int, q: int, p: int) -> np.ndarray:
    """binom(e, j) mod p, indexed [j, e] for j < rows and e < q; 0 for j > e."""
    return _frozen(np.array([[comb(e, j) % p for e in range(q)] for j in range(rows)], np.int64))


class MonomialBasis:
    """Exponent vectors with individual degree < q, total degree < m*q,
    in graded-lex order: the list exponents, and the same vectors as the
    read-only (len, n) int64 array exps that the array routines index."""

    def __init__(self, n: int, q: int, m):
        self.n, self.q, self.cap = n, q, _as_cap(m)
        exps, self.exps = _basis_exponents(n, q, self.cap.a, self.cap.b)
        self.exponents = list(exps)

    def __len__(self):
        return len(self.exponents)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class UniPoly:
    """Univariate polynomial over F_q; coefficient list, low degree first."""

    def __init__(self, ctx: FieldCtx, coeffs):
        self.ctx = ctx
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = c

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -inf

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, t: int) -> int:
        ctx = self.ctx
        acc = 0
        for c in reversed(self.coeffs):
            acc = ctx.add(ctx.mul(acc, t), c)
        return acc

    def multiplicity_at(self, t0: int):
        """Order of vanishing at t0 via shifted coefficients
        sum_i c_i * binom(i, j) * t0^(i-j)."""
        if not self.coeffs:
            return inf
        ctx = self.ctx
        p = ctx.p
        for j in range(len(self.coeffs)):
            acc = 0
            for i in range(j, len(self.coeffs)):
                ci = self.coeffs[i]
                if ci == 0:
                    continue
                w = comb(i, j) % p
                if w == 0:
                    continue
                acc = ctx.add(acc, ctx.mul(ci, ctx.mul(w, ctx.pow(t0, i - j))))
            if acc != 0:
                return j
        return len(self.coeffs)  # cannot happen for nonzero polys


class MultiPoly:
    """Multivariate polynomial as a coefficient vector over a MonomialBasis."""

    def __init__(self, basis: MonomialBasis, coeffs, ctx: FieldCtx | None = None):
        self.basis = basis
        self.ctx = ctx if ctx is not None else field_of_order(basis.q)
        self.coeffs = np.asarray(coeffs, dtype=np.int64)
        if len(self.coeffs) != len(basis):
            raise ValueError(
                f"{len(self.coeffs)} coefficients for {len(basis)} basis monomials")

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def support(self):
        return [
            (self.basis.exponents[i], int(self.coeffs[i]))
            for i in np.nonzero(self.coeffs)[0]
        ]

    @property
    def total_degree(self):
        nz = np.nonzero(self.coeffs)[0]
        return int(self.basis.exps[nz].sum(axis=1).max()) if nz.size else -inf

    def evaluate(self, point) -> int:
        ctx = self.ctx
        acc = 0
        for e, c in self.support():
            term = c
            for xi, ei in zip(point, e):
                if ei:
                    term = ctx.mul(term, ctx.pow(xi, ei))
            acc = ctx.add(acc, term)
        return acc


# the bytes of one block: the batched shift takes its points, and the
# constraint assembly its rows, in blocks of at most this many bytes of
# codes, which bounds their memory at any q
_BLOCK_BYTES = 1 << 15


def _code_dtype(ctx: FieldCtx, bound: int) -> np.dtype:
    """The dtype of an array of codes: on prime fields the narrowest that
    holds bound, a proven bound on its unreduced values; int64 on GF(p^k),
    k > 1, whose arithmetic reads the field's int64 tables."""
    return exact_dtype(bound) if ctx.k == 1 else np.dtype(np.int64)


def _as_points(points, q: int, n: int) -> np.ndarray:
    """points (or one point) as a (k, n) int64 array of codes; ValueError
    unless every point has n coordinates in [0, q)."""
    pts = np.array(points, dtype=np.int64, ndmin=2)  # ValueError if ragged
    if pts.size and (pts.ndim != 2 or pts.shape[1] != n or (pts < 0).any() or (pts >= q).any()):
        raise ValueError(f"points {points!r:.80} are not all in GF({q})^{n}")
    return pts.reshape(-1, n)


def _taylor(ctx: FieldCtx, dt: np.dtype, rows: int) -> np.ndarray:
    """The Taylor matrices T(a)[j, e] = binom(e, j) * a^(e-j), the
    coefficient of x^j in (x+a)^e, for j < rows and e < q, of every a in
    GF(q), indexed [a, j, e], as codes of dtype dt."""
    expo = np.maximum(np.arange(ctx.q) - np.arange(rows)[:, None], 0)
    powers = ctx.pow_table.astype(dt, copy=False)[:, expo]
    return ctx.vmul(_binom_mod_p(rows, ctx.q, ctx.p).astype(dt), powers)


def _shifts(g: MultiPoly, pts):
    """The coefficient tensors of g(x+a), for the points a in the (k, n)
    array pts, in blocks of _BLOCK_BYTES: yields (index of the chunk's first
    point, tensors of shape (chunk,) + (q,)*n).

    g's dense (q,)*n coefficient tensor is shifted one variable at a time by
    the Taylor matrices T(a_i)[j, e] = binom(e, j) * a_i^(e-j), for every
    point of a chunk at once (von zur Gathen and Gerhard, "Fast algorithms
    for Taylor shifts", ISSAC 1997)."""
    ctx = g.ctx
    q, n, p = g.basis.q, g.basis.n, ctx.p
    # on prime fields a contraction sums q products of two reduced codes
    dt = _code_dtype(ctx, q * (p - 1) ** 2)
    dense = np.zeros((q,) * n, dtype=dt)
    dense[tuple(g.basis.exps.T)] = g.coeffs
    # q^3 codes, no more than dense for n >= 3
    taylor = _taylor(ctx, dt, q)
    step = max(1, _BLOCK_BYTES // dense.nbytes)
    for lo in range(0, len(pts), step):
        chunk = pts[lo:lo + step]
        h = dense[None]
        # contract the leading coefficient axis with T(a_i); the new axis
        # goes last, so after n steps the axes are back in variable order.
        # einsum returns that order as strides, and it reads a C-ordered
        # operand several times faster
        for i in range(n):
            t = taylor[chunk[:, i]]
            if ctx.k == 1:
                h = np.ascontiguousarray(np.einsum("kje,ke...->k...j", t, h) % p)
                continue
            t = t.reshape((len(chunk),) + (1,) * (h.ndim - 2) + (q, q))
            acc = 0
            for c in range(q):
                acc = ctx.add_table[acc, ctx.vmul(h[:, c, ..., None], t[..., c])]
            h = acc
        yield lo, h


def multiplicities(g: MultiPoly, points) -> np.ndarray:
    """Multiplicity of the nonzero polynomial g at each point: the least
    total degree in the support of g(x+a), with g(x+a) computed in full.
    ValueError for a point outside GF(q)^n."""
    if g.is_zero():
        raise ZeroPolynomial("multiplicity of the zero polynomial")
    q, n = g.basis.q, g.basis.n
    pts = _as_points(points, q, n)
    degree, top = np.indices((q,) * n).sum(axis=0), n * q
    out = np.empty(len(pts), dtype=np.int64)
    for lo, h in _shifts(g, pts):
        # the degrees in h's dtype, so that the selection is no wider than h
        least = np.where(h != 0, degree.astype(h.dtype), top).reshape(len(h), -1).min(axis=1)
        out[lo:lo + len(h)] = least
    if (out == top).any():
        raise AssertionError("full shift of a nonzero polynomial vanished")
    return out


def multiplicity_via_full_shift(g: MultiPoly, a):
    """Independent route: expand g(x+a) term by term into a dict and take
    the minimum total degree in its support."""
    if g.is_zero():
        return inf
    ctx = g.ctx
    p = ctx.p
    n = g.basis.n
    shifted: dict = {}
    for e, c in g.support():
        # expand prod_i (x_i + a_i)^{e_i}
        parts = []
        for xi, ei in zip(a, e):
            row = []
            for j in range(ei + 1):
                w = comb(ei, j) % p
                row.append(ctx.mul(w, ctx.pow(xi, ei - j)) if w else 0)
            parts.append(row)
        for combo in product(*(range(len(r)) for r in parts)):
            coeff = c
            for i, j in enumerate(combo):
                coeff = ctx.mul(coeff, parts[i][j])
            if coeff == 0:
                continue
            key = combo
            cur = shifted.get(key, 0)
            cur = ctx.add(cur, coeff)
            if cur:
                shifted[key] = cur
            elif key in shifted:
                del shifted[key]
    if not shifted:  # a full shift of a nonzero polynomial cannot vanish
        raise AssertionError("full shift of a nonzero polynomial vanished")
    return min(sum(e) for e in shifted)


def restrict_to_line(g: MultiPoly, a, b) -> UniPoly:
    """g(a + t*b) as a univariate polynomial in t: the coefficient of x^beta
    in g(x+a), times b^beta, goes to t^|beta|.  The sums add element codes
    digit by digit mod p, which is addition in GF(p^k).  ValueError for a
    or b outside GF(q)^n, or b = 0."""
    ctx = g.ctx
    q, n, p = g.basis.q, g.basis.n, ctx.p
    a, b = _as_points([a, b], q, n)
    if not b.any():
        raise ValueError("direction must be nonzero")
    _, h = next(_shifts(g, a[None]))
    w = h[0]
    for i, bi in enumerate(b):
        w = ctx.vmul(w, ctx.pow_table[bi].reshape([q if j == i else 1 for j in range(n)]))
    place = p ** np.arange(ctx.k)
    degree = np.indices(w.shape).sum(axis=0).ravel() * p
    # each digit's sum by degree: the count of each (degree, digit) pair
    # times the digit
    sums = np.array([np.bincount(degree + d, minlength=(n * (q - 1) + 1) * p).reshape(-1, p)
                     @ np.arange(p) for d in (w.reshape(-1, 1) // place % p).T])
    return UniPoly(ctx, (place @ (sums % p)).tolist())


def homogeneous_top(g: MultiPoly) -> MultiPoly:
    """The homogeneous part of top degree d (individual caps carry over)."""
    if g.is_zero():
        raise ZeroPolynomial("homogeneous part of the zero polynomial")
    top = g.basis.exps.sum(axis=1) == g.total_degree
    return MultiPoly(g.basis, np.where(top, g.coeffs, 0), g.ctx)


def is_identically_zero_on_space(g: MultiPoly) -> bool:
    """True iff g vanishes at every point of F_q^n.  Also runs the
    all-coefficients-zero test; the two must agree (a nonzero capped
    polynomial cannot vanish everywhere)."""
    q = g.basis.q
    n = g.basis.n
    if any(max(e) > q - 1 for e, _ in g.support()):
        raise DegreeCapViolated("individual degree exceeds q-1")
    by_eval = all(
        g.evaluate(pt) == 0 for pt in product(range(q), repeat=n)
    )
    by_coeffs = g.is_zero()
    if by_eval != by_coeffs:
        raise AssertionError(
            "zero-on-space test disagrees with coefficient test "
            "(internal arithmetic bug)"
        )
    return by_eval


# ---------------------------------------------------------------------------
# interpolation under multiplicity constraints
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _betas(n: int, mult: int) -> np.ndarray:
    """Every beta with |beta| < mult, by degree and then lexicographically,
    as a read-only (count, n) int64 array."""
    betas = sorted((b for b in product(range(mult), repeat=n) if sum(b) < mult), key=sum)
    return _frozen(np.array(betas, dtype=np.int64).reshape(-1, n))


def constraint_rows_matrix(basis: MonomialBasis, points_with_mult, ctx=None,
                           ncols=None):
    """Rows of the homogeneous system: one row per (point, beta) with
    |beta| < mult; entry for basis monomial alpha is
    prod binom(alpha_i, beta_i) * a^(alpha-beta), the coefficient of
    x^beta in the shift of x^alpha by a.  Any GF(q): the binomials mod p
    are prime-subfield codes, and powers come from the field's pow table.
    Only the columns of the first ncols monomials are built (default all).
    On prime fields the codes come in the narrowest integer dtype that
    holds (p-1)^2, int64 otherwise.  ValueError for a point outside GF(q)^n.

    Variable i gives a row the factor F_i[a_i, beta_i] of the table
    F_i[a, b, :] = binom(E_i, b) * a^(E_i - b), for every a in GF(q) and b
    below the largest multiplicity, E_i the columns' exponents of x_i: the
    Taylor matrices T(a) at the columns E_i.  The rows gather and multiply
    their factors, a block of rows at a time."""
    ctx = ctx if ctx is not None else field_of_order(basis.q)
    p, q, n = ctx.p, basis.q, basis.n
    E = basis.exps[:ncols]
    # on prime fields an entry is a product of two reduced codes
    dt = _code_dtype(ctx, (p - 1) ** 2)
    pts = _as_points([coords for coords, _ in points_with_mult], q, n)
    betas = [_betas(n, mult) for _, mult in points_with_mult]
    counts = [len(b) for b in betas]
    out = np.empty((sum(counts), len(E)), dtype=dt)
    if not out.size:
        return out
    B = np.concatenate(betas)
    T = _taylor(ctx, dt, B.max() + 1)
    # F_i[a, b, :] = T(a)[b, E_i], 0 for b > E_i; flattened, the row of
    # (a, beta) reads row a_i * len(T[0]) + beta_i of each F_i
    F = [T[:, :, E[:, i]].reshape(-1, len(E)) for i in range(n)]
    rows = np.repeat(pts, counts, axis=0) * len(T[0]) + B
    step = max(1, _BLOCK_BYTES // out[0].nbytes)
    for lo in range(0, len(out), step):
        block = rows[lo:lo + step]
        row = F[0].take(block[:, 0], axis=0)
        for i in range(1, n):
            row = ctx.vmul(row, F[i].take(block[:, i], axis=0))
        out[lo:lo + step] = row
    return out


def interpolate_vanishing(S1, m1: int, S2, m2: int, m, q: int | None = None,
                          n: int = 3) -> MultiPoly:
    """Nonzero polynomial in the capped basis vanishing with multiplicity
    m1 on S1 and m2 on S2 (S1, S2 PointSets or coordinate iterables).

    Raises InfeasibleCount when the counting hypothesis
    |S1|*binom(m1+n-1,n) + |S2|*binom(m2+n-1,n) < #basis fails; the
    returned polynomial is the first kernel basis vector of the
    constraint matrix, re-verified by multiplicities at every constrained
    point.

    Only the first r+1 columns of the r-row matrix are built and
    eliminated.  The RREF of a column prefix is the prefix of the RREF, and
    rank <= r < r+1, so the first free column lies in the prefix; the first
    kernel vector is zero past that column, and the prefix's first kernel
    vector padded with zeros is the full matrix's, entry for entry."""
    from .geom import PointSet, affine_space

    def unpack(S):
        if isinstance(S, PointSet):
            return S.q, affine_space(S.q, S.n).point_coords(S.indices()).T.tolist()
        return q, list(S or ())

    (q1, pts1), (q2, pts2) = unpack(S1), unpack(S2)
    q = q1 or q2 or q
    if q is None:
        raise ValueError("field order could not be inferred; pass q")
    pts = _as_points(pts1 + pts2, q, n)
    if set(map(tuple, pts1)) & set(map(tuple, pts2)):
        raise SetsNotDisjoint("S1 and S2 share points")
    basis = MonomialBasis(n, q, m)
    nconstraints = len(pts1) * comb(m1 + n - 1, n) + len(pts2) * comb(m2 + n - 1, n)
    if nconstraints >= len(basis):
        raise InfeasibleCount(f"{nconstraints} constraints >= {len(basis)} monomials; "
                              "the counting hypothesis does not hold")
    ctx = field_of_order(q)
    mults = [m1] * len(pts1) + [m2] * len(pts2)
    w = nconstraints + 1
    coeffs = np.zeros(len(basis), dtype=np.int64)
    coeffs[:w] = nullspace(constraint_rows_matrix(basis, list(zip(pts, mults)), ctx, w), ctx)[0]
    g = MultiPoly(basis, coeffs, ctx)
    # re-check every constrained point through the full shift g(x+a), a
    # route that does not read the constraint matrix
    for pt, mult, m_at in zip(pts.tolist(), mults, multiplicities(g, pts).tolist()):
        if m_at < mult:
            raise AssertionError(f"solver output has multiplicity {m_at} < {mult} at {tuple(pt)}")
    return g
