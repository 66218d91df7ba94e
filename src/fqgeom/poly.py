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

from .gf import FieldCtx, field_of_order
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

    def __repr__(self):
        if self.b == 0:
            return f"DegreeCap({self.a})"
        return f"DegreeCap({self.a} + ({self.b})*q^(-1/3))"


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


@lru_cache(maxsize=None)
def _basis_exponents(n: int, q: int, a: Fraction, b: Fraction):
    top = DegreeCap(a, b).max_total(q)
    exps = [e for e in product(range(q), repeat=n) if sum(e) <= top]
    exps.sort(key=lambda e: (sum(e), e))  # graded-lex
    return tuple(exps)


class MonomialBasis:
    """Exponent vectors with individual degree < q, total degree < m*q,
    in graded-lex order."""

    def __init__(self, n: int, q: int, m):
        self.n = n
        self.q = q
        self.cap = _as_cap(m)
        self.exponents = list(_basis_exponents(n, q, self.cap.a, self.cap.b))
        self.index = {e: i for i, e in enumerate(self.exponents)}

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

    @classmethod
    def from_dict(cls, basis: MonomialBasis, terms: dict, ctx=None):
        c = np.zeros(len(basis), dtype=np.int64)
        for e, v in terms.items():
            c[basis.index[tuple(e)]] = v
        return cls(basis, c, ctx)

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
        if nz.size == 0:
            return -inf
        return max(sum(self.basis.exponents[i]) for i in nz)

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


# the batched shift takes its points in chunks of at most this many
# coefficients (32 KB of int64 per array), which bounds its memory at any q
_SHIFT_CELLS = 1 << 12


def _shifts(g: MultiPoly, pts):
    """The coefficient tensors of g(x+a), for the points a in the (k, n)
    array pts, in chunks of at most _SHIFT_CELLS coefficients: yields
    (index of the chunk's first point, tensors of shape (chunk,) + (q,)*n).

    g's dense (q,)*n coefficient tensor is shifted one variable at a time by
    the Taylor matrices T(a_i)[j, e] = binom(e, j) * a_i^(e-j), for every
    point of a chunk at once (von zur Gathen and Gerhard, "Fast algorithms
    for Taylor shifts", ISSAC 1997)."""
    ctx = g.ctx
    q, n, p = g.basis.q, g.basis.n, ctx.p
    dense = np.zeros((q,) * n, dtype=np.int64)
    dense[tuple(np.array(g.basis.exponents, dtype=np.int64).T)] = g.coeffs
    e = np.arange(q)
    # binom(e, j) mod p as prime-subfield codes, indexed [j, e]; 0 for j > e
    binom = np.array([[comb(ei, j) % p for ei in e] for j in e], dtype=np.int64)
    shift = np.maximum(e[None, :] - e[:, None], 0)
    step = max(1, _SHIFT_CELLS // dense.size)
    for lo in range(0, len(pts), step):
        chunk = pts[lo:lo + step]
        h = dense[None]
        # contract the leading coefficient axis with T(a_i); the new axis
        # goes last, so after n steps the axes are back in variable order.
        # On prime fields a sum of q products below p^2 fits in int64.
        for i in range(n):
            t = ctx.vmul(binom, ctx.pow_table[chunk[:, i, None, None], shift])
            if ctx.k == 1:
                h = np.einsum("kje,ke...->k...j", t, h) % p
                continue
            t = t.reshape((len(chunk),) + (1,) * (h.ndim - 2) + (q, q))
            acc = 0
            for c in range(q):
                acc = ctx.add_table[acc, ctx.vmul(h[:, c, ..., None], t[..., c])]
            h = acc
        yield lo, h


def multiplicities(g: MultiPoly, points) -> np.ndarray:
    """Multiplicity of the nonzero polynomial g at each point: the least
    total degree in the support of g(x+a), with g(x+a) computed in full."""
    if g.is_zero():
        raise ZeroPolynomial("multiplicity of the zero polynomial")
    n, top = g.basis.n, g.basis.n * g.basis.q
    pts = np.asarray(points, dtype=np.int64).reshape(-1, n)
    degree = np.indices((g.basis.q,) * n).sum(axis=0)
    out = np.empty(len(pts), dtype=np.int64)
    for lo, h in _shifts(g, pts):
        least = np.where(h != 0, degree, top).reshape(len(h), -1).min(axis=1)
        out[lo:lo + len(h)] = least
    if (out == top).any():
        raise AssertionError("full shift of a nonzero polynomial vanished")
    return out


def multiplicity_at(g: MultiPoly, a):
    """Largest m such that g(x+a) has no monomial of degree < m
    (inf for the zero polynomial)."""
    return inf if g.is_zero() else int(multiplicities(g, [a])[0])


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
    digit by digit mod p, which is addition in GF(p^k)."""
    if not any(b):
        raise ValueError("direction must be nonzero")
    ctx = g.ctx
    q, n, p = g.basis.q, g.basis.n, ctx.p
    _, h = next(_shifts(g, np.array([a], dtype=np.int64)))
    w = h[0]
    for i, bi in enumerate(b):
        w = ctx.vmul(w, ctx.pow_table[bi].reshape([q if j == i else 1 for j in range(n)]))
    place = p ** np.arange(ctx.k)
    sums = np.zeros((n * (q - 1) + 1, ctx.k), dtype=np.int64)
    degree = np.indices(w.shape).sum(axis=0).ravel()
    np.add.at(sums, degree, w.reshape(-1, 1) // place % p)
    return UniPoly(ctx, ((sums % p) @ place).tolist())


def homogeneous_top(g: MultiPoly) -> MultiPoly:
    """The homogeneous part of top degree d (individual caps carry over)."""
    if g.is_zero():
        raise ZeroPolynomial("homogeneous part of the zero polynomial")
    d = g.total_degree
    c = g.coeffs.copy()
    for i, e in enumerate(g.basis.exponents):
        if sum(e) != d:
            c[i] = 0
    return MultiPoly(g.basis, c, g.ctx)


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

def constraint_rows_matrix(basis: MonomialBasis, points_with_mult, ctx=None,
                           ncols=None):
    """Rows of the homogeneous system: one row per (point, beta) with
    |beta| < mult; entry for basis monomial alpha is
    prod binom(alpha_i, beta_i) * a^(alpha-beta), the coefficient of
    x^beta in the shift of x^alpha by a.  Any GF(q): the binomials mod p
    are prime-subfield codes, and powers come from the field's pow table.
    Only the columns of the first ncols monomials are built (default all)."""
    ctx = ctx if ctx is not None else field_of_order(basis.q)
    p = ctx.p
    q = basis.q
    n = basis.n
    E = np.array(basis.exponents[:ncols], dtype=np.int64)  # ncols x n
    # binom(i, j) = 0 for j > i, which zeroes the monomials with alpha_i < beta_i
    binom_tab = np.array(
        [[comb(i, j) % p for j in range(q)] for i in range(q)], dtype=np.int64
    )
    factors = {}  # (i, a_i, beta_i) -> the factor of variable i in every entry

    def factor(i, ai, bi):
        f = factors.get((i, ai, bi))
        if f is None:
            ei = E[:, i]
            f = ctx.vmul(binom_tab[ei, bi], ctx.pow_table[ai, np.maximum(ei - bi, 0)])
            factors[(i, ai, bi)] = f
        return f

    rows = []
    for coords, mult in points_with_mult:
        # every beta with |beta| < mult, by degree and then lexicographically
        betas = [b for b in product(range(mult), repeat=n) if sum(b) < mult]
        for beta in sorted(betas, key=sum):
            row = factor(0, coords[0], beta[0])
            for i in range(1, n):
                row = ctx.vmul(row, factor(i, coords[i], beta[i]))
            rows.append(row)
    if not rows:
        return np.zeros((0, len(E)), dtype=np.int64)
    return np.vstack(rows)


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
            sp = affine_space(S.q, S.n)
            return S.q, list(map(tuple, sp.point_coords(S.indices()).T.tolist()))
        return q, [tuple(int(x) for x in pt) for pt in S or ()]

    q1, pts1 = unpack(S1)
    q2, pts2 = unpack(S2)
    q = q1 or q2 or q
    if q is None:
        raise ValueError("field order could not be inferred; pass q")
    if set(pts1) & set(pts2):
        raise SetsNotDisjoint("S1 and S2 share points")
    basis = MonomialBasis(n, q, m)
    nconstraints = len(pts1) * comb(m1 + n - 1, n) + len(pts2) * comb(m2 + n - 1, n)
    if nconstraints >= len(basis):
        raise InfeasibleCount(
            f"{nconstraints} constraints >= {len(basis)} monomials; the "
            "counting hypothesis does not hold"
        )
    ctx = field_of_order(q)
    constraints = [(c, m1) for c in pts1] + [(c, m2) for c in pts2]
    w = nconstraints + 1
    coeffs = np.zeros(len(basis), dtype=np.int64)
    coeffs[:w] = nullspace(constraint_rows_matrix(basis, constraints, ctx, w), ctx)[0]
    g = MultiPoly(basis, coeffs, ctx)
    # re-check every constrained point through the full shift g(x+a), a
    # route that does not read the constraint matrix
    got = multiplicities(g, [coords for coords, _ in constraints])
    for (coords, mult), m_at in zip(constraints, got.tolist()):
        if m_at < mult:
            raise AssertionError(
                f"solver output has multiplicity {m_at} < {mult} at {coords}"
            )
    return g
