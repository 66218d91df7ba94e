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
from math import comb, inf

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
    total degree < m*q, by inclusion-exclusion.  Binomial(t, n) is 0 for
    t < n, which absorbs the empty peeled-off classes.

    The class peeled at step i counts monomials of total degree < (m-i)*q;
    "degree < x" means degree <= ceil(x)-1, which differs from floor(x)-1
    only when x is not an integer (the two agree on every integer cap)."""
    m = Fraction(m)
    if n < 1 or q < 2 or m <= 0:
        raise ValueError("need n >= 1, q >= 2, m > 0")
    total = 0
    for i in range(n + 1):
        x = (m - i) * q
        ceil_x = -((-x.numerator) // x.denominator)
        t = ceil_x - 1 + n
        term = comb(t, n) if t >= n else 0
        total += (-1) ** i * comb(n, i) * term
    return total


def count_capped_monomials_bruteforce(n: int, q: int, m) -> int:
    cap = _as_cap(m)
    return sum(1 for e in product(range(q), repeat=n) if cap.allows_total(sum(e), q))


@lru_cache(maxsize=None)
def _basis_exponents(n: int, q: int, a_num, a_den, b_num, b_den):
    cap = DegreeCap(Fraction(a_num, a_den), Fraction(b_num, b_den))
    exps = [e for e in product(range(q), repeat=n) if cap.allows_total(sum(e), q)]
    exps.sort(key=lambda e: (sum(e), e))  # graded-lex
    return tuple(exps)


class MonomialBasis:
    """Exponent vectors with individual degree < q, total degree < m*q,
    in graded-lex order."""

    def __init__(self, n: int, q: int, m):
        self.n = n
        self.q = q
        self.cap = _as_cap(m)
        self.exponents = list(
            _basis_exponents(
                n, q,
                self.cap.a.numerator, self.cap.a.denominator,
                self.cap.b.numerator, self.cap.b.denominator,
            )
        )
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

    def leading_coefficient(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, j: int) -> int:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

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
        assert len(self.coeffs) == len(basis)

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

    def shifted_coefficient(self, a, beta) -> int:
        """Coefficient of x^beta in g(x + a), with exact binomial weights."""
        ctx = self.ctx
        p = ctx.p
        acc = 0
        for e, c in self.support():
            if any(ei < bi for ei, bi in zip(e, beta)):
                continue
            w = 1
            for ei, bi in zip(e, beta):
                w = (w * comb(ei, bi)) % p
            if w == 0:
                continue
            term = ctx.mul(c, w)
            for xi, ei, bi in zip(a, e, beta):
                if ei > bi:
                    term = ctx.mul(term, ctx.pow(xi, ei - bi))
            acc = ctx.add(acc, term)
        return acc


def _degrees(n, d):
    """All exponent vectors of length n with total degree exactly d."""
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _degrees(n - 1, d - first):
            yield (first,) + rest


def multiplicity_at(g: MultiPoly, a):
    """Largest m such that g(x+a) has no monomial of degree < m
    (inf for the zero polynomial)."""
    if g.is_zero():
        return inf
    dmax = g.total_degree
    for m in range(dmax + 1):
        for beta in _degrees(g.basis.n, m):
            if g.shifted_coefficient(a, beta) != 0:
                return m
    return dmax + 1  # unreachable for nonzero g


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
    """g(a + t*b) as a univariate polynomial in t."""
    assert any(b), "direction must be nonzero"
    ctx = g.ctx
    q = g.basis.q
    n = g.basis.n
    # powers of the linear polynomials (a_i + t b_i)
    lin_pows = []
    for ai, bi in zip(a, b):
        pows = [[1]]
        for _ in range(q - 1):
            prev = pows[-1]
            nxt = [0] * (len(prev) + 1)
            for j, c in enumerate(prev):
                if c:
                    nxt[j] = ctx.add(nxt[j], ctx.mul(c, ai))
                    nxt[j + 1] = ctx.add(nxt[j + 1], ctx.mul(c, bi))
            pows.append(nxt)
        lin_pows.append(pows)
    out = [0] * (n * (q - 1) + 1)
    for e, c in g.support():
        term = [c]
        for i, ei in enumerate(e):
            if ei:
                fac = lin_pows[i][ei]
                nxt = [0] * (len(term) + len(fac) - 1)
                for j, tc in enumerate(term):
                    if tc == 0:
                        continue
                    for k, fc in enumerate(fac):
                        if fc:
                            nxt[j + k] = ctx.add(nxt[j + k], ctx.mul(tc, fc))
                term = nxt
        for j, tc in enumerate(term):
            if tc:
                out[j] = ctx.add(out[j], tc)
    return UniPoly(ctx, out)


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

def constraint_rows_matrix(basis: MonomialBasis, points_with_mult, ctx=None):
    """Rows of the homogeneous system: one row per (point, beta) with
    |beta| < mult; entry for basis monomial alpha is
    prod binom(alpha_i, beta_i) * a^(alpha-beta), the coefficient of
    x^beta in the shift of x^alpha by a.  Any GF(q): the binomials mod p
    are prime-subfield codes, and powers come from the field's pow table."""
    ctx = ctx if ctx is not None else field_of_order(basis.q)
    p = ctx.p
    q = basis.q
    n = basis.n
    E = np.array(basis.exponents, dtype=np.int64)  # N x n
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
        for d in range(mult):
            for beta in _degrees(n, d):
                row = factor(0, coords[0], beta[0])
                for i in range(1, n):
                    row = ctx.vmul(row, factor(i, coords[i], beta[i]))
                rows.append(row)
    if not rows:
        return np.zeros((0, len(basis)), dtype=np.int64)
    return np.vstack(rows)


def interpolate_vanishing(S1, m1: int, S2, m2: int, m, q: int | None = None,
                          n: int = 3) -> MultiPoly:
    """Nonzero polynomial in the capped basis vanishing with multiplicity
    m1 on S1 and m2 on S2 (S1, S2 PointSets or coordinate iterables).

    Raises InfeasibleCount when the counting hypothesis
    |S1|*binom(m1+n-1,n) + |S2|*binom(m2+n-1,n) < #basis fails; the
    returned polynomial is the first kernel basis vector of the
    constraint matrix, re-verified against multiplicity_at at every
    constrained point."""
    from .geom import PointSet

    def unpack(S):
        if S is None:
            return q, []
        if isinstance(S, PointSet):
            sp_q = S.q
            from .geom import affine_space
            sp = affine_space(S.q, S.n)
            return sp_q, [sp.coords(int(i)) for i in S.indices()]
        return q, [tuple(int(x) for x in pt) for pt in S]

    q1, pts1 = unpack(S1)
    q2, pts2 = unpack(S2)
    q = q1 or q2 or q
    assert q is not None, "field order could not be inferred"
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
    # fewer rows than columns, so the kernel is not zero; the copy lets
    # the rest of the kernel basis be freed
    kernel = nullspace(constraint_rows_matrix(basis, constraints, ctx), ctx)
    g = MultiPoly(basis, kernel[0].copy(), ctx)
    for coords, mult in constraints:
        got = multiplicity_at(g, coords)
        if got < mult:
            raise AssertionError(
                f"solver output has multiplicity {got} < {mult} at {coords}"
            )
    return g
