import json
import random
import re
from fractions import Fraction
from math import comb, inf
from pathlib import Path

import numpy as np
import pytest

from fqgeom import poly
from fqgeom.gf import field_of_order
from fqgeom.linalg import nullspace
from fqgeom.poly import (
    DegreeCap,
    DegreeCapViolated,
    InfeasibleCount,
    MonomialBasis,
    MultiPoly,
    SetsNotDisjoint,
    UniPoly,
    ZeroPolynomial,
    count_capped_monomials,
    count_capped_monomials_bruteforce,
    homogeneous_top,
    interpolate_vanishing,
    is_identically_zero_on_space,
    multiplicities,
    multiplicity_via_full_shift,
    restrict_to_line,
    sign_frac_plus_cbrt,
)


def random_poly(basis, rng, terms=6):
    ctx = field_of_order(basis.q)
    coeffs = [0] * len(basis)
    for _ in range(terms):
        coeffs[rng.randrange(len(basis))] = rng.randrange(1, basis.q)
    return MultiPoly(basis, coeffs, ctx)


def sparse_poly(basis, terms):
    """The polynomial with the {exponent: coefficient} terms."""
    coeffs = [0] * len(basis)
    for e, c in terms.items():
        coeffs[basis.exponents.index(e)] = c
    return MultiPoly(basis, coeffs)


def test_sign_frac_plus_cbrt_against_float():
    rng = random.Random(0)
    for _ in range(300):
        r = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        s = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        q = rng.choice([2, 3, 5, 7, 11])
        approx = float(r) + float(s) * q ** (2 / 3)
        if abs(approx) > 1e-6:
            assert sign_frac_plus_cbrt(r, s, q) == (1 if approx > 0 else -1)
    assert sign_frac_plus_cbrt(Fraction(0), Fraction(0), 5) == 0


def test_degree_cap_value_and_allows():
    cap = DegreeCap(Fraction(2))
    assert cap.value(5) == 2.0
    assert cap.allows_total(9, 5) and not cap.allows_total(10, 5)
    frac = DegreeCap.fractional(1, Fraction(1, 2))
    # m = (a-da)u + (1-a-da)(u+1) with a=1/2: rational part 3/2, cbrt part -3/2
    assert frac.a == Fraction(3, 2)
    assert frac.b == Fraction(-3, 2)
    for q in (3, 5, 7):
        expect = 1.5 - 1.5 * q ** (-1 / 3)
        assert abs(frac.value(q) - expect) < 1e-12


def test_count_oracle_small_grid():
    for n in (1, 2, 3):
        for q in (2, 3, 5):
            for j in range(1, 31, 2):
                m = Fraction(j, 10)
                assert count_capped_monomials(n, q, m) == \
                    count_capped_monomials_bruteforce(n, q, m)


def test_count_anchor_values():
    assert count_capped_monomials(3, 3, 2) == 26
    assert count_capped_monomials(3, 5, 2) == 115
    # m >= n(q-1)/q + eps saturates at q^n
    assert count_capped_monomials(3, 3, 3) == 27


def test_count_accepts_degree_cap():
    # alpha = 13/20 at q = 8 gives m*q = 3 exactly, and its float estimate
    # exceeds 3, so the exact correction of the ceiling is needed there
    grid = [Fraction(j, 10) for j in range(11)]
    for q in (5, 7, 8, 9, 11, 13):
        for u in (1, 2):
            for alpha in grid + [Fraction(13, 20)] * (q == 8):
                cap = DegreeCap.fractional(u, alpha)
                expect = len(MonomialBasis(3, q, cap))
                if cap.allows_total(0, q):
                    assert count_capped_monomials(3, q, cap) == expect, (q, u, alpha)
                else:  # a cap m <= 0 admits no monomial
                    assert expect == 0
                    with pytest.raises(ValueError, match="m > 0"):
                        count_capped_monomials(3, q, cap)
    with pytest.raises(ValueError, match="m > 0"):
        count_capped_monomials(3, 5, Fraction(0))


def test_basis_graded_lex():
    basis = MonomialBasis(3, 3, 2)
    assert len(basis) == 26
    degs = [sum(e) for e in basis.exponents]
    assert degs == sorted(degs)


def test_unipoly_eval_and_multiplicity():
    ctx = field_of_order(5)
    # f(t) = (t-1)^2 * (t-2) = t^3 - 4t^2 + 5t - 2 over GF(5)
    f = UniPoly(ctx, [3, 0, 1, 1])  # -2=3, 5t=0, -4t^2=t^2, t^3
    assert f.degree == 3
    for t in range(5):
        expect = ((t - 1) ** 2 * (t - 2)) % 5
        assert f.evaluate(t) == expect
    assert f.multiplicity_at(1) == 2
    assert f.multiplicity_at(2) == 1
    assert f.multiplicity_at(0) == 0
    assert UniPoly(ctx, []).multiplicity_at(3) == inf


@pytest.mark.parametrize("q", [3, 5])
def test_multiplicity_routes_agree(q):
    rng = random.Random(q)
    basis = MonomialBasis(3, q, 2)
    for trial in range(30):
        g = random_poly(basis, rng)
        a = tuple(rng.randrange(q) for _ in range(3))
        assert multiplicities(g, [a])[0] == multiplicity_via_full_shift(g, a)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_multiplicities_match_full_shift(q, monkeypatch):
    """The batched Taylor shift against the scalar oracle, on seeded random
    polynomials and on interpolants, at constrained and random points.
    Chunks of 4 points, so that every call spans several chunks."""
    monkeypatch.setattr(poly, "_SHIFT_CELLS", 4 * q ** 3)
    rng = random.Random(50 + q)
    pool = [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]
    for m in (1, 2, 3):
        basis = MonomialBasis(3, q, m)
        for _ in range(3):
            g = random_poly(basis, rng)
            pts = rng.sample(pool, min(10, len(pool)))
            assert multiplicities(g, pts).tolist() == \
                [multiplicity_via_full_shift(g, a) for a in pts]
        budget = len(basis) - 1
        rng.shuffle(pool)
        n1 = min(max(1, budget // 2), 12)
        S1 = pool[:n1]
        S2 = pool[n1:n1 + min(2, budget - n1)]
        g = interpolate_vanishing(S1, 1, S2, 1, m, q=q)
        pts = S1[:10] + S2 + rng.sample(pool, min(5, len(pool)))
        got = multiplicities(g, pts).tolist()
        assert got == [multiplicity_via_full_shift(g, a) for a in pts]
        assert min(got[:len(S1[:10]) + len(S2)]) >= 1
    assert multiplicities(g, []).shape == (0,)
    with pytest.raises(ZeroPolynomial):
        multiplicities(MultiPoly(basis, [0] * len(basis)), pts)


@pytest.mark.parametrize("drop, where", [(0, "0 < 2 at (0, 0, 0)"),
                                         (-1, "0 < 1 at (1, 2, 3)")],
                         ids=["first-row", "last-row"])
def test_recheck_does_not_trust_constraint_matrix(monkeypatch, drop, where):
    """With one constraint row dropped, the solver's output misses that
    constraint, and the re-check must catch it."""
    full = poly.constraint_rows_matrix
    monkeypatch.setattr(poly, "constraint_rows_matrix",
                        lambda *args: np.delete(full(*args), drop, axis=0))
    with pytest.raises(AssertionError, match=re.escape(where)):
        interpolate_vanishing([(0, 0, 0)], 2, [(1, 2, 3)], 1, 2, q=5)


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9])
def test_restriction_evaluates_like_g(q):
    rng = random.Random(10 + q)
    basis = MonomialBasis(3, q, 3)
    ctx = field_of_order(q)
    for trial in range(20):
        g = random_poly(basis, rng)
        a = tuple(rng.randrange(q) for _ in range(3))
        b = tuple(rng.randrange(q) for _ in range(3))
        if not any(b):
            b = (1, 0, 0)
        f = restrict_to_line(g, a, b)
        for t in range(q):
            pt = tuple(ctx.add(ai, ctx.mul(t, bi)) for ai, bi in zip(a, b))
            assert f.evaluate(t) == g.evaluate(pt)
    with pytest.raises(ValueError, match="direction must be nonzero"):
        restrict_to_line(g, a, (0, 0, 0))


def test_multiplicity_of_vanishing_positive_iff_zero():
    basis = MonomialBasis(3, 3, 2)
    ctx = field_of_order(3)
    g = sparse_poly(basis, {(1, 0, 0): 1, (0, 0, 0): 2})  # x1 + 2
    assert multiplicities(g, [(1, 0, 0)])[0] == 1
    assert multiplicities(g, [(0, 0, 0)])[0] == 0


def test_homogeneous_top():
    basis = MonomialBasis(3, 3, 2)
    g = sparse_poly(basis, {(2, 1, 0): 1, (1, 0, 0): 2, (0, 0, 0): 1})
    g0 = homogeneous_top(g)
    assert g0.support() == [((2, 1, 0), 1)]
    with pytest.raises(ZeroPolynomial):
        homogeneous_top(MultiPoly(basis, [0] * len(basis)))


def test_zero_on_space():
    basis = MonomialBasis(2, 3, 3)
    zero = MultiPoly(basis, [0] * len(basis))
    assert is_identically_zero_on_space(zero)
    g = sparse_poly(basis, {(1, 1): 1})
    assert not is_identically_zero_on_space(g)


def test_interpolate_small():
    g = interpolate_vanishing([(0, 0, 0), (1, 1, 1)], 2, [(2, 1, 0)], 1, 2, q=3)
    assert multiplicities(g, [(0, 0, 0)])[0] >= 2
    assert multiplicities(g, [(1, 1, 1)])[0] >= 2
    assert multiplicities(g, [(2, 1, 0)])[0] >= 1
    assert not g.is_zero()


@pytest.mark.parametrize("q", [4, 8, 9])
def test_interpolate_extension_field(q):
    g = interpolate_vanishing([(0, 0, 0)], 2, [(1, 2, 3)], 1, 2, q=q)
    for pt, mult in (((0, 0, 0), 2), ((1, 2, 3), 1)):
        assert multiplicities(g, [pt])[0] >= mult
        assert multiplicity_via_full_shift(g, pt) >= mult


def test_interpolate_errors():
    with pytest.raises(SetsNotDisjoint):
        interpolate_vanishing([(0, 0, 0)], 1, [(0, 0, 0)], 2, 2, q=3)
    many = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    with pytest.raises(InfeasibleCount):
        interpolate_vanishing(many, 2, [], 1, 2, q=3)
    with pytest.raises(ValueError, match="field order"):
        interpolate_vanishing([(0, 0, 0)], 1, [], 1, 2)


def test_multipoly_refuses_wrong_length():
    basis = MonomialBasis(3, 3, 2)
    for n in (len(basis) - 1, len(basis) + 1, 0):
        with pytest.raises(ValueError, match="coefficients for 26 basis monomials"):
            MultiPoly(basis, [1] * n)


def test_degree_cap_violation_detected():
    basis = MonomialBasis(2, 3, 3)
    g = sparse_poly(basis, {(2, 2): 1})
    g.basis.exponents.append((3, 0))  # corrupt deliberately
    g2 = MultiPoly(basis, list(g.coeffs) + [1], g.ctx)
    with pytest.raises(DegreeCapViolated):
        is_identically_zero_on_space(g2)
    g.basis.exponents.pop()


# seeded instances at q in {5, 7, 8, 9}, m in {1, 2}, (m1, m2) in {1, 2}^2 and
# S1 row shares 1/4, 1/2 and 3/4, with the coefficient vectors the full-matrix
# kernel solve returned for them
INTERPOLANTS = json.loads(
    (Path(__file__).parent / "data" / "interpolants_seeded.json").read_text())


@pytest.mark.parametrize("inst", INTERPOLANTS,
                         ids=lambda t: "q{q}-m{m}-{m1}{m2}-{n}".format(n=len(t["S1"]), **t))
def test_interpolants_match_committed_vectors(inst):
    g = interpolate_vanishing([tuple(p) for p in inst["S1"]], inst["m1"],
                              [tuple(p) for p in inst["S2"]], inst["m2"],
                              inst["m"], q=inst["q"])
    assert g.coeffs.tolist() == inst["coeffs"]


def test_interpolant_is_first_kernel_vector_of_full_matrix():
    """interpolate_vanishing eliminates only the first rows+1 columns; its
    result is still the first kernel basis vector of the whole constraint
    matrix, also when the rows are dependent."""
    shapes = [(m, m1, m2, share) for m in (1, 2)
              for m1, m2, share in ((1, 1, Fraction(1, 4)), (2, 1, Fraction(1, 2)),
                                    (1, 2, Fraction(1, 4)))]
    deficient = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        ctx = field_of_order(q)
        rng = random.Random(q)
        pool = [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]
        for m, m1, m2, share in shapes:
            budget = count_capped_monomials(3, q, m) - 1
            w1, w2 = comb(m1 + 2, 3), comb(m2 + 2, 3)
            n1 = max(1, int(share * budget) // w1)
            n2 = min((budget - n1 * w1) // w2, 3)
            pts = rng.sample(pool, n1 + n2)
            g = interpolate_vanishing(pts[:n1], m1, pts[n1:], m2, m, q=q)
            constraints = [(c, m1) for c in pts[:n1]] + [(c, m2) for c in pts[n1:]]
            full = poly.constraint_rows_matrix(g.basis, constraints, ctx)
            kernel = nullspace(full, ctx)
            assert g.coeffs.tolist() == kernel[0].tolist(), (q, m, m1, m2)
            if full.shape[1] - len(kernel) < full.shape[0]:
                deficient.append((q, m, m1, m2))
    # the rank-deficient case is exercised
    assert deficient
