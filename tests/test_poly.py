import json
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product
from math import comb, inf
from pathlib import Path

import numpy as np
import pytest

import fqgeom
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


def code_bytes(q):
    """The width of one coefficient in the shift: its k base-p digits, in
    int16 at every q of these tests."""
    return 2 * field_of_order(q).k


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32])
def test_multiplicities_match_full_shift(q, monkeypatch):
    """The batched Taylor shift against the scalar oracle, on seeded random
    polynomials and on interpolants, at constrained and random points.
    Chunks of 4 points, so that every call spans several chunks."""
    monkeypatch.setattr(poly, "_BLOCK_BYTES", 4 * q ** 3 * code_bytes(q))
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


@pytest.mark.parametrize("q", [7, 4, 9])
def test_chunked_shift_at_chunk_boundaries(q, monkeypatch):
    """multiplicities against the scalar oracle, and restrict_to_line
    against pointwise evaluation, for 1, chunk-1, chunk and chunk+1 points
    with a budget of 5 points per chunk; the chunks are the budget's."""
    chunk = 5
    monkeypatch.setattr(poly, "_BLOCK_BYTES", chunk * q ** 3 * code_bytes(q))
    sizes = []
    shifts = poly._shifts

    def spy(g, pts):
        for lo, h in shifts(g, pts):
            sizes.append(len(h))
            yield lo, h

    monkeypatch.setattr(poly, "_shifts", spy)
    ctx = field_of_order(q)
    rng = random.Random(q)
    pool = list(product(range(q), repeat=3))
    basis = MonomialBasis(3, q, 2)
    for npts in (1, chunk - 1, chunk, chunk + 1):
        g = random_poly(basis, rng, terms=12)
        pts = rng.sample(pool, npts)
        sizes.clear()
        assert multiplicities(g, pts).tolist() == [multiplicity_via_full_shift(g, a) for a in pts]
        assert sizes == [chunk] * (npts // chunk) + [npts % chunk] * (npts % chunk > 0)
        a, b = pts[0], pts[-1] if any(pts[-1]) else (1, 1, 1)
        f = restrict_to_line(g, a, b)
        for t in range(q):
            pt = tuple(ctx.add(ai, ctx.mul(t, bi)) for ai, bi in zip(a, b))
            assert f.evaluate(t) == g.evaluate(pt)


@pytest.mark.parametrize("q", [7, 9])
def test_points_outside_the_space_are_refused(q):
    """A coordinate outside [0, q) or a point of the wrong length is a
    ValueError at every entry point, never an index into a table: -1 would
    read the last row of the power table."""
    basis = MonomialBasis(3, q, 2)
    g = random_poly(basis, random.Random(q))
    for bad in ((q, 0, 0), (0, 0), (-1, 0, 0), (0, 0, 0, 0)):
        with pytest.raises(ValueError, match="not all in GF"):
            interpolate_vanishing([bad], 1, [], 1, 2, q=q)
        with pytest.raises(ValueError, match="not all in GF"):
            multiplicities(g, [bad, bad])
        with pytest.raises(ValueError, match="not all in GF"):
            poly.constraint_rows_matrix(basis, [(bad, 2)])
        # beside a point of length 3, a point of another length is ragged
        for route in (lambda pts: interpolate_vanishing(pts, 1, [], 1, 2, q=q),
                      lambda pts: multiplicities(g, pts),
                      lambda pts: poly.constraint_rows_matrix(basis, [(p, 1) for p in pts]),
                      lambda pts: restrict_to_line(g, *pts),
                      lambda pts: restrict_to_line(g, *pts[::-1])):
            with pytest.raises(ValueError):
                route([(1, 1, 1), bad])
    # one point alone is still a list of one point
    assert multiplicities(g, (1, 2, 3)).tolist() == [multiplicity_via_full_shift(g, (1, 2, 3))]


def reference_rows(basis, points_with_mult, ctx, ncols=None):
    """The constraint rows entry by entry with the scalar field operations:
    prod_i binom(alpha_i, beta_i) * a_i^(alpha_i - beta_i)."""
    rows = []
    for a, mult in points_with_mult:
        betas = sorted((b for b in product(range(mult), repeat=basis.n) if sum(b) < mult), key=sum)
        for beta in betas:
            row = []
            for alpha in basis.exponents[:ncols]:
                v = 1
                for ai, al, be in zip(a, alpha, beta):
                    w = comb(al, be) % ctx.p
                    v = ctx.mul(v, ctx.mul(w, ctx.pow(ai, al - be))) if w else 0
                row.append(v)
            rows.append(row)
    return rows


@pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 9])
def test_constraint_rows_match_scalar_reference(q, monkeypatch):
    """The assembled matrix equals the per-entry scalar reference byte for
    byte, in int16 on prime fields and int64 on GF(p^k), for mixed
    multiplicities 1-3 (above q at q = 2), column prefixes, the empty point
    list, and row blocks of 1 and 3 rows, which end inside a point's rows."""
    ctx = field_of_order(q)
    dt = np.int16 if ctx.k == 1 else np.int64
    rng = random.Random(q)
    pool = list(product(range(q), repeat=3))
    basis = MonomialBasis(3, q, 3)
    cons = [(a, rng.choice((1, 2, 3))) for a in rng.sample(pool, min(8, len(pool)))]
    for ncols in (None, 1, len(basis) // 2):
        width = len(basis.exponents[:ncols])
        ref = np.array(reference_rows(basis, cons, ctx, ncols), dtype=dt)
        for rows_per_block in (1, 3, None):
            if rows_per_block:
                monkeypatch.setattr(poly, "_BLOCK_BYTES", rows_per_block * width * ref.itemsize)
            else:
                monkeypatch.undo()
            got = poly.constraint_rows_matrix(basis, cons, ctx, ncols)
            assert got.dtype == dt and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes(), (q, ncols, rows_per_block)
        empty = poly.constraint_rows_matrix(basis, [], ctx, ncols)
        assert empty.dtype == dt and empty.shape == (0, width)


_ASSEMBLY_CHILD = textwrap.dedent("""
    import json, random
    from fqgeom import poly
    from fqgeom.gf import field_of_order

    def status(key):
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith(key + ":"))

    q = 13
    ctx, basis = field_of_order(q), poly.MonomialBasis(3, q, 2)
    pool = [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]
    cons = [(pt, 2) for pt in random.Random(q).sample(pool, 472)]
    poly.constraint_rows_matrix(basis, cons[:2], ctx, 1889)  # warm the caches
    # VmHWM is this process's own peak, which ru_maxrss is not: it carries
    # the peak of the process that forked it across exec
    before = status("VmRSS")
    m = poly.constraint_rows_matrix(basis, cons, ctx, 1889)
    print(json.dumps({"shape": m.shape, "dtype": str(m.dtype), "nbytes": m.nbytes,
                      "grown_kb": status("VmHWM") - before}))
""")


def test_assembly_memory_bound():
    """The seeded q = 13, m = 2 system (472 points, 1888 x 1889 in int16)
    grows the process's peak by less than 1.5 times the matrix: the rows
    are filled in place, a block at a time, with no list of rows to stack."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fqgeom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _ASSEMBLY_CHILD], env=env,
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert out["shape"] == [1888, 1889] and out["dtype"] == "int16"
    assert out["grown_kb"] * 1024 < 1.5 * out["nbytes"]


_SHIFT_CHILD = textwrap.dedent("""
    import json, random
    from fqgeom import poly
    from fqgeom.gf import field_of_order

    def status(key):
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith(key + ":"))

    def seeded(q, rng):
        basis = poly.MonomialBasis(3, q, 1)
        coeffs = [0] * len(basis)
        for _ in range(40):
            coeffs[rng.randrange(len(basis))] = rng.randrange(1, q)
        return poly.MultiPoly(basis, coeffs, field_of_order(q))

    rng = random.Random(64)
    poly.multiplicities(seeded(4, rng), [(1, 2, 3)])  # warm numpy's loops
    g = seeded(64, rng)
    pts = [tuple(rng.randrange(64) for _ in range(3)) for _ in range(3)]
    before = status("VmRSS")
    poly.multiplicities(g, pts)
    print(json.dumps({"dense_bytes": 6 * 64 ** 3 * 2, "grown_kb": status("VmHWM") - before}))
""")


def test_extension_shift_memory_bound():
    """Re-checking 3 points of a seeded GF(64) polynomial grows the
    process's peak by less than 6 times g's dense digit tensor (6 digits of
    int16 per coefficient, 3 MB): the k x k blocks of the Taylor matrices
    are gathered a chunk at a time.  Blocks for every a in GF(64) at once
    would take 6 times the dense tensor by themselves."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fqgeom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _SHIFT_CHILD], env=env,
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert out["grown_kb"] * 1024 < 6 * out["dense_bytes"]


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


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9, 16, 25, 27, 32])
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
    # a multiplicity above q: its beta_i reach q, past every exponent
    g = interpolate_vanishing([(1, 2, 0)], 4, [], 1, 3, q=3)
    assert multiplicities(g, [(1, 2, 0)])[0] >= 4


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


@pytest.mark.parametrize("q", [7, 9])
def test_multipoly_refuses_codes_outside_the_field(q):
    """A coefficient outside [0, q) is a ValueError, as a point outside the
    space is, never an index into a table: -1 would read the last row."""
    basis = MonomialBasis(3, q, 2)
    for bad in (q, -1):
        coeffs = [0] * len(basis)
        coeffs[0] = bad
        with pytest.raises(ValueError, match=re.escape(f"not all in GF({q})")):
            MultiPoly(basis, coeffs)


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
