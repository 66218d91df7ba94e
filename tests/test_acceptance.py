"""End-to-end acceptance battery: exact identities, oracle equivalences,
and the finitely-checkable constants, each at its stated tolerance."""
import json
import math
import random
import time
from fractions import Fraction
from math import comb, isqrt

import pytest

from fqgeom.geom import LineFamily, PointSet, affine_space, proj_space
from fqgeom.gf import field_of_order
from fqgeom.poly import (
    MonomialBasis,
    MultiPoly,
    count_capped_monomials,
    count_capped_monomials_bruteforce,
    interpolate_vanishing,
    multiplicity_at,
    restrict_to_line,
)


# 1 -- monomial-count oracle ------------------------------------------------

def test_monomial_count_oracle_full_grid():
    start = time.time()
    for n in (1, 2, 3):
        for q in range(2, 10):
            for j in range(1, 31):
                m = Fraction(j, 10)
                assert count_capped_monomials(n, q, m) == \
                    count_capped_monomials_bruteforce(n, q, m), (n, q, m)
    assert time.time() - start < 10


# 2 -- interpolation soundness ---------------------------------------------

@pytest.mark.parametrize("q", [3, 5, 7])
def test_interpolation_soundness_seeded(q):
    start = time.time()
    rng = random.Random(q)
    n = 3
    for trial in range(50):
        m1 = rng.choice([1, 2])
        m2 = rng.choice([1, 2])
        m = rng.choice([2, 3])
        budget = len(MonomialBasis(n, q, m)) - 1
        pool = [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]
        rng.shuffle(pool)
        n1 = rng.randint(1, max(1, budget // (2 * comb(m1 + 2, 3))))
        rem = (budget - n1 * comb(m1 + 2, 3)) // comb(m2 + 2, 3)
        n2 = rng.randint(0, max(0, min(rem, 8)))
        S1, S2 = pool[:n1], pool[n1:n1 + n2]
        g = interpolate_vanishing(S1, m1, S2, m2, m, q=q)
        assert not g.is_zero()
        for pt in S1:
            assert multiplicity_at(g, pt) >= m1
        for pt in S2:
            assert multiplicity_at(g, pt) >= m2
    assert time.time() - start < 300


# 3 -- restriction property suite ------------------------------------------

@pytest.mark.parametrize("q", [3, 5, 7])
def test_restriction_multiplicity_property(q):
    rng = random.Random(100 + q)
    basis = MonomialBasis(3, q, 2)
    ctx = field_of_order(q)
    for trial in range(200):
        coeffs = [0] * len(basis)
        for _ in range(rng.randint(1, 8)):
            coeffs[rng.randrange(len(basis))] = rng.randrange(1, q)
        g = MultiPoly(basis, coeffs, ctx)
        a = tuple(rng.randrange(q) for _ in range(3))
        b = tuple(rng.randrange(q) for _ in range(3))
        if not any(b):
            b = (0, 0, 1)
        t0 = rng.randrange(q)
        pt = tuple(ctx.add(ai, ctx.mul(t0, bi)) for ai, bi in zip(a, b))
        f = restrict_to_line(g, a, b)
        assert multiplicity_at(g, pt) <= f.multiplicity_at(t0)


# 4 -- Kakeya construction -------------------------------------------------

QS = [3, 5, 7, 9, 11, 13]


@pytest.mark.parametrize("q", QS)
def test_qr_construction_is_kakeya(q):
    from fqgeom.kakeya import KakeyaWitness, build_quadratic_residue_set, verify_kakeya

    start = time.time()
    K = build_quadratic_residue_set(q)
    assert isinstance(verify_kakeya(K), KakeyaWitness)
    assert time.time() - start < 60


@pytest.mark.parametrize("q", QS)
def test_qr_size_exact(q):
    from fqgeom.kakeya import build_quadratic_residue_set

    K = build_quadratic_residue_set(q)
    assert len(K) == (q - 1) * ((q + 1) // 2) ** 2 + q * q


@pytest.mark.parametrize("q", QS)
def test_qr_size_closed_form(q):
    # |A ∪ B| = |A| + |B| - |A ∩ B| with |A| = q*h^2, |B| = q^2, |A ∩ B| = h^2
    from fqgeom.kakeya import build_quadratic_residue_set

    h = (q + 1) // 2
    K = build_quadratic_residue_set(q)
    assert len(K) == q * h ** 2 + q * q - h ** 2


@pytest.mark.parametrize("q", QS)
def test_qr_size_meets_integer_bound(q):
    from fqgeom.kakeya import build_quadratic_residue_set, integer_multiplicity_bound

    assert len(build_quadratic_residue_set(q)) >= integer_multiplicity_bound(q, 3, 2)


# 5 -- fractional optimum --------------------------------------------------

def test_fractional_optimum():
    from fqgeom.kakeya import fractional_coefficient, optimize_fractional_bound

    start = time.time()
    m, c, _ = optimize_fractional_bound()
    assert abs(c - 0.21076) < 5e-5
    assert fractional_coefficient(2, 2) == Fraction(5, 24)
    assert time.time() - start < 1


# 6 -- golden-ratio threshold ----------------------------------------------

def test_golden_ratio_threshold():
    from fqgeom.nikodym import golden_ratio_threshold

    start = time.time()
    root = golden_ratio_threshold()
    assert abs(root - (math.sqrt(5) - 1) / 2) < 1e-8
    assert time.time() - start < 1


# 7 -- incidence spectrum --------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_incidence_spectrum(q):
    from fqgeom.incidence import gram_identity_check, incidence_spectrum

    start = time.time()
    assert gram_identity_check(q)
    rep = incidence_spectrum(q)
    assert abs(rep.numeric_sigma1 - math.sqrt(q * (q * q + q + 1))) < 1e-8
    assert abs(rep.numeric_sigma2 - math.sqrt(q * q + q)) < 1e-8
    assert time.time() - start < 60


# 8 -- mixing inequality ---------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4])
def test_mixing_500_draws(q):
    from fqgeom.incidence import mixing_discrepancy_check

    sp = affine_space(q, 3)
    pool = sp.all_lines()
    rng = random.Random(1000 + q)
    for _ in range(500):
        nP = rng.randint(0, q ** 3)
        nL = rng.randint(0, min(len(pool), 120))
        P = PointSet(q, 3, indices=rng.sample(range(q ** 3), nP))
        L = LineFamily(sp, rng.sample(pool, nL))
        assert mixing_discrepancy_check(P, L)["holds"]


def test_mixing_on_nikodym_witnesses():
    from fqgeom.incidence import mixing_bound_holds
    from fqgeom.nikodym import NikodymWitness

    for q, wit in _nikodym_battery_witnesses():
        fam = LineFamily(affine_space(q, 3), wit.assignment.values())
        if not fam:
            continue
        I = (q - 1) * len(fam)
        assert mixing_bound_holds(I, len(wit.pointset), len(fam), q)


# 9 -- conic-dual union-of-lines construction ------------------------------

@pytest.mark.parametrize("q", [5, 7, 13])
def test_conic_dual_family(q):
    from fqgeom.nikodym import build_conic_dual_line_family

    start = time.time()
    fam, rep = build_conic_dual_line_family(q)
    k = int(Fraction(62, 100) * q)
    assert rep["max_dual_coincidence"] == 2
    assert rep["nL"] >= k * q * (q + 1) - comb(k, 2)
    assert rep["nP"] <= k * q * q - (q - 1) * comb(k, 2) - (k - 1)
    assert time.time() - start < 120


# 10 -- Nikodym verification battery ---------------------------------------

def _nikodym_battery(q):
    """20 labelled cases: (name, set, expect_valid)."""
    sp = affine_space(q, 3)
    rng = random.Random(2000 + q)
    cases = [("full", PointSet.full(q), True), ("empty", PointSet(q, 3), False)]
    for i in range(6):
        s = PointSet.full(q)
        for idx in rng.sample(range(q ** 3), i + 1):
            s.discard(idx)
        from fqgeom.nikodym import NikodymWitness, verify_nikodym

        cases.append((f"minus-{i + 1}", s, None))  # decided by the checker
    for i in range(6):
        pl = sp.all_planes()[rng.randrange(len(sp.all_planes()))]
        cases.append((f"slab-{i}", PointSet(q, 3, indices=sp.plane_points(pl)),
                      False))
    for i in range(6):
        s = PointSet(q, 3, indices=rng.sample(range(q ** 3),
                                              rng.randint(0, q ** 3 // 2)))
        cases.append((f"random-{i}", s, None))
    return cases


def _nikodym_battery_witnesses():
    from fqgeom.nikodym import NikodymWitness, verify_nikodym

    out = []
    for q in (3, 4, 5):
        for name, s, expect in _nikodym_battery(q):
            res = verify_nikodym(s)
            if isinstance(res, NikodymWitness):
                out.append((q, res))
    return out


@pytest.mark.parametrize("q", [3, 4, 5])
def test_nikodym_battery(q):
    from fqgeom.nikodym import FailingPoints, NikodymWitness, verify_nikodym

    sp = affine_space(q, 3)
    cases = _nikodym_battery(q)
    assert len(cases) == 20
    for name, s, expect in cases:
        res = verify_nikodym(s)
        valid = isinstance(res, NikodymWitness)
        if expect is not None:
            assert valid == expect, name
        if not valid:
            assert isinstance(res, FailingPoints) and res.points
            continue
        # brute-force the accepted answer: every point has a qualifying line
        comp = ~s.mask
        for p in range(q ** 3):
            ok = any(
                sum(1 for x in sp.line_points(d, p) if comp[x]) == int(comp[p])
                for d in range(sp.ndirs)
            )
            assert ok, (name, p)
        # single-intersection witness incidences: exactly (q-1)|complement|
        from fqgeom.incidence import count_incidences

        fam = LineFamily(sp, res.assignment.values())
        assert len(fam) == int(comp.sum())
        assert count_incidences(s, fam).incidences == (q - 1) * len(fam)


# 11 -- Hermitian counts ---------------------------------------------------

@pytest.mark.parametrize("p", [2, 3])
def test_hermitian_counts(p):
    from fqgeom.hermitian import (
        build_hermitian, classify_line, degenerate_count, identity_hermitian,
        phi, tangent_lines_at, tangent_space,
    )

    start = time.time()
    q = p * p
    r = isqrt(q)
    for n in (2, 3):
        V = build_hermitian(identity_hermitian(p, n), n)
        assert V.mask.sum() == phi(n, q)
    V = build_hermitian(identity_hermitian(p, 3), 3)
    pg = proj_space(q, 3)
    assert degenerate_count(2, q, 2) == r ** 3 + q + 1
    for c in pg.array[V.mask][:4]:
        w = tangent_space(V, c)
        section = [x for x in pg.hyperplane_points(w) if V.mask[x]]
        assert len(section) == degenerate_count(2, q, 2)
        assert len(tangent_lines_at(V, c)) == q - r
    if q == 4:
        for ln in pg.all_lines():
            assert classify_line(V, ln) in ("tangent", "secant", "contained")
    assert time.time() - start < 180


# 12 -- tangent-line family construction -----------------------------------

@pytest.mark.parametrize("p", [2, 3])
def test_tangent_line_family(p):
    from fqgeom.hermitian import (
        build_hermitian, build_tangent_line_family, identity_hermitian,
    )

    start = time.time()
    q = p * p
    r = isqrt(q)
    V = build_hermitian(identity_hermitian(p, 3), 3)
    for seed in (1, 2, 3):
        fam, rep = build_tangent_line_family(V, Fraction(1, 2), seed=seed)
        assert rep["nL"] == (q - r) * rep["nP"]
        assert len({tuple(ln[:2]) for ln in fam.lines}) == rep["nL"]
        assert rep["uncovered_variety_points"] == rep["nV"] - rep["nP"]
        assert "max_plane_occupancy" in rep  # reported only
    assert time.time() - start < 180


# 13 -- determinism --------------------------------------------------------

def test_suite_reruns_byte_identical(tmp_path):
    from fqgeom.cli import main

    path = tmp_path / "suite.json"
    assert main(["suite", "--max-q", "5", "--seed", "1",
                 "--report", str(path)]) == 0
    first = path.read_bytes()
    assert main(["suite", "--max-q", "5", "--seed", "1",
                 "--report", str(path)]) == 0
    assert path.read_bytes() == first
    assert json.loads(first)["failed"] == []
