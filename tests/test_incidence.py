import math
import random
from math import isqrt

import numpy as np
import pytest

from fqgeom import gf
from fqgeom.geom import LineFamily, MismatchedField, PointSet, affine_space
from fqgeom.incidence import (
    FieldTooLarge,
    OutOfRange,
    TooFewPlanes,
    count_incidences,
    cover_bound_holds,
    cover_fraction_check,
    generate_planes,
    gram_identity_check,
    incidence_matrix,
    incidence_spectrum,
    mixing_bound_holds,
    mixing_discrepancy_check,
    mixing_discrepancy_holds,
    mixing_incidence_bound,
    n_lines,
)


@pytest.mark.parametrize("q", [2, 3])
def test_count_incidences_totals(q):
    sp = affine_space(q, 3)
    fam = LineFamily(sp, sp.all_lines())
    stats = count_incidences(PointSet.full(q), fam)
    assert stats.incidences == q * n_lines(q)
    assert count_incidences(PointSet(q, 3), fam).incidences == 0


def test_count_incidences_single_line():
    sp = affine_space(3, 3)
    ln = (0, 0)  # through the origin, its least point
    P = PointSet(3, 3, indices=sp.line_points(*ln))
    fam = LineFamily(sp, [ln])
    assert count_incidences(P, fam).incidences == 3


@pytest.mark.parametrize("block_bytes", [1, 1 << 30])
def test_line_walks_do_not_depend_on_blocks(monkeypatch, block_bytes):
    """union_points, count_incidences and the line branch of
    cover_fraction_check list a block of lines at a time: one line a block
    and every line in one block give what one line_points call over every
    line gives."""
    rng = np.random.default_rng(7)
    sp = affine_space(7, 3)
    fam = LineFamily(sp, sp.all_lines()[rng.choice(n_lines(7), 500, replace=False)])
    P = PointSet.from_mask(7, 3, rng.random(7 ** 3) < 0.3)
    on = sp.line_points(*fam.lines.T)
    plane = affine_space(7, 2)
    planar = LineFamily(plane, plane.all_lines()[::3])
    want_cover = cover_fraction_check(7, lines=planar)
    monkeypatch.setattr(gf, "BLOCK_BYTES", block_bytes)
    assert np.flatnonzero(fam.union_points().mask).tolist() == np.unique(on).tolist()
    assert count_incidences(P, fam).incidences == int(P.mask[on].sum())
    assert cover_fraction_check(7, lines=planar) == want_cover
    assert want_cover["covered"] == len(np.unique(plane.line_points(*planar.lines.T)))


def test_count_incidences_mismatch():
    sp = affine_space(3, 3)
    fam = LineFamily(sp)
    with pytest.raises(MismatchedField):
        count_incidences(PointSet(5, 3), fam)
    # the incidence cap and the mixing bound are those of AG(3,q)
    with pytest.raises(MismatchedField, match="AG\\(3,q\\)"):
        count_incidences(PointSet(3, 2), LineFamily(affine_space(3, 2)))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_biregularity(q):
    N = incidence_matrix(q)
    assert (N.sum(axis=1) == q * q + q + 1).all()
    assert (N.sum(axis=0) == q).all()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_gram_identity(q):
    assert gram_identity_check(q)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_spectrum_closed_form_vs_numeric(q):
    rep = incidence_spectrum(q)
    assert rep.sigma1 == pytest.approx(math.sqrt(q * (q * q + q + 1)), abs=1e-12)
    assert rep.sigma2 == pytest.approx(math.sqrt(q * q + q), abs=1e-12)
    assert abs(rep.numeric_sigma1 - rep.sigma1) < 1e-8
    assert abs(rep.numeric_sigma2 - rep.sigma2) < 1e-8
    assert rep.sigma1 >= rep.sigma2 >= 0


def test_spectrum_large_q_closed_form_only():
    rep = incidence_spectrum(11, numeric=False)
    assert rep.numeric_sigma1 is None
    with pytest.raises(FieldTooLarge):
        incidence_spectrum(11, numeric=True)


def test_second_eigenvalue_tends_to_q():
    for q in (4, 9, 25, 100):
        rep = incidence_spectrum(q, numeric=False)
        assert rep.sigma2 / q == pytest.approx(math.sqrt(1 + 1 / q), abs=1e-12)


def test_bound_edge_cases():
    q = 3
    full = mixing_incidence_bound(q ** 3, 20, q)
    assert full["bound"] == pytest.approx(q * 20, abs=1e-9)
    assert mixing_incidence_bound(10, 0, q)["bound"] == 0
    with pytest.raises(OutOfRange):
        mixing_incidence_bound(q ** 3 + 1, 1, q)
    with pytest.raises(OutOfRange):
        mixing_incidence_bound(1, n_lines(q) + 1, q)


@pytest.mark.parametrize("q", [2, 3])
def test_bound_dominates_random_draws(q):
    sp = affine_space(q, 3)
    pool = sp.all_lines()
    rng = random.Random(7)
    for _ in range(100):
        nP = rng.randint(0, q ** 3)
        nL = rng.randint(0, min(60, len(pool)))
        P = PointSet(q, 3, indices=rng.sample(range(q ** 3), nP))
        L = LineFamily(sp, pool[rng.sample(range(len(pool)), nL)])
        I = count_incidences(P, L).incidences
        assert mixing_bound_holds(I, nP, nL, q)
        assert I <= mixing_incidence_bound(nP, nL, q)["bound"] + 1e-9


@pytest.mark.parametrize("q", [2, 3, 4])
def test_mixing_discrepancy_random(q):
    sp = affine_space(q, 3)
    pool = sp.all_lines()
    rng = random.Random(q)
    for _ in range(50):
        P = PointSet(q, 3, indices=rng.sample(range(q ** 3), rng.randint(0, q ** 3)))
        L = LineFamily(sp, pool[rng.sample(range(len(pool)), rng.randint(0, min(len(pool), 80)))])
        rep = mixing_discrepancy_check(P, L)
        assert rep["holds"]
        assert rep["lhs_squared"] <= rep["rhs_squared"]


def test_mixing_discrepancy_structured():
    q = 3
    sp = affine_space(q, 3)
    P = PointSet(q, 3, indices=sp.plane_points(0))
    L = LineFamily(sp, sp.lines_in_plane(0))
    rep = mixing_discrepancy_check(P, L)
    assert rep["holds"]


def test_mixing_empty_sides():
    q = 2
    sp = affine_space(q, 3)
    rep = mixing_discrepancy_check(PointSet(q, 3), LineFamily(sp))
    assert rep["lhs"] == 0.0


@pytest.mark.parametrize("kind", ["pencil", "parallel", "random"])
def test_cover_bound_generators(kind):
    q = 5
    planes = generate_planes(q, 2 * q, kind, seed=3)
    rep = cover_fraction_check(q, planes=planes)
    assert rep["holds"]
    assert rep["covered"] >= rep["bound"]


def test_cover_bound_random_many_seeds():
    q = 7
    for s in range(10):
        planes = generate_planes(q, 3 * q, "random", seed=s)
        assert cover_fraction_check(q, planes=planes)["holds"]


def test_cover_bound_planar_lines():
    q = 5
    sp = affine_space(q, 2)
    fam = LineFamily(sp, sp.all_lines()[: 2 * q + 1])
    rep = cover_fraction_check(q, lines=fam)
    assert rep["holds"]
    assert rep["kind"] == "lines"


def test_cover_too_few():
    q = 5
    planes = generate_planes(q, q, "random", seed=0)
    with pytest.raises(TooFewPlanes):
        cover_fraction_check(q, planes=planes)
    # a negative count (the CLI's --k below 0) names no family of planes
    for kind in ("pencil", "parallel", "random"):
        with pytest.raises(OutOfRange):
            generate_planes(q, -q, kind)


def mixing_window(nP, nL, q):
    """The least and the greatest incidence count I with
    |I - nP*nL/q^2| <= sqrt(D), D = (q+1) nP nL (q^3-nP) (N-nL) / (q^4 (q^2+q+1))
    for N = n_lines(q): the mixing bound multiplied through by e(G), with
    b*sqrt(D) for b = q^2 floored by isqrt."""
    a, b = nP * nL, q * q
    s = isqrt((q + 1) * nP * nL * (q ** 3 - nP) * (n_lines(q) - nL) // (q * q + q + 1))
    return -((s - a) // b), (a + s) // b


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_mixing_predicates_at_their_boundary(q):
    """The last passing and the first failing incidence count of the two-
    sided discrepancy bound and of the one-sided mixing bound, from the
    closed form in integers."""
    rng = random.Random(q)
    for _ in range(20):
        nP, nL = rng.randint(1, q ** 3 - 1), rng.randint(1, n_lines(q) - 1)
        lo, hi = mixing_window(nP, nL, q)
        assert mixing_discrepancy_holds(hi, nP, nL, q)
        assert not mixing_discrepancy_holds(hi + 1, nP, nL, q)
        assert mixing_bound_holds(hi, nP, nL, q)
        assert not mixing_bound_holds(hi + 1, nP, nL, q)
        assert mixing_discrepancy_holds(lo, nP, nL, q)
        if lo > 0:
            assert not mixing_discrepancy_holds(lo - 1, nP, nL, q)
            assert mixing_bound_holds(lo - 1, nP, nL, q)


@pytest.mark.parametrize("n", [2, 3])
def test_cover_predicate_at_its_boundary(n):
    """The least covered count that passes for count = kq objects is
    ceil(q^n (count-q)^2 / (count^2 - count*q + q^2)), the bound
    (1 - 1/(k-1+1/k)) q^n with k = count/q cleared of fractions."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        for count in range(q + 1, 4 * q + 1):
            least = -(-q ** n * (count - q) ** 2 // (count * count - count * q + q * q))
            assert cover_bound_holds(least, count, q, n)
            assert not cover_bound_holds(least - 1, count, q, n)
