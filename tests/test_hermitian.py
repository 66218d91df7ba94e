from fractions import Fraction
from math import isqrt

import pytest

from fqgeom.geom import proj_space
from fqgeom.hermitian import (
    AlphaOutOfRange,
    HermitianMatrix,
    NonSquareField,
    NotHermitian,
    WholeSpace,
    build_hermitian,
    build_tangent_line_family,
    classify_line,
    degenerate_count,
    identity_hermitian,
    phi,
    random_hermitian,
    tangent_lines_at,
    tangent_space,
)


def test_phi_values():
    assert phi(2, 4) == 9
    assert phi(3, 4) == 45
    assert phi(1, 4) == 3
    assert phi(3, 9) == 280
    with pytest.raises(NonSquareField):
        phi(2, 5)


def test_degenerate_count_values():
    assert degenerate_count(2, 4, 2) == 13  # q^{3/2} + q + 1
    assert degenerate_count(2, 9, 2) == 37
    assert degenerate_count(2, 4, 3) == phi(2, 4)  # full rank


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
def test_identity_variety_matches_formula(p, n):
    V = build_hermitian(identity_hermitian(p, n), n)
    assert V.non_degenerate
    assert len(V.points) == phi(n, p * p)
    for x in V.points:
        assert V.contains(x)


@pytest.mark.parametrize("p,n,seed", [(2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 5)])
def test_random_variety_counts(p, n, seed):
    H = random_hermitian(p, n, seed)
    V = build_hermitian(H, n)
    q = p * p
    if V.rank == 0:
        assert len(V.points) == len(proj_space(q, n).points)
    else:
        assert len(V.points) == degenerate_count(n, q, V.rank)


def test_not_hermitian_rejected():
    ctx = identity_hermitian(2, 2).ctx
    with pytest.raises(NotHermitian):
        HermitianMatrix(ctx, ((0, 1, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(NotHermitian):
        build_hermitian(HermitianMatrix(ctx, ((1, 0), (0, 1))), 2)  # size mismatch


def test_degenerate_rank2_curve():
    ctx = identity_hermitian(2, 2).ctx
    H = HermitianMatrix(ctx, ((1, 0, 0), (0, 1, 0), (0, 0, 0)))
    V = build_hermitian(H, 2)
    assert V.rank == 2
    assert len(V.points) == degenerate_count(2, 4, 2) == 13
    assert V.singular_points == [(0, 0, 1)]


def test_zero_matrix_everything_variety():
    ctx = identity_hermitian(2, 2).ctx
    H = HermitianMatrix(ctx, tuple((0,) * 3 for _ in range(3)))
    V = build_hermitian(H, 2)
    assert V.rank == 0
    assert len(V.points) == 21  # all of PG(2,4)


def test_classify_all_lines_pg34():
    V = build_hermitian(identity_hermitian(2, 3), 3)
    pg = proj_space(4, 3)
    sizes = {"tangent": 0, "secant": 0, "contained": 0}
    for ln in pg.all_lines():
        sizes[classify_line(V, ln)] += 1
    assert sum(sizes.values()) == 357
    assert sizes["tangent"] > 0 and sizes["secant"] > 0 and sizes["contained"] > 0


def test_line_through_singular_point_contained():
    ctx = identity_hermitian(2, 2).ctx
    H = HermitianMatrix(ctx, ((1, 0, 0), (0, 1, 0), (0, 0, 0)))
    V = build_hermitian(H, 2)
    c = V.singular_points[0]
    pg = proj_space(4, 2)
    for d in V.points:
        if d == c:
            continue
        assert classify_line(V, pg.line_points(c, d)) == "contained"


def test_tangent_space_structure():
    q = 4
    V = build_hermitian(identity_hermitian(2, 3), 3)
    pg = proj_space(q, 3)
    r = isqrt(q)
    for c in V.points[:6]:
        w = tangent_space(V, c)
        assert not isinstance(w, WholeSpace)
        section = [x for x in pg.hyperplane_points(w) if V.contains(x)]
        assert len(section) == degenerate_count(2, q, 2) == 13
        # the section is r+1 lines through c
        others = [x for x in section if x != c]
        lines = set()
        for x in others:
            ln = pg.line_points(c, x)
            assert classify_line(V, ln) == "contained"
            lines.add(ln[:2])
        assert len(lines) == r + 1
        # lines through c in the tangent plane: r+1 contained + (q-r) tangent
        assert len(tangent_lines_at(V, c)) == q - r


@pytest.mark.parametrize("make", ["identity", "random"])
@pytest.mark.parametrize("p", [2, 3])
def test_tangent_lines_at_brute_force(p, make):
    # the lines through c meeting V only at c, taken from every line of
    # PG(3,q) and ordered by their least point other than c
    q = p * p
    if make == "identity":
        V = build_hermitian(identity_hermitian(p, 3), 3)
    else:
        V = next(W for W in (build_hermitian(random_hermitian(p, 3, s), 3)
                             for s in range(100)) if W.non_degenerate)
        assert V.H != identity_hermitian(p, 3)
    on_v = set(V.points)
    lines = proj_space(q, 3).all_lines()
    for c in V.points[::len(V.points) // 4]:
        expect = [ln for ln in lines if c in ln and sum(x in on_v for x in ln) == 1]
        expect.sort(key=lambda ln: min(x for x in ln if x != c))
        assert len(expect) == q - isqrt(q)
        assert tangent_lines_at(V, c) == expect


def test_degenerate_count_rank_range():
    for r in (0, 5):
        with pytest.raises(ValueError, match="outside 1..4"):
            degenerate_count(3, 4, r)


def test_tangent_space_of_singular_point():
    ctx = identity_hermitian(2, 2).ctx
    H = HermitianMatrix(ctx, ((1, 0, 0), (0, 1, 0), (0, 0, 0)))
    V = build_hermitian(H, 2)
    assert isinstance(tangent_space(V, V.singular_points[0]), WholeSpace)


def test_tangent_space_rejects_point_off_variety():
    V = build_hermitian(identity_hermitian(2, 3), 3)
    off = next(x for x in proj_space(4, 3).points if not V.contains(x))
    with pytest.raises(ValueError):
        tangent_space(V, off)


def test_tangent_lines_at_singular_point_raises():
    ctx = identity_hermitian(2, 2).ctx
    V = build_hermitian(HermitianMatrix(ctx, ((1, 0, 0), (0, 1, 0), (0, 0, 0))), 2)
    with pytest.raises(ValueError):
        tangent_lines_at(V, V.singular_points[0])


def test_family_q4():
    V = build_hermitian(identity_hermitian(2, 3), 3)
    fam, rep = build_tangent_line_family(V, Fraction(1, 2), seed=3)
    assert rep["nP"] == 22
    assert rep["nL"] == 44 == rep["nL_expected"]
    assert len({ln[:2] for ln in fam.lines}) == 44  # distinct
    assert rep["uncovered_variety_points"] == 45 - 22


@pytest.mark.parametrize("fault", ["count", "shared"])
def test_family_claim_checks_fire(fault, monkeypatch):
    # the family's claims are explicit checks: feed it one line too few at
    # each point, or the same lines at every point
    import fqgeom.hermitian as hm

    V = build_hermitian(identity_hermitian(2, 3), 3)
    first = tangent_lines_at(V, V.points[0])
    fake = {"count": lambda V, c: tangent_lines_at(V, c)[1:],
            "shared": lambda V, c: first}[fault]
    monkeypatch.setattr(hm, "tangent_lines_at", fake)
    with pytest.raises(AssertionError, match={"count": "tangent lines at",
                                              "shared": "shared"}[fault]):
        build_tangent_line_family(V, Fraction(1, 2), seed=3)


def test_family_alpha_range():
    V = build_hermitian(identity_hermitian(2, 3), 3)
    with pytest.raises(AlphaOutOfRange):
        build_tangent_line_family(V, Fraction(0), seed=0)
    with pytest.raises(AlphaOutOfRange):
        build_tangent_line_family(V, Fraction(3, 2), seed=0)


def test_family_deterministic():
    V = build_hermitian(identity_hermitian(2, 3), 3)
    a, ra = build_tangent_line_family(V, Fraction(1, 2), seed=8)
    b, rb = build_tangent_line_family(V, Fraction(1, 2), seed=8)
    assert a.lines == b.lines and ra == rb
