import re
from fractions import Fraction
from math import isqrt

import numpy as np
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


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (4, 2), (8, 2), (9, 2), (4, 3)])
def test_identity_variety_matches_formula(p, n):
    # p is r = sqrt(q), a prime power: GF(16), GF(64) and GF(81) too
    V = build_hermitian(identity_hermitian(p, n), n)
    assert V.non_degenerate
    assert len(V.points) == phi(n, p * p)
    for x in V.points:
        assert V.contains(x)


@pytest.mark.parametrize("p,n,seed", [(2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 5),
                                      (4, 2, 1), (4, 2, 2), (4, 2, 3)])
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
        assert classify_line(V, pg.line_ids(c, d)) == "contained"


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
            ln = pg.line_ids(c, x)
            assert classify_line(V, ln) == "contained"
            lines.add(tuple(ln[:2]))
        assert len(lines) == r + 1
        # lines through c in the tangent plane: r+1 contained + (q-r) tangent
        assert len(tangent_lines_at(V, c)) == q - r


def _variety(r, make):
    if make == "identity":
        return build_hermitian(identity_hermitian(r, 3), 3)
    V = next(W for W in (build_hermitian(random_hermitian(r, 3, s), 3)
                         for s in range(100)) if W.non_degenerate)
    assert V.H != identity_hermitian(r, 3)
    return V


@pytest.mark.parametrize("make", ["identity", "random"])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_tangent_lines_at_brute_force(p, make):
    # the lines through c meeting V only at c, ordered by their least point
    # other than c.  The lines through c are line_ids(c, x) for every other
    # point x, deduplicated: at q = 16 (r = 4 composite) all_lines of
    # PG(3,q) would need a pair array of about 600 MB
    q = p * p
    V = _variety(p, make)
    pg = proj_space(q, 3)
    for c in V.points[::len(V.points) // 4]:
        i = int(pg.ids(c))
        through = np.unique(pg.line_ids(np.array(c), np.delete(pg.array, i, axis=0)), axis=0)
        assert len(through) == q * q + q + 1
        expect = through[V.mask[through].sum(axis=1) == 1]
        expect = expect[np.argsort([min(x for x in ln if x != i) for ln in expect.tolist()])]
        assert len(expect) == q - isqrt(q)
        assert np.array_equal(tangent_lines_at(V, c), expect)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_tangent_lines_at_batch_matches_single_calls(r):
    V = _variety(r, "random")
    q = r * r
    pts = np.array(V.points[::7])
    one_by_one = np.stack([tangent_lines_at(V, c) for c in pts])
    assert np.array_equal(tangent_lines_at(V, pts), one_by_one)
    grid = pts[:6].reshape(2, 3, 4)
    assert np.array_equal(tangent_lines_at(V, grid), one_by_one[:6].reshape(2, 3, q - r, q + 1))
    assert tangent_lines_at(V, pts[:0]).shape == (0, q - r, q + 1)


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
    # tangent_lines_at names the point off V anywhere in a batch, same text
    with pytest.raises(ValueError, match=re.escape(f"requires a variety point, got {off}")):
        tangent_lines_at(V, [V.points[0], off])


def test_tangent_lines_at_singular_point_raises():
    ctx = identity_hermitian(2, 2).ctx
    V = build_hermitian(HermitianMatrix(ctx, ((1, 0, 0), (0, 1, 0), (0, 0, 0))), 2)
    with pytest.raises(ValueError):
        tangent_lines_at(V, V.singular_points[0])
    # a singular point anywhere in a batch is named
    c = V.singular_points[0]
    with pytest.raises(ValueError, match=re.escape(f"singular point {c} has no tangent lines")):
        tangent_lines_at(V, [x for x in V.points if x != c] + [c])


def test_family_q4():
    V = build_hermitian(identity_hermitian(2, 3), 3)
    fam, rep = build_tangent_line_family(V, Fraction(1, 2), seed=3)
    assert rep["nP"] == 22
    assert rep["nL"] == 44 == rep["nL_expected"]
    assert fam.lines.shape == (44, 5)
    assert len({tuple(ln[:2]) for ln in fam.lines}) == 44  # distinct
    assert rep["uncovered_variety_points"] == 45 - 22


@pytest.mark.parametrize("fault", ["count", "shared"])
def test_family_claim_checks_fire(fault, monkeypatch):
    # the family's claims are explicit checks: make one tangent candidate
    # per point meet V twice, or give every point the first point's lines
    import fqgeom.hermitian as hm

    V = build_hermitian(identity_hermitian(2, 3), 3)
    first = tangent_lines_at(V, V.points[0])
    meet_sizes = hm._meet_sizes

    def one_less_tangent(V, lines):
        sizes = meet_sizes(V, lines).copy()
        rows = np.arange(len(sizes))
        sizes[rows, (sizes == 1).argmax(axis=1)] = isqrt(V.q) + 1
        return sizes

    if fault == "count":
        monkeypatch.setattr(hm, "_meet_sizes", one_less_tangent)
    else:
        monkeypatch.setattr(hm, "tangent_lines_at", lambda V, c: np.broadcast_to(
            first, np.shape(c)[:-1] + first.shape))
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
    assert np.array_equal(a.lines, b.lines) and ra == rb
