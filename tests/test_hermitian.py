import re
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

import fqgeom.hermitian as hm
from fqgeom import cli
from fqgeom.geom import UnsupportedField, proj_space
from fqgeom.gf import field_of_order
from fqgeom.hermitian import (
    AlphaOutOfRange,
    NonSquareField,
    _meet_sizes,
    build_hermitian,
    build_tangent_line_family,
    phi,
    tangent_cover_holds,
    tangent_lines_at,
)


def _points(V):
    """The variety's points as rows of coordinates, in id order."""
    return proj_space(V.q, V.n).array[V.mask]


def _all_lines(pg):
    """Every line of a small PG(n,q) once: the lines through each pair of
    points, deduplicated."""
    i, j = np.triu_indices(len(pg.array), 1)
    return np.unique(pg.line_ids(pg.array[i], pg.array[j]), axis=0)


def test_phi_values():
    assert phi(2, 4) == 9
    assert phi(3, 4) == 45
    assert phi(1, 4) == 3
    assert phi(3, 9) == 280
    with pytest.raises(NonSquareField):
        phi(2, 5)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (4, 2), (8, 2), (9, 2), (4, 3)])
def test_identity_variety_matches_formula(p, n):
    # p is r = sqrt(q), a prime power: GF(16), GF(64) and GF(81) too
    V = build_hermitian(p, n)
    assert len(_points(V)) == phi(n, p * p)
    assert V.mask[proj_space(p * p, n).ids(_points(V))].all()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_variety_matches_scalar_reference(r, n):
    # x is on V iff x_0^(r+1) + ... + x_n^(r+1) = 0, each norm a^(r+1) taken
    # with the reference multiplication and the sum with the reference
    # addition, not with the tables
    ctx = field_of_order(r * r)
    norm = []
    for a in range(ctx.q):
        x = 1
        for _ in range(r + 1):
            x = ctx._mul_raw(x, a)
        norm.append(x)
    expect = []
    for x in proj_space(ctx.q, n).array.tolist():
        total = 0
        for xi in x:
            total = ctx._add_raw(total, norm[xi])
        expect.append(total == 0)
    V = build_hermitian(r, n)
    assert (V.q, V.n) == (ctx.q, n)
    assert V.mask.tolist() == expect


def test_build_hermitian_rejects_negative_n():
    # by name, not by numpy on an empty list of coordinate blocks
    with pytest.raises(ValueError, match="n = -1 is negative"):
        build_hermitian(2, -1)


def test_classify_all_lines_pg34():
    # every line meets V in 1 (tangent), 3 (secant) or 5 (contained) points
    V = build_hermitian(2, 3)
    sizes = _meet_sizes(V, _all_lines(proj_space(4, 3)))
    assert len(sizes) == 357
    assert set(sizes.tolist()) == {1, 3, 5}


def test_tangent_space_structure():
    q = 4
    V = build_hermitian(2, 3)
    pg = proj_space(q, 3)
    r = isqrt(q)
    for c in _points(V)[:6]:
        # the tangent plane x . conj(c) = 0 meets V in 1 + (r+1)q points
        section = np.flatnonzero(V.mask & (pg.ctx.dot(pg.array, pg.ctx.conj(c)) == 0))
        assert len(section) == 1 + (r + 1) * q == 13
        # the section is r+1 lines through c
        others = [x for x in section if x != pg.ids(c)]
        lines = set()
        for x in others:
            ln = pg.line_ids(c, pg.array[x])
            assert _meet_sizes(V, ln[None]).tolist() == [q + 1]
            lines.add(tuple(ln[:2]))
        assert len(lines) == r + 1
        # lines through c in the tangent plane: r+1 contained + (q-r) tangent
        assert len(tangent_lines_at(V, c)) == q - r


@pytest.mark.parametrize("p", [2, 3, 4])
def test_tangent_lines_at_brute_force(p):
    # the lines through c meeting V only at c, ordered by their least point
    # other than c.  The lines through c are line_ids(c, x) for every other
    # point x, deduplicated: at q = 16 (r = 4 composite) all_lines of
    # PG(3,q) would need a pair array of about 600 MB
    q = p * p
    V = build_hermitian(p, 3)
    pg = proj_space(q, 3)
    pts = _points(V)
    for c in pts[::len(pts) // 4]:
        i = int(pg.ids(c))
        through = np.unique(pg.line_ids(c, np.delete(pg.array, i, axis=0)), axis=0)
        assert len(through) == q * q + q + 1
        expect = through[V.mask[through].sum(axis=1) == 1]
        expect = expect[np.argsort([min(x for x in ln if x != i) for ln in expect.tolist()])]
        assert len(expect) == q - isqrt(q)
        assert np.array_equal(tangent_lines_at(V, c), expect)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_tangent_lines_at_batch_matches_single_calls(r):
    V = build_hermitian(r, 3)
    q = r * r
    pts = _points(V)[::7]
    one_by_one = np.stack([tangent_lines_at(V, c) for c in pts])
    assert np.array_equal(tangent_lines_at(V, pts), one_by_one)
    grid = pts[:6].reshape(2, 3, 4)
    assert np.array_equal(tangent_lines_at(V, grid), one_by_one[:6].reshape(2, 3, q - r, q + 1))
    assert tangent_lines_at(V, pts[:0]).shape == (0, q - r, q + 1)


def test_tangent_space_rejects_point_off_variety():
    V = build_hermitian(2, 3)
    pg = proj_space(4, 3)
    off = tuple(pg.array[np.flatnonzero(~V.mask)[0]].tolist())
    with pytest.raises(ValueError):
        tangent_lines_at(V, off)
    # tangent_lines_at names the point off V anywhere in a batch, same text
    with pytest.raises(ValueError, match=re.escape(f"requires a variety point, got {off}")):
        tangent_lines_at(V, [_points(V)[0], off])


@pytest.mark.parametrize("n", [2, 4])
def test_tangent_lines_refuse_other_dimensions(n, monkeypatch, capsys):
    """Tangent lines are built in PG(3,q) only: a variety in PG(2,q) or
    PG(4,q) is refused by name, by both entry points and with exit 2 from
    the CLI, not with an internal message."""
    V = build_hermitian(2, n)
    message = re.escape(f"need a variety in PG(3,q), not PG({n},q)")
    with pytest.raises(UnsupportedField, match=message):
        tangent_lines_at(V, _points(V)[0])
    with pytest.raises(UnsupportedField, match=message):
        build_tangent_line_family(V, Fraction(1, 2), 1)
    monkeypatch.setattr(hm, "build_hermitian", lambda r, _: build_hermitian(r, n))
    argv = ["hermitian", "tangent-family", "--p", "2", "--alpha", "1/2", "--seed", "1"]
    assert cli.main(argv) == 2
    assert f"not PG({n},q)" in capsys.readouterr().err


def test_family_q4():
    V = build_hermitian(2, 3)
    fam, rep = build_tangent_line_family(V, Fraction(1, 2), seed=3)
    assert rep["nP"] == 22
    assert rep["nL"] == 44 == rep["nL_expected"]
    assert fam.lines.shape == (44, 5)
    assert len({tuple(ln[:2]) for ln in fam.lines}) == 44  # distinct
    assert rep["uncovered_variety_points"] == 45 - 22


@pytest.mark.parametrize("fault", ["count", "shared", "cover"])
def test_family_claim_checks_fire(fault, monkeypatch):
    # the family's claims are explicit checks: make one tangent candidate
    # per point meet V twice, give every point the first point's lines, or
    # make the first point's last line a secant to an unsampled point of V
    V = build_hermitian(2, 3)
    pg = proj_space(V.q, V.n)
    first = tangent_lines_at(V, _points(V)[0])
    meet_sizes = hm._meet_sizes

    def one_less_tangent(V, lines):
        sizes = meet_sizes(V, lines).copy()
        rows = np.arange(len(sizes))
        sizes[rows, (sizes == 1).argmax(axis=1)] = isqrt(V.q) + 1
        return sizes

    def with_secant(V, c):
        lines = tangent_lines_at(V, c).copy()
        unsampled = np.setdiff1d(np.flatnonzero(V.mask), pg.ids(c))[0]
        lines[0, -1] = pg.line_ids(c[0], pg.array[unsampled])
        return lines

    if fault == "count":
        monkeypatch.setattr(hm, "_meet_sizes", one_less_tangent)
    elif fault == "shared":
        monkeypatch.setattr(hm, "tangent_lines_at", lambda V, c: np.broadcast_to(
            first, np.shape(c)[:-1] + first.shape))
    else:
        monkeypatch.setattr(hm, "tangent_lines_at", with_secant)
    with pytest.raises(AssertionError, match={"count": "tangent lines at", "shared": "shared",
                                              "cover": "unsampled variety points"}[fault]):
        build_tangent_line_family(V, Fraction(1, 2), seed=3)


def test_tangent_cover_predicate_at_its_boundary():
    """The last passing and the first failing uncovered counts: exactly
    nV - nP variety points stay uncovered.  One fewer is an unsampled point
    on a tangent line, one more a sampled point off its own lines."""
    for r in (2, 3, 4, 5):
        nV = phi(3, r * r)
        for nP in (1, nV // 8, nV // 2, nV - 1):
            assert tangent_cover_holds(nV - nP, nV, nP)
            assert not tangent_cover_holds(nV - nP - 1, nV, nP)
            assert not tangent_cover_holds(nV - nP + 1, nV, nP)


def test_family_alpha_range():
    V = build_hermitian(2, 3)
    with pytest.raises(AlphaOutOfRange):
        build_tangent_line_family(V, Fraction(0), seed=0)
    with pytest.raises(AlphaOutOfRange):
        build_tangent_line_family(V, Fraction(3, 2), seed=0)


def test_family_deterministic():
    V = build_hermitian(2, 3)
    a, ra = build_tangent_line_family(V, Fraction(1, 2), seed=8)
    b, rb = build_tangent_line_family(V, Fraction(1, 2), seed=8)
    assert np.array_equal(a.lines, b.lines) and ra == rb
