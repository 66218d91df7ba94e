import numpy as np
import pytest

from fqgeom import geom, linalg
from fqgeom.geom import (
    LineFamily,
    PointSet,
    PROJ_POINT_LIMIT,
    UnsupportedField,
    affine_space,
    conic_dual_lines,
    enumerate_lines,
    max_line_coincidence,
    proj_space,
)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (5, 3)])
def test_direction_and_line_counts(q, n):
    sp = affine_space(q, n)
    assert sp.ndirs == (q ** n - 1) // (q - 1)
    lines = sp.all_lines()
    assert len(lines) == q ** (n - 1) * sp.ndirs
    assert len(lines) == len(set(lines))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_line_points_structure(q):
    sp = affine_space(q, 3)
    for d in range(sp.ndirs):
        pts = sp.line_points(d, 0)
        assert len(set(pts)) == q
        vec = sp.proj.array[d].tolist()
        for t, p in enumerate(pts):
            assert sp.point_coords([p])[:, 0].tolist() == [
                sp.ctx.mul(t, v) for v in vec
            ]


@pytest.mark.parametrize("q", [3, 4])
def test_lines_through_point_count(q):
    sp = affine_space(q, 3)
    for p in (0, 1, q ** 3 - 1):
        lines = sp.lines_through(p)
        assert len(lines) == q * q + q + 1
        assert len(set(lines)) == len(lines)
        for d, base in lines:
            assert p in sp.line_points(d, base)


def scalar_line(sp, d, p):
    """Points p + t*d, t = 0..q-1, from the scalar field operations."""
    ctx, vec, x = sp.ctx, sp.proj.array[d].tolist(), sp.point_coords([p])[:, 0].tolist()
    return [sum(ctx.add(xi, ctx.mul(t, di)) * sp.q ** i
                for i, (xi, di) in enumerate(zip(x, vec)))
            for t in range(sp.q)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_line_table_matches_scalar_path(q):
    for n in (2, 3):
        sp = affine_space(q, n)
        for d in range(sp.ndirs):
            tab = sp.line_points(d, np.arange(sp.npoints))
            assert tab.shape == (sp.npoints, q)
            for p in range(0, sp.npoints, 7):
                assert tab[p].tolist() == scalar_line(sp, d, p)
        # one call over k lines of mixed directions
        dirs = [d % sp.ndirs for d in range(0, 5 * sp.ndirs, 3)]
        bases = [(11 * i + 5) % sp.npoints for i in range(len(dirs))]
        tab = sp.line_points(dirs, bases)
        assert tab.shape == (len(dirs), q)
        assert tab.tolist() == [scalar_line(sp, d, p) for d, p in zip(dirs, bases)]
        assert sp.line_points([], []).shape == (0, q)


@pytest.mark.parametrize("q", [3, 5])
def test_planes(q):
    sp = affine_space(q, 3)
    planes = sp.all_planes()
    assert len(planes) == (q * q + q + 1) * q
    pl = planes[0]
    pts = sp.plane_points(pl)
    assert len(pts) == q * q
    lines = sp.lines_in_plane(pl)
    assert len(lines) == q * (q + 1)
    in_plane = set(pts)
    for d, base in lines:
        assert set(sp.line_points(d, base)) <= in_plane


@pytest.mark.parametrize("q", [3, 4])
def test_planes_through_line(q):
    sp = affine_space(q, 3)
    line = sp.canonical_line(0, 0)
    planes = [divmod(p, q) for p in sp.line_planes(*line).tolist()]
    assert len(set(planes)) == q + 1
    lp = set(sp.line_points(*line))
    for pl in planes:
        assert lp <= set(sp.plane_points(pl))


def plane_membership(sp):
    """Bool (planes, points) matrix from plane_points, rows by id m*q + c."""
    member = np.zeros((sp.ndirs * sp.q, sp.npoints), dtype=bool)
    for m, c in sp.all_planes():
        member[m * sp.q + c, sp.plane_points((m, c))] = True
    return member


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_line_planes_brute_force(q):
    # a plane id is returned iff the plane holds the whole line
    sp = affine_space(q, 3)
    member = plane_membership(sp)
    lines = sp.all_lines()
    lines = lines[:: max(1, len(lines) // 300)]
    dirs, bases = geom.split_lines(lines)
    got = sp.line_planes(dirs, bases)
    assert got.shape == (len(lines), q + 1)
    holds = member[:, sp.line_points(dirs, bases)].all(axis=-1).T  # (lines, planes)
    for row, want in zip(got, holds):
        assert row.tolist() == np.flatnonzero(want).tolist()  # ascending
    for (d, b), row in zip(lines[:: 17], got[:: 17]):
        one = sp.line_planes(d, b)
        assert one.shape == (q + 1,) and one.tolist() == row.tolist()
    assert sp.line_planes([], []).shape == (0, q + 1)


def recount_max_occupancy(fam):
    """(plane, count) by brute force over all planes, ties to the largest."""
    sp = fam.space
    member = plane_membership(sp)
    lines = fam.lines()
    counts = member[:, sp.line_points(*geom.split_lines(lines))].all(axis=-1).sum(axis=1)
    return max(((int(n), divmod(pid, sp.q)) for pid, n in enumerate(counts)))[::-1]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_max_plane_occupancy_matches_recount(q):
    sp = affine_space(q, 3)
    lines = sp.all_lines()
    rng = np.random.default_rng(q)
    for size in (1, 3, q * q, 4 * q * q):
        pick = rng.choice(len(lines), size=min(size, len(lines)), replace=False)
        fam = LineFamily(sp, [lines[i] for i in pick])
        plane, occ = fam.max_plane_occupancy()
        assert (plane, occ) == recount_max_occupancy(fam)
        assert type(occ) is int and all(type(x) is int for x in plane)
    # a tie: one line puts 1 in each of its q+1 planes, and the largest wins
    line = lines[len(lines) // 2]
    top = int(sp.line_planes(*line).max())
    assert LineFamily(sp, [line]).max_plane_occupancy() == (divmod(top, q), 1)
    # a tie between two planes of q(q+1) lines each
    both = sp.lines_in_plane((0, 0)) + sp.lines_in_plane((0, q - 1))
    assert LineFamily(sp, both).max_plane_occupancy() == ((0, q - 1), q * (q + 1))
    assert LineFamily(sp).max_plane_occupancy() == (None, 0)
    assert LineFamily(affine_space(q, 2), [(0, 0)]).max_plane_occupancy() == (None, 0)


def test_normalize_dir():
    pg = affine_space(5, 3).proj
    assert pg.array[pg.ids((2, 4, 0))].tolist() == [1, 2, 0]
    assert pg.array[pg.ids((0, 3, 3))].tolist() == [0, 1, 1]
    for q in (5, 8, 9):
        pg = affine_space(q, 3).proj
        for d, vec in enumerate(pg.array.tolist()):
            assert pg.ids(vec) == d
            # every nonzero multiple normalizes back to the direction
            for a in range(1, q):
                assert pg.ids([pg.ctx.mul(a, x) for x in vec]) == d
        with pytest.raises(ValueError):
            pg.ids((0, 0, 0))


def test_pointset_basics():
    s = PointSet(3, 3, indices=[0, 5, 26])
    assert len(s) == 3
    assert 5 in s and 6 not in s
    s.discard(5)
    assert len(s) == 2
    assert len(s.complement()) == 25
    assert s == s.copy()
    assert len(PointSet.full(3)) == 27


def test_linefamily_occupancy_matches_recount():
    sp = affine_space(3, 3)
    fam = LineFamily(sp, sp.all_lines()[:40])
    plane, occ = fam.max_plane_occupancy()
    lines = set(fam.lines())
    recount = max(
        sum(1 for ln in sp.lines_in_plane(pl) if ln in lines)
        for pl in sp.all_planes()
    )
    assert occ == recount
    assert len(fam.union_points()) <= 3 * len(fam)


def test_enumerate_lines_covers_space():
    fam = enumerate_lines(3)
    assert len(fam) == 3 ** 4 + 3 ** 3 + 3 ** 2
    assert len(fam.union_points()) == 27


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 3), (8, 2), (9, 2), (8, 3)])
def test_proj_space_counts(q, n):
    pg = proj_space(q, n)
    assert len(pg.array) == (q ** (n + 1) - 1) // (q - 1)
    lines = pg.all_lines()
    if n == 2:
        assert len(lines) == len(pg.array)
    if n == 3:
        assert len(lines) == (q * q + 1) * (q * q + q + 1)
    for ln in lines[:20]:
        assert len(ln) == q + 1


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3),
                                 (2, 4), (3, 4), (8, 2), (9, 2), (9, 3)])
def test_hyperplanes_through_line_brute_force(q, n):
    pg = proj_space(q, n)
    dot = pg.ctx.dot
    npts = len(pg.array)
    for i, j in {(0, 1), (0, npts - 1), (npts // 3, npts // 2), (npts - 2, npts - 1)}:
        u, v = pg.array[i], pg.array[j]
        expect = [c for c, x in enumerate(pg.array) if dot(x, u) == dot(x, v) == 0]
        assert len(expect) == (q ** (n - 1) - 1) // (q - 1)
        assert pg.hyperplane_points([u, v]).tolist() == expect


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_perp_lines_brute_force(q, n):
    # each (n-1, n+1) matrix gives the sorted ids of the points orthogonal to
    # all its rows, found here by dotting every point with every row
    pg = proj_space(q, n)
    rng = np.random.default_rng(10 * q + n)

    def perp(m):
        return [i for i, x in enumerate(pg.array) if all(pg.ctx.dot(r, x) == 0 for r in m)]

    mats, expect = [], []
    # random matrices almost always pivot on the first columns; the last
    # three have zero leading columns, so pivots differ within one stack
    zero_cols = [0] * 7 + [1, 1, 2]
    while len(mats) < len(zero_cols):
        m = rng.integers(0, q, size=(n - 1, n + 1))
        m[:, :zero_cols[len(mats)]] = 0
        ids = perp(m)
        if len(ids) == q + 1:  # the rows are independent
            mats.append(m)
            expect.append(ids)
    mats, expect = np.array(mats), np.array(expect)
    assert pg.perp_lines(mats[0]).tolist() == expect[0].tolist()
    assert pg.perp_lines(mats[-1]).tolist() == expect[-1].tolist()
    assert pg.perp_lines(mats[1:]).tolist() == expect[1:].tolist()
    assert pg.perp_lines(mats[4:].reshape(2, 3, n - 1, n + 1)).tolist() == (
        expect[4:].reshape(2, 3, q + 1).tolist())
    assert pg.perp_lines(mats[:0]).shape == (0, q + 1)
    assert pg.perp_lines(mats[:0].reshape(3, 0, n - 1, n + 1)).shape == (3, 0, q + 1)
    # a zero row, or (at n = 3) two proportional rows, leave a larger kernel
    dependent = np.zeros((n - 1, n + 1), dtype=np.int64)
    if n == 3:
        dependent[0] = mats[0][0]
        dependent[1] = pg.ctx.vmul(mats[0][0], q - 1)
    for bad in (dependent, np.concatenate([mats[1:3], dependent[None]])):
        with pytest.raises(ValueError, match="dependent"):
            pg.perp_lines(bad)
    with pytest.raises(ValueError, match="matrices"):
        pg.perp_lines(pg.array[:n])  # n rows, not n-1


def test_perp_lines_eliminates_a_stack_in_one_call(monkeypatch):
    # 100 matrices, one elimination: no Python loop over the matrices
    pg = proj_space(5, 3)
    calls = []
    rref = linalg.rref

    def counted(mat, ctx):
        calls.append(np.shape(mat))
        return rref(mat, ctx)

    monkeypatch.setattr(linalg, "rref", counted)
    mats = np.broadcast_to(np.eye(4, dtype=np.int64)[2:], (100, 2, 4))
    assert pg.perp_lines(mats).shape == (100, 6)
    assert calls == [(100, 2, 4)]


@pytest.mark.parametrize("q,n", [(2, 2), (3, 3), (4, 2), (5, 3), (8, 2), (9, 3), (2, 4)])
def test_proj_point_ids_are_rows(q, n):
    # the rows are every normalized vector once, in lexicographic order,
    # and the arithmetic id of any nonzero multiple of a row is that row
    pg = proj_space(q, n)
    rows = pg.array.tolist()
    assert len(rows) == (q ** (n + 1) - 1) // (q - 1)
    assert rows == sorted(rows) and len(set(map(tuple, rows))) == len(rows)
    assert all(next(x for x in r if x) == 1 for r in rows)
    assert pg.ids(pg.array).tolist() == list(range(len(rows)))
    rng = np.random.default_rng(q + n)
    scale = rng.integers(1, q, len(rows))
    scaled = [[pg.ctx.mul(int(a), x) for x in r] for a, r in zip(scale, rows)]
    assert pg.ids(scaled).tolist() == list(range(len(rows)))


def test_proj_space_rejects_untabled_field():
    # refused before any point is built: PG(2, 1031) has about 10^6 points,
    # and its coordinate grid 1031^3
    with pytest.raises(UnsupportedField):
        proj_space(1031, 2)


def test_proj_space_rejects_too_many_points():
    # PG(3, 961) has 8.9 * 10^8 points: refused before its array is built,
    # while PG(3, 169), the Hermitian commands' p = 13, stays in bounds
    with pytest.raises(UnsupportedField, match="over the limit"):
        proj_space(961, 3)
    assert (169 ** 4 - 1) // 168 <= PROJ_POINT_LIMIT < (289 ** 4 - 1) // 288
    with pytest.raises(UnsupportedField):
        proj_space(1, 2)


def test_affine_space_rejects_too_many_points(monkeypatch):
    # AG(3, 1021) has 1.06 * 10^9 points: refused before PG(2, 1021) or any
    # field table is built
    def unbuilt(q, n):
        raise AssertionError("proj_space called")

    monkeypatch.setattr(geom, "proj_space", unbuilt)
    for q in (257, 1021):
        with pytest.raises(UnsupportedField, match="over the limit"):
            affine_space(q, 3)
    assert 256 ** 3 <= PROJ_POINT_LIMIT < 257 ** 3


def test_shear_table_is_bounded():
    # the shear table holds q^3 codes: AG(3,256) stays in bounds, while
    # AG(2,257), whose points are few, has no table and refuses labelling
    assert 256 ** 3 <= PROJ_POINT_LIMIT
    sp = affine_space(257, 2)
    with pytest.raises(UnsupportedField, match="over the limit"):
        sp.line_labels([0])


def test_plane_methods_need_three_dimensions():
    sp = affine_space(5, 2)
    line = sp.all_lines()[0]
    for call in (sp.all_planes, lambda: sp.line_planes(*line),
                 lambda: sp.lines_in_plane((0, 0))):
        with pytest.raises(UnsupportedField, match="n = 3"):
            call()


def test_pg34_sizes():
    pg = proj_space(4, 3)
    assert len(pg.array) == 85
    assert len(pg.all_lines()) == 357


@pytest.mark.parametrize("q", [3, 5, 7])
def test_conic_dual_no_three_concurrent(q):
    duals = conic_dual_lines(q)
    assert duals.shape == (q + 1, 3)
    # normalized rows in ascending id order, which is lexicographic order
    assert (np.diff(proj_space(q, 2).ids(duals)) > 0).all()
    assert max_line_coincidence(q, duals) == 2


def test_unsupported():
    with pytest.raises(UnsupportedField):
        affine_space(6, 3)
    with pytest.raises(UnsupportedField):
        affine_space(3, 4)
    with pytest.raises(UnsupportedField):
        conic_dual_lines(2)
