import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fqgeom
from fqgeom import geom, linalg
from fqgeom.geom import (
    LineFamily,
    PointSet,
    PROJ_POINT_LIMIT,
    UnsupportedField,
    affine_space,
    conic_dual_lines,
    max_line_coincidence,
    proj_space,
)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (5, 3)])
def test_direction_and_line_counts(q, n):
    sp = affine_space(q, n)
    assert sp.ndirs == (q ** n - 1) // (q - 1)
    lines = sp.all_lines()
    assert lines.shape == (q ** (n - 1) * sp.ndirs, 2)
    assert len(lines) == len(set(map(tuple, lines.tolist())))


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
        ids = np.arange(sp.ndirs)
        lines = list(zip(ids.tolist(), sp.line_points(ids, p).min(axis=1).tolist()))
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
    planes = np.arange(sp.ndirs * q)
    assert len(planes) == (q * q + q + 1) * q
    assert sp.plane_points(planes).shape == (len(planes), q * q)
    pl = planes[0]
    pts = sp.plane_points(pl).tolist()
    assert len(pts) == q * q
    lines = sp.lines_in_plane(pl)
    assert len(lines) == q * (q + 1)
    in_plane = set(pts)
    for d, base in lines:
        assert set(sp.line_points(d, base)) <= in_plane


@pytest.mark.parametrize("q", [3, 4])
def test_planes_through_line(q):
    sp = affine_space(q, 3)
    line = (0, 0)  # through the origin, its least point
    planes = sp.line_planes(*line).tolist()
    assert len(set(planes)) == q + 1
    lp = set(sp.line_points(*line).tolist())
    for pl in planes:
        assert lp <= set(sp.plane_points(pl).tolist())


def plane_membership(sp):
    """Bool (planes, points) matrix of the dot scan m.x = c, rows by id
    m*q + c."""
    x = sp.point_coords(np.arange(sp.npoints)).T
    dots = sp.ctx.dot(sp.proj.array[:, None, :], x)  # (normals, points)
    return (dots[:, None, :] == np.arange(sp.q)[:, None]).reshape(-1, sp.npoints)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_line_planes_brute_force(q):
    # a plane id is returned iff the plane holds the whole line
    sp = affine_space(q, 3)
    member = plane_membership(sp)
    # plane_points of every id lists the dot scan's points, ascending
    got = sp.plane_points(np.arange(sp.ndirs * q))
    assert got.tolist() == [np.flatnonzero(row).tolist() for row in member]
    lines = sp.all_lines()
    lines = lines[:: max(1, len(lines) // 300)]
    dirs, bases = lines.T
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
    counts = member[:, sp.line_points(*fam.lines.T)].all(axis=-1).sum(axis=1)
    return max(((int(n), pid) for pid, n in enumerate(counts)))[::-1]


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
        assert type(occ) is int and type(plane) is int
    # a tie: one line puts 1 in each of its q+1 planes, and the largest wins
    line = lines[len(lines) // 2]
    top = int(sp.line_planes(*line).max())
    assert LineFamily(sp, [line]).max_plane_occupancy() == (top, 1)
    # a tie between two planes of q(q+1) lines each
    both = np.concatenate([sp.lines_in_plane(0), sp.lines_in_plane(q - 1)])
    assert LineFamily(sp, both).max_plane_occupancy() == (q - 1, q * (q + 1))
    assert LineFamily(sp).max_plane_occupancy() == (None, 0)
    assert LineFamily(affine_space(q, 2), [(0, 0)]).max_plane_occupancy() == (None, 0)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_max_plane_occupancy_ignores_the_cell_bound(q, monkeypatch):
    """Blocks of one line, the default blocks and one block count the same
    planes."""
    sp = affine_space(q, 3)
    lines = sp.all_lines()
    fam = LineFamily(sp, lines[np.random.default_rng(q).choice(len(lines), 3 * q * q)])
    got = []
    for cells in (1, geom.KAKEYA_CELLS, 1 << 30):
        monkeypatch.setattr(geom, "KAKEYA_CELLS", cells)
        got.append(fam.max_plane_occupancy())
    assert got[0] == got[1] == got[2] == recount_max_occupancy(fam)


_OCCUPANCY_CHILD = """
import json, random
import numpy as np
from fqgeom.geom import LineFamily, affine_space

def hwm_kb():
    # VmHWM is this process's own peak, which ru_maxrss is not
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

q = 49
sp = affine_space(q, 3)
rng = random.Random(49)
dirs = np.array([rng.randrange(sp.ndirs) for _ in range(16856)])
pts = np.array([rng.randrange(q ** 3) for _ in range(16856)])
# a line's least point is its point with x_m = 0, m its direction's base axis
low = q ** sp.base_axis[dirs]
fam = LineFamily(sp, np.stack([dirs, pts - pts // low % q * low], axis=1))
sp.normals
before = hwm_kb()
got = fam.max_plane_occupancy()
rise = hwm_kb() - before
counts = np.bincount(sp.line_planes(*fam.lines.T).ravel())
top = len(counts) - 1 - int(counts[::-1].argmax())
print(json.dumps({"got": got, "want": [top, int(counts[top])], "rise_kb": rise}))
"""


def test_max_plane_occupancy_memory_bound():
    """The plane counts of 16,856 seeded lines of AG(3,49), as many as the
    Nikodym witness of AG(3,49) minus the Hermitian surface has, raise the
    peak RSS by under 8 MB: their 842,800 plane ids in one piece took
    44 MB."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fqgeom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _OCCUPANCY_CHILD], env=env,
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert out["got"] == out["want"]
    assert out["rise_kb"] < 8 * 1024


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
    assert s.mask[5] and not s.mask[6]
    s.discard(5)
    assert len(s) == 2
    assert s.indices().tolist() == [0, 26]
    assert len(PointSet.full(3)) == 27


def test_linefamily_occupancy_matches_recount():
    sp = affine_space(3, 3)
    rows = sp.all_lines()[:40]
    # shuffled rows with duplicates give the sorted distinct rows
    shuffled = np.random.default_rng(3).permutation(np.concatenate([rows, rows[::3]]))
    for given in (rows, shuffled):
        fam = LineFamily(sp, given)
        assert fam.lines.tolist() == rows.tolist()
        plane, occ = fam.max_plane_occupancy()
        lines = set(map(tuple, fam.lines.tolist()))
        recount = max(
            sum(1 for ln in sp.lines_in_plane(pl).tolist() if tuple(ln) in lines)
            for pl in range(sp.ndirs * sp.q)
        )
        assert occ == recount
        assert len(fam.union_points()) <= 3 * len(fam)


def test_enumerate_lines_covers_space():
    sp = affine_space(3, 3)
    fam = LineFamily(sp, sp.all_lines())
    assert len(fam) == 3 ** 4 + 3 ** 3 + 3 ** 2
    assert len(fam.union_points()) == 27


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 3), (8, 2), (9, 2), (8, 3)])
def test_proj_space_counts(q, n):
    pg = proj_space(q, n)
    assert len(pg.array) == (q ** (n + 1) - 1) // (q - 1)
    if n == 2:
        # each line of PG(2,q) is the line orthogonal to one point
        lines = pg.perp_lines(pg.array[:, None, :])
        assert lines.shape == (len(pg.array), q + 1)
        assert len(np.unique(lines, axis=0)) == len(pg.array)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3),
                                 (2, 4), (3, 4), (8, 2), (9, 2), (9, 3)])
def test_hyperplanes_through_line_brute_force(q, n):
    # the points orthogonal to two points u and v: the nonzero vectors of
    # the kernel nullspace gives, and at n = 3 the line perp_lines gives
    pg = proj_space(q, n)
    dot = pg.ctx.dot
    npts = len(pg.array)
    for i, j in {(0, 1), (0, npts - 1), (npts // 3, npts // 2), (npts - 2, npts - 1)}:
        u, v = pg.array[i], pg.array[j]
        expect = [c for c, x in enumerate(pg.array) if dot(x, u) == dot(x, v) == 0]
        assert len(expect) == (q ** (n - 1) - 1) // (q - 1)
        basis = linalg.nullspace([u, v], pg.ctx)
        coeffs = np.indices((q,) * len(basis)).reshape(len(basis), -1).T[1:]
        assert np.unique(pg.ids(dot(coeffs[:, None, :], basis.T))).tolist() == expect
        if n == 3:
            assert pg.perp_lines([u, v]).tolist() == expect


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
    for call in (lambda: sp.plane_points(0), lambda: sp.line_planes(*line),
                 lambda: sp.lines_in_plane(0)):
        with pytest.raises(UnsupportedField, match="n = 3"):
            call()


def test_pg34_sizes():
    pg = proj_space(4, 3)
    assert len(pg.array) == 85


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
