"""Points, lines and planes of AG(n,q), n <= 3, and of PG(n,q).

PG(n,q) is an (N, n+1) array of normalized coordinate vectors (first
nonzero coordinate 1) in lexicographic order, and a point's id is its
row; ProjSpace.ids maps any nonzero vectors to ids arithmetically.  A
projective line is a sorted row of its q+1 point ids: ProjSpace.line_ids
spans them in batches, ProjSpace.all_lines stacks every line, and
ProjSpace.perp_lines gives the line orthogonal to n-1 independent rows
from their kernel, one linalg.nullspace call for a whole stack of
matrices: normals, planes through a line, lines of PG(2,q).

Affine points are integer indices in [0, q^n) (base-q packing of the
coordinate vector, coordinate 0 least significant), and
AffineSpace.point_coords gives their coordinates as columns.  Directions
are the points of PG(n-1,q), ids into AffineSpace.proj.array; a line is
the pair (direction id, index of its least point), which makes dedup and
cross-run ordering trivial.
AffineSpace.line_points lists the points of any number of lines at once,
and AffineSpace.line_planes the ids m*q + c of the planes m.x = c through
them.
"""
from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .gf import DegreeTooLarge, FieldCtx, NonPrime, field_of_order
from .linalg import nullspace


# the most points a ProjSpace or an AffineSpace holds: a ProjSpace's (N, n+1)
# int64 array then takes at most 512 MB at n = 3 (PG(3,169), p = 13 in the
# Hermitian commands, has 4.9 million points), and an affine shear table or
# row of labels at most 128 MB (AG(3,q) for q <= 256)
PROJ_POINT_LIMIT = 1 << 24


class UnsupportedField(ValueError):
    pass


class MismatchedField(ValueError):
    pass


# ---------------------------------------------------------------------------
# affine space
# ---------------------------------------------------------------------------

class AffineSpace:
    """AG(n, q) with precomputed direction and incidence structure."""

    def __init__(self, q: int, n: int):
        if n not in (2, 3):
            raise UnsupportedField(f"n = {n} unsupported (need 2 or 3)")
        if q ** n > PROJ_POINT_LIMIT:
            raise UnsupportedField(
                f"AG({n},{q}) has {q ** n} points, over the limit {PROJ_POINT_LIMIT}")
        # the directions are the points of PG(n-1, q)
        self.proj = proj_space(q, n - 1)
        self.ctx: FieldCtx = self.proj.ctx
        self.q = q
        self.n = n
        self.npoints = q ** n
        self.ndirs = len(self.proj.array)  # (q^n - 1)/(q - 1)
        self.nlabels = q ** (n - 1)  # lines per direction

    # -- lines --

    def line_points(self, dir_ids, bases) -> np.ndarray:
        """Indices of the q points base + t*d of each line, in t order.

        dir_ids and bases are broadcast against each other: one line gives
        shape (q,), k lines give (k, q)."""
        addt, mult = self.ctx.add_table, self.ctx.mul_table
        q = self.q
        d = self.proj.array[np.asarray(dir_ids, dtype=np.int64)]
        b = np.asarray(bases, dtype=np.int64)[..., None]
        t = np.arange(q)
        pts = 0
        for i in range(self.n):
            step = mult[t, d[..., i, None]]  # t*d_i
            pts = pts + addt[b // q ** i % q, step] * q ** i
        return pts

    @cached_property
    def shear(self) -> np.ndarray:
        """shear[c, x_i*q + x_k] = x_i - x_k*c: coordinate i of the point
        where the line through x with direction d (d_k = 1, d_i = c) meets
        x_k = 0.  It holds q^3 codes, one per point of AG(3,q)."""
        ctx, q = self.ctx, self.q
        if q ** 3 > PROJ_POINT_LIMIT:  # only AG(2,q) for q > 256 gets here
            raise UnsupportedField(f"GF({q}) shear table is over the limit {PROJ_POINT_LIMIT}")
        negmul = ctx.mul_table[ctx.neg_table]  # negmul[x_k, c] = -x_k*c
        return ctx.add_table[:, negmul.T].transpose(1, 0, 2).reshape(q, q * q)

    def point_coords(self, pts) -> np.ndarray:
        """The (n, len(pts)) coordinates of the points with indices pts."""
        return np.asarray(pts, dtype=np.int64) // self.q ** np.arange(self.n)[:, None] % self.q

    @cached_property
    def _grid(self) -> list:
        """The coordinates of every point, broadcasting to the C-order grid."""
        return np.ogrid[(slice(self.q),) * self.n][::-1]

    def line_labels(self, dir_ids, coords=None) -> np.ndarray:
        """Labels in [0, nlabels) of the points with coordinates coords (from
        point_coords; by default every point, in index order) on the lines of
        each direction, one row per direction: in a row, points share a label
        exactly when they lie on one line.  With d_k = 1 the first nonzero
        coordinate of d, the line through x meets x_k = 0 at y = x - x_k*d,
        and the label packs the other y_i = shear[d_i, x_i*q + x_k] base q."""
        q, n = self.q, self.n
        x = self._grid if coords is None else coords
        ids = np.asarray(dir_ids, dtype=np.int64).reshape(-1)
        d = self.proj.array[ids]
        lead = (d != 0).argmax(axis=1)
        groups = set(lead.tolist())
        if len(groups) != 1:  # no direction, or several leading coordinates
            out = np.empty((len(ids), np.broadcast(*x).size), dtype=np.int64)
            for k in groups:
                out[lead == k] = self.line_labels(ids[lead == k], coords)
            return out
        k = groups.pop()
        # scale the (B, q^2) table rows, not the (B, points) result
        ys = [(self.shear[d[:, i]] * q ** j).take(x[i] * q + x[k], axis=1)
              for j, i in enumerate(i for i in range(n) if i != k)]
        labels = ys[0]
        for y in ys[1:]:  # in place, unless y broadcasts labels up to the grid
            labels = np.add(labels, y, out=labels if labels.shape == y.shape else None)
        return labels.reshape(len(ids), -1)

    def line_bases(self, labels: np.ndarray) -> np.ndarray:
        """Least point index on each line, indexed by label."""
        bases = np.full(self.nlabels, self.npoints)
        np.minimum.at(bases, labels, np.arange(self.npoints))
        return bases

    def canonical_line(self, dir_id: int, point_idx: int):
        """The line through point_idx with the given direction, as
        (dir_id, least point index on the line)."""
        return dir_id, int(self.line_points(dir_id, point_idx).min())

    def lines_through(self, point_idx: int):
        """All canonical lines through a point (one per direction)."""
        ids = np.arange(self.ndirs)
        bases = self.line_points(ids, point_idx).min(axis=1)
        return list(zip(ids.tolist(), bases.tolist()))

    def all_lines(self):
        """Every affine line exactly once, in canonical (dir, base) order."""
        return [
            (d, int(b))
            for d in range(self.ndirs)
            for b in np.sort(self.line_bases(self.line_labels([d])[0]))
        ]

    # -- planes (n = 3); a plane is (normal_dir_id, offset), its id m*q + c --

    @cached_property
    def normals(self) -> np.ndarray:
        """normals[d]: the ascending ids of the q+1 points m of PG(2,q) with
        m.d = 0."""
        if self.n != 3:
            raise UnsupportedField(f"planes need n = 3, not {self.n}")
        return self.proj.perp_lines(self.proj.array[:, None, :])

    def line_planes(self, dir_ids, bases) -> np.ndarray:
        """Ids m*q + c of the q+1 planes m.x = c through each line, in
        ascending normal order.  dir_ids and bases broadcast as in
        line_points: one line gives shape (q+1,), k lines give (k, q+1)."""
        m = self.normals[np.asarray(dir_ids, dtype=np.int64)]
        x = np.asarray(bases, dtype=np.int64)[..., None] // self.q ** np.arange(3) % self.q
        return m * self.q + self.ctx.dot(self.proj.array[m], x[..., None, :])

    def all_planes(self):
        if self.n != 3:
            raise UnsupportedField(f"planes need n = 3, not {self.n}")
        return [(m, c) for m in range(self.ndirs) for c in range(self.q)]

    def plane_points(self, plane):
        m, c = plane
        x = self.point_coords(np.arange(self.npoints)).T
        return np.flatnonzero(self.ctx.dot(x, self.proj.array[m]) == c).tolist()

    def lines_in_plane(self, plane):
        """The q(q+1) lines contained in a plane, canonical order: the plane's
        q^2 points labelled for its q+1 directions at once; a line's base is
        the first (least) plane point with its label."""
        dirs = self.normals[plane[0]]
        on_plane = np.array(self.plane_points(plane))
        labels = self.line_labels(dirs, self.point_coords(on_plane))
        keys = np.arange(len(dirs))[:, None] * self.nlabels + labels
        row, col = np.divmod(np.unique(keys, return_index=True)[1], len(on_plane))
        return sorted(zip(dirs[row].tolist(), on_plane[col].tolist()))


@lru_cache(maxsize=None)
def affine_space(q: int, n: int = 3) -> AffineSpace:
    return AffineSpace(q, n)


# ---------------------------------------------------------------------------
# point sets and line families
# ---------------------------------------------------------------------------

class PointSet:
    """Dense membership bitmap over the q^n points of AG(n,q)."""

    def __init__(self, q: int, n: int = 3, indices=None):
        self.q = q
        self.n = n
        self.mask = np.zeros(q ** n, dtype=bool)
        if indices is not None:
            self.mask[list(indices)] = True

    @classmethod
    def from_mask(cls, q, n, mask):
        s = cls(q, n)
        s.mask = np.asarray(mask, dtype=bool).copy()
        return s

    def add(self, idx: int):
        self.mask[idx] = True

    def discard(self, idx: int):
        self.mask[idx] = False

    def __contains__(self, idx: int) -> bool:
        return bool(self.mask[idx])

    def __len__(self) -> int:
        return int(self.mask.sum())

    def indices(self):
        return np.nonzero(self.mask)[0]

    def complement(self) -> "PointSet":
        return PointSet.from_mask(self.q, self.n, ~self.mask)

    def copy(self) -> "PointSet":
        return PointSet.from_mask(self.q, self.n, self.mask)

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and self.q == other.q
            and self.n == other.n
            and bool(np.array_equal(self.mask, other.mask))
        )

    @classmethod
    def full(cls, q, n=3):
        s = cls(q, n)
        s.mask[:] = True
        return s


class LineFamily:
    """A set of distinct affine lines; plane occupancy is counted on demand."""

    def __init__(self, space: AffineSpace, lines=()):
        self.space = space
        self._lines: set = set(lines)

    def __contains__(self, line):
        return line in self._lines

    def __len__(self):
        return len(self._lines)

    def lines(self):
        return sorted(self._lines)

    def max_plane_occupancy(self):
        """(plane, count) with the largest member-line count, ties to the
        largest plane (m, c); (None, 0) for no lines or for AG(2,q)."""
        sp = self.space
        if not self._lines or sp.n != 3:
            return None, 0
        counts = np.bincount(sp.line_planes(*split_lines(self._lines)).ravel())
        top = len(counts) - 1 - int(counts[::-1].argmax())  # the last largest id
        return divmod(top, sp.q), int(counts[top])

    def union_points(self) -> PointSet:
        s = PointSet(self.space.q, self.space.n)
        s.mask[self.space.line_points(*split_lines(self._lines))] = True
        return s


def split_lines(lines):
    """Direction ids and bases of (dir_id, base) pairs, as two int arrays
    for AffineSpace.line_points."""
    arr = np.array(list(lines), dtype=np.int64).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def enumerate_lines(q: int, n: int = 3) -> LineFamily:
    """All q^4+q^3+q^2 affine lines of AG(3,q) (or all lines of AG(2,q))."""
    sp = affine_space(q, n)
    return LineFamily(sp, sp.all_lines())


# ---------------------------------------------------------------------------
# projective space
# ---------------------------------------------------------------------------

class ProjSpace:
    """PG(n, q) as an (N, n+1) array of normalized coordinate vectors in
    lexicographic order; a point's id is its row."""

    def __init__(self, q: int, n: int):
        npoints = sum(q ** i for i in range(n + 1))
        if npoints > PROJ_POINT_LIMIT:
            raise UnsupportedField(
                f"PG({n},{q}) has {npoints} points, over the limit {PROJ_POINT_LIMIT}")
        try:
            self.ctx = field_of_order(q)
        except (NonPrime, DegreeTooLarge) as e:
            raise UnsupportedField(str(e))
        self.q = q
        self.n = n
        # a vector packs base q to v @ weights, weights[j] = q^(n-j); the
        # points with their leading 1 at position i pack to [w, 2w) for
        # w = q^(n-i), in order, and take the ids from (w - 1)/(q - 1) on
        self.weights = q ** np.arange(n, -1, -1)
        packed = np.concatenate([np.arange(w, 2 * w) for w in self.weights[::-1]])
        self.array = packed[:, None] // self.weights % q

    def ids(self, vecs) -> np.ndarray:
        """Ids of the points spanned by nonzero vectors on the last axis;
        ValueError on a zero vector."""
        v = np.asarray(vecs, dtype=np.int64)
        if not v.any(axis=-1).all():
            raise ValueError("zero vector has no projective point")
        lead = (v != 0).argmax(axis=-1)
        v = self.ctx.vmul(v, self.ctx.inv_table[np.take_along_axis(v, lead[..., None], -1)])
        top = self.weights[lead]
        return v @ self.weights - top + (top - 1) // (self.q - 1)

    def line_ids(self, u, v) -> np.ndarray:
        """Sorted ids of the q+1 points u - t*v (t in GF(q)) and v of the
        line through u and v, for vectors on the last axis (other axes
        broadcast); ValueError when u and v span no line."""
        u = np.asarray(u, dtype=np.int64)[..., None, :]
        v = np.asarray(v, dtype=np.int64)[..., None, :]
        w = self.ctx.vsubmul(u, np.arange(self.q)[:, None], v)
        w = np.concatenate([w, np.broadcast_to(v, w[..., :1, :].shape)], axis=-2)
        return np.sort(self.ids(w), axis=-1)

    def all_lines(self) -> np.ndarray:
        """Every projective line once, as ascending rows of sorted point
        ids: each is spanned by a point of x0 = 0 (the first
        (q^n - 1)/(q - 1) ids) and a point of larger id."""
        m = (self.q ** self.n - 1) // (self.q - 1)
        i, j = np.nonzero(np.triu(np.ones((m, len(self.array)), dtype=bool), 1))
        return np.unique(self.line_ids(self.array[i], self.array[j]), axis=0)

    def perp_lines(self, rows) -> np.ndarray:
        """Sorted ids of the q+1 points x with r.x = 0 for every row r of
        each (n-1, n+1) matrix on the last two axes (other axes batch): the
        line through the two vectors of the matrix's kernel, read from one
        nullspace call on the whole stack.  ValueError when a matrix's rows
        are dependent."""
        rows = np.asarray(rows, dtype=np.int64)
        shape = (self.n - 1, self.n + 1)
        if rows.shape[-2:] != shape:
            raise ValueError(f"perp_lines needs {shape} matrices, not {rows.shape[-2:]}")
        # n-1 rows have rank at most n-1, so a stack whose largest kernel
        # has two rows is a stack of matrices of rank n-1
        basis = nullspace(rows, self.ctx)
        if basis.shape[-2] != 2:
            raise ValueError("rows are dependent: their kernel is not a line")
        return self.line_ids(basis[..., 0, :], basis[..., 1, :])

    def hyperplane_points(self, coeffs) -> np.ndarray:
        """Ascending ids of the points x with c.x = 0 for the coefficient
        vector c, or for every row c of a matrix."""
        on = ~self.ctx.dot(self.array, np.atleast_2d(coeffs)[:, None, :]).any(axis=0)
        return np.flatnonzero(on)


@lru_cache(maxsize=None)
def proj_space(q: int, n: int) -> ProjSpace:
    return ProjSpace(q, n)


def conic_dual_lines(q: int) -> np.ndarray:
    """The q+1 lines of PG(2,q) dual to the conic {(t, t^2, 1)} u {(0,1,0)}:
    a (q+1, 3) array of normalized line coefficients in id order; no point
    lies on three of them."""
    if q < 3:
        raise UnsupportedField("conic dual needs q >= 3")
    pg = proj_space(q, 2)
    t = np.arange(q)
    ids = pg.ids(np.stack([t, pg.ctx.vmul(t, t), np.ones_like(t)], axis=1))
    return pg.array[np.sort(np.append(ids, pg.ids([0, 1, 0])))]


def max_line_coincidence(q: int, line_coeffs) -> int:
    """Largest number of the given PG(2,q) lines through a single point."""
    pg = proj_space(q, 2)
    on = pg.perp_lines(np.reshape(line_coeffs, (-1, 1, 3)))  # (lines, q+1)
    return int(np.bincount(on.ravel(), minlength=len(pg.array)).max())
