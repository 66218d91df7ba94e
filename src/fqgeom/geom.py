"""Points, lines and planes of AG(n,q), n <= 3, and of PG(n,q).

PG(n,q) is an (N, n+1) array of normalized coordinate vectors (first
nonzero coordinate 1) in lexicographic order, and a point's id is its
row; ProjSpace.ids maps any nonzero vectors to ids arithmetically.  A
projective line is a sorted row of its q+1 point ids: ProjSpace.line_ids
spans them in batches, and ProjSpace.perp_lines gives the line
orthogonal to n-1 independent rows from their kernel, one
linalg.nullspace call for a whole stack of matrices: normals, planes
through a line, lines of PG(2,q).

Affine points are integer indices in [0, q^n) (base-q packing of the
coordinate vector, coordinate 0 least significant), and
AffineSpace.point_coords gives their coordinates as columns.  Directions
are the points of PG(n-1,q), ids into AffineSpace.proj.array; a line is
the pair (direction id, index of its least point), and lines are (L, 2)
int arrays of such rows, ascending when they come from all_lines,
lines_in_plane or a LineFamily.  With m the last nonzero coordinate of
the direction (AffineSpace.base_axis), the coordinates above m are
constant along the line and x_m runs over the whole field, so the least
point is the line's one point with x_m = 0.
AffineSpace.line_points lists the points of any number of lines at once.
A plane m.x = c of AG(3,q) (m a point of PG(2,q), c in GF(q)) is its id
m*q + c: AffineSpace.line_planes gives the ids of the planes through
lines, and plane_points and lines_in_plane build a plane's points and
lines in closed form.

AffineSpace.line_counts builds each point's shear-table columns x_i*q + x_k
once per leading coordinate k and gathers every batch's labels into one
buffer.  With batches of KAKEYA_CELLS = 2^15 label cells, verify_kakeya on
the residue set takes 4.1 / 41 ms at q = 19 / 31 (2-core Xeon VM); 2^14
takes 4.7 / 57 ms, and 2^16 3.7 / 36 ms but adds 0.9 MB more to peak RSS.
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

# a batch of B directions over P labelled points (or over the q^(n-1) lines
# of a direction, when those are more) takes at most this many label cells,
# and a block of k lines at most this many normal coordinates, 3k(q+1)
KAKEYA_CELLS = 1 << 15


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
        # the last nonzero coordinate of each direction: 0 at a line's base
        self.base_axis = n - 1 - (self.proj.array[:, ::-1] != 0).argmax(axis=1)

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

    def line_labels(self, dir_ids, coords=None, cols=None, stride=0, buf=None) -> np.ndarray:
        """Labels in [0, nlabels) of the points with coordinates coords (from
        point_coords; by default every point, in index order) on the lines of
        each direction, one row per direction, plus r*stride in row r: in a
        row, points share a label exactly when they lie on one line.  With
        d_k = 1 the first nonzero coordinate of d, the line through x meets
        x_k = 0 at y = x - x_k*d, and the label packs the other
        y_i = shear[d_i, x_i*q + x_k] base q.  If every d leads at one k, cols
        may give the columns x_i*q + x_k (i != k ascending), and buf an int64
        (n-1, >= len(dir_ids), points) array to gather into; the result views it."""
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
            return out + stride * np.arange(len(ids))[:, None]
        k = groups.pop()
        cols = [x[i] * q + x[k] for i in range(n) if i != k] if cols is None else cols
        # offset and scale the (B, q^2) table rows, not the (B, points) result;
        # mode="clip" lets take write into buf (it buffers out= under "raise")
        tables = [self.shear[d[:, i]] * q ** j for j, i in enumerate(i for i in range(n) if i != k)]
        tables[0] += stride * np.arange(len(ids))[:, None]
        outs = [None] * len(cols) if buf is None else buf[:, :len(ids)]
        ys = (t.take(c, axis=1, out=o, mode="clip") for t, c, o in zip(tables, cols, outs))
        labels = next(ys)
        for y in ys:  # in place, unless y broadcasts labels up to the grid
            labels = np.add(labels, y, out=labels if labels.shape == y.shape else None)
        return labels.reshape(len(ids), -1)

    def label_points(self, dir_ids, labels) -> np.ndarray:
        """The point where each line, given by its direction and its label
        from line_labels, meets x_k = 0 (k the first nonzero coordinate of
        the direction): the label's base-q digits with a 0 put in at digit
        k."""
        low = self.q ** (self.proj.array[dir_ids] != 0).argmax(axis=-1)
        return labels // low * (low * self.q) + labels % low

    def line_counts(self, coords=None, counted=slice(None), start=0):
        """Sweep the directions from start on in ascending batches, yielding
        (ids, keys, counts) per batch: keys[r] is line_labels(ids[r], coords)
        (by default every point) plus r*nlabels, so that a key names one
        line of the batch, and counts[key] is how many of the counted
        columns of keys lie on that line.  A batch of B directions takes
        B*max(points, nlabels) <= KAKEYA_CELLS label cells, or is one
        direction, and has one leading coordinate k: the ids
        [(q^j - 1)/(q - 1), (q^(j+1) - 1)/(q - 1)) lead at k = n-1-j.  Given
        coords, keys live in one buffer and hold only until the next batch."""
        q, n = self.q, self.n
        x = self._grid if coords is None else coords
        step = max(1, min(self.ndirs, KAKEYA_CELLS // max(np.broadcast(*x).size, self.nlabels)))
        buf = None if coords is None else np.empty((n - 1, step, x.shape[1]), dtype=np.int64)
        for j, k in enumerate(range(n - 1, -1, -1)):
            lo, stop = max(start, (q ** j - 1) // (q - 1)), (q ** (j + 1) - 1) // (q - 1)
            cols = [x[i] * q + x[k] for i in range(n) if i != k]
            for first in range(lo, stop, step):
                ids = np.arange(first, min(first + step, stop))
                keys = self.line_labels(ids, coords, cols, self.nlabels, buf)
                counts = np.bincount(keys[:, counted].ravel(), minlength=len(ids) * self.nlabels)
                yield ids, keys, counts

    def all_lines(self) -> np.ndarray:
        """Every affine line exactly once, as ascending (dir_id, base) rows:
        the bases of a direction are the q^(n-1) points with x_m = 0, m its
        base_axis."""
        coords = self.point_coords(np.arange(self.npoints))
        zeros = np.stack([np.flatnonzero(x == 0) for x in coords])  # (n, nlabels)
        return np.stack([np.arange(self.ndirs).repeat(self.nlabels),
                         zeros[self.base_axis].ravel()], axis=1)

    # -- planes (n = 3); the plane m.x = c is its id m*q + c --

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

    def plane_points(self, planes) -> np.ndarray:
        """Ascending indices of the q^2 points of each plane id: shape
        (q^2,) for one id, (k, q^2) for k.  With m_i the leading 1 of m,
        the plane m.x = c holds c*e_i, and two of its directions span it
        from there."""
        m, c = np.divmod(np.asarray(planes, dtype=np.int64), self.q)
        u, v = np.moveaxis(self.normals[m][..., :2], -1, 0)
        lead = (self.proj.array[m] != 0).argmax(axis=-1)
        pts = self.line_points(v[..., None], self.line_points(u, c * self.q ** lead))
        return np.sort(pts.reshape(*m.shape, self.q ** 2), axis=-1)

    def lines_in_plane(self, plane: int) -> np.ndarray:
        """The q(q+1) lines contained in a plane, as ascending (dir_id, base)
        rows: for each of its q+1 directions, the bases are the plane's
        points with x_m = 0, m the direction's base_axis."""
        dirs = self.normals[plane // self.q]
        on_plane = self.plane_points(plane)
        row, col = np.nonzero(self.point_coords(on_plane)[self.base_axis[dirs]] == 0)
        return np.stack([dirs[row], on_plane[col]], axis=1)


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

    def discard(self, idx: int):
        self.mask[idx] = False

    def __len__(self) -> int:
        return int(self.mask.sum())

    def indices(self):
        return np.nonzero(self.mask)[0]

    @classmethod
    def full(cls, q, n=3):
        s = cls(q, n)
        s.mask[:] = True
        return s


class LineFamily:
    """A set of distinct affine lines, held as the (L, 2) array lines of
    their ascending (dir_id, base) rows; plane occupancy is counted on
    demand."""

    def __init__(self, space: AffineSpace, lines=()):
        self.space = space
        rows = np.asarray(lines if isinstance(lines, np.ndarray) else list(lines), dtype=np.int64)
        rows = rows.reshape(-1, 2)
        # dedup and order the packed keys dir * q^n + base in Python: np.unique
        # imports numpy.ma, which would raise the peak RSS of runs that
        # never sort
        keys = sorted(set((rows[:, 0] * space.npoints + rows[:, 1]).tolist()))
        self.lines = np.stack(np.divmod(np.array(keys, dtype=np.int64), space.npoints), axis=1)

    def __len__(self):
        return len(self.lines)

    def max_plane_occupancy(self):
        """(plane id, count) with the largest member-line count, ties to the
        largest id; (None, 0) for no lines or for AG(2,q).  Blocks of lines
        whose (lines, q+1, 3) normals take KAKEYA_CELLS cells count at a time."""
        sp = self.space
        if not len(self.lines) or sp.n != 3:
            return None, 0
        counts = np.zeros(sp.ndirs * sp.q, dtype=np.int64)
        step = max(1, KAKEYA_CELLS // (3 * sp.q + 3))
        for start in range(0, len(self.lines), step):
            planes = sp.line_planes(*self.lines[start:start + step].T)
            counts += np.bincount(planes.ravel(), minlength=len(counts))
        top = len(counts) - 1 - int(counts[::-1].argmax())  # the last largest id
        return top, int(counts[top])

    def union_points(self) -> PointSet:
        s = PointSet(self.space.q, self.space.n)
        s.mask[self.space.line_points(*self.lines.T)] = True
        return s


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
