"""Points, lines and planes of AG(n,q) and PG(n,q), n <= 3.

Affine points are integer indices in [0, q^n) (base-q packing of the
coordinate vector, coordinate 0 least significant).  Directions are
normalized vectors (first nonzero coordinate 1), the points of
PG(n-1,q); a line is the pair (direction id, index of its least point),
which makes dedup and cross-run ordering trivial.  AffineSpace.line_points
lists the points of any number of lines at once.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .gf import TABLE_LIMIT, FieldCtx, field_of_order, NonPrime
from .linalg import nullspace


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
        try:
            self.ctx: FieldCtx = field_of_order(q)
        except NonPrime as e:
            raise UnsupportedField(str(e))
        if q > TABLE_LIMIT:
            raise UnsupportedField(f"q = {q} exceeds the field-table limit {TABLE_LIMIT}")
        self.q = q
        self.n = n
        self.npoints = q ** n
        # the directions are the points of PG(n-1, q): normalized vectors
        # (first nonzero coordinate 1), sorted by coordinate tuple
        self.proj = proj_space(q, n - 1)
        self.directions = self.proj.points
        self.dir_index = self.proj.point_index
        self._dir_array = np.array(self.directions)
        self.ndirs = len(self.directions)  # (q^n - 1)/(q - 1)
        self.nlabels = q ** (n - 1)  # lines per direction
        self._perp: list | None = None

    # -- coordinates --

    def coords(self, idx: int):
        q = self.q
        out = []
        for _ in range(self.n):
            out.append(idx % q)
            idx //= q
        return tuple(out)

    def index(self, coords) -> int:
        idx = 0
        for c in reversed(list(coords)):
            idx = idx * self.q + c
        return idx

    def points(self):
        return range(self.npoints)

    # -- lines --

    def line_points(self, dir_ids, bases) -> np.ndarray:
        """Indices of the q points base + t*d of each line, in t order.

        dir_ids and bases are broadcast against each other: one line gives
        shape (q,), k lines give (k, q)."""
        addt, mult = self.ctx.add_table, self.ctx.mul_table
        q = self.q
        d = self._dir_array[np.asarray(dir_ids, dtype=np.int64)]
        b = np.asarray(bases, dtype=np.int64)[..., None]
        t = np.arange(q)
        pts = 0
        for i in range(self.n):
            step = mult[t, d[..., i, None]]  # t*d_i
            pts = pts + addt[b // q ** i % q, step] * q ** i
        return pts

    def line_labels(self, dir_id: int) -> np.ndarray:
        """Label in [0, nlabels) of the line with the given direction
        through each point: two points share a label exactly when they lie
        on the same line.

        With k the first nonzero coordinate of d (so d_k = 1), the line
        through x meets the hyperplane x_k = 0 at y = x - x_k*d; the label
        packs the other n-1 coordinates of y base q."""
        ctx = self.ctx
        addt, mult, neg = ctx.add_table, ctx.mul_table, ctx.neg_table
        q, n = self.q, self.n
        d = self.directions[dir_id]
        k = d.index(1)
        # point indices are a C-order grid whose axis n-1-i is coordinate i
        labels = np.zeros((q,) * n, dtype=np.int64)
        for j, i in enumerate(i for i in range(n) if i != k):
            y = addt[:, mult[neg, d[i]]]  # y[x_i, x_k] = x_i - x_k*d_i
            shape = [1] * n
            shape[n - 1 - i] = shape[n - 1 - k] = q
            labels = labels + (y.T if i < k else y).reshape(shape) * q ** j
        return labels.ravel()

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
            for b in np.sort(self.line_bases(self.line_labels(d)))
        ]

    # -- planes (n = 3); a plane is (normal_dir_id, offset) --

    def perp_dir_ids(self, dir_id: int):
        """Ids of normalized vectors orthogonal to the given direction."""
        if self._perp is None:
            self._perp = [None] * self.ndirs
        if self._perp[dir_id] is None:
            addt, mult = self.ctx.add_table, self.ctx.mul_table
            d = self.directions[dir_id]
            acc = np.zeros(self.ndirs, dtype=np.int64)
            for i in range(self.n):
                acc = addt[acc, mult[self._dir_array[:, i], d[i]]]
            self._perp[dir_id] = tuple(int(i) for i in np.flatnonzero(acc == 0))
        return self._perp[dir_id]

    def all_planes(self):
        assert self.n == 3
        return [(m, c) for m in range(self.ndirs) for c in range(self.q)]

    def plane_points(self, plane):
        m, c = plane
        normal = self.directions[m]
        return [p for p in self.points() if self.ctx.dot(normal, self.coords(p)) == c]

    def planes_through_line(self, line):
        """The q+1 planes of AG(3,q) containing an affine line."""
        assert self.n == 3
        dir_id, base = line
        b = self.coords(base)
        return [(m, self.ctx.dot(self.directions[m], b)) for m in self.perp_dir_ids(dir_id)]

    def lines_in_plane(self, plane):
        """The q(q+1) lines contained in a plane, canonical order."""
        assert self.n == 3
        on_plane = np.array(self.plane_points(plane))
        out = []
        for d in self.perp_dir_ids(plane[0]):
            labels = self.line_labels(d)
            bases = self.line_bases(labels)[np.unique(labels[on_plane])]
            out.extend((d, int(b)) for b in bases)
        out.sort()
        return out


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
    """Distinct affine lines with an incrementally-maintained per-plane
    occupancy index (n = 3 only for the occupancy part)."""

    def __init__(self, space: AffineSpace, lines=()):
        self.space = space
        self._lines: set = set()
        self.occupancy: dict = {}
        for ln in lines:
            self.add(ln)

    def add(self, line) -> bool:
        if line in self._lines:
            return False
        self._lines.add(line)
        if self.space.n == 3:
            for pl in self.space.planes_through_line(line):
                self.occupancy[pl] = self.occupancy.get(pl, 0) + 1
        return True

    def __contains__(self, line):
        return line in self._lines

    def __len__(self):
        return len(self._lines)

    def lines(self):
        return sorted(self._lines)

    def max_plane_occupancy(self):
        """(plane, count) with the largest member-line count, or (None, 0)."""
        if not self.occupancy:
            return None, 0
        pl = max(self.occupancy, key=lambda k: (self.occupancy[k], k))
        return pl, self.occupancy[pl]

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
    fam = LineFamily(sp)
    for ln in sp.all_lines():
        fam.add(ln)
    return fam


# ---------------------------------------------------------------------------
# projective space
# ---------------------------------------------------------------------------

class ProjSpace:
    """PG(n, q): normalized homogeneous coordinate tuples of length n+1."""

    def __init__(self, q: int, n: int):
        try:
            self.ctx = field_of_order(q)
        except NonPrime as e:
            raise UnsupportedField(str(e))
        self.q = q
        self.n = n
        pts = []
        for v in product(range(q), repeat=n + 1):
            if any(v):
                first = next(x for x in v if x)
                if first == 1:
                    pts.append(v)
        pts.sort()
        self.points = pts
        self.point_index = {v: i for i, v in enumerate(pts)}

    def normalize(self, vec):
        """Scale a nonzero vector so its first nonzero coordinate is 1;
        ValueError on the zero vector."""
        ctx = self.ctx
        vec = tuple(vec)
        first = next((x for x in vec if x), None)
        if first is None:
            raise ValueError("zero vector has no projective point")
        inv = ctx.inv(first)
        return tuple(ctx.mul(inv, x) for x in vec)

    def line_points(self, u, v):
        """Point tuples of the projective line through distinct points u, v."""
        ctx = self.ctx
        pts = [self.normalize(v)]
        for lam in range(self.q):
            w = tuple(ctx.add(a, ctx.mul(lam, b)) for a, b in zip(u, v))
            pts.append(self.normalize(w))
        pts = sorted(set(pts))
        assert len(pts) == self.q + 1
        return tuple(pts)

    def all_lines(self):
        """Every projective line once, as a sorted tuple of point tuples."""
        seen = set()
        out = []
        for i, u in enumerate(self.points):
            for v in self.points[i + 1:]:
                ln = self.line_points(u, v)
                key = ln[:2]
                if key not in seen:
                    seen.add(key)
                    out.append(ln)
        out.sort()
        return out

    def hyperplane_points(self, coeffs):
        return [x for x in self.points if self.ctx.dot(coeffs, x) == 0]

    def hyperplanes_through_line(self, u, v):
        """Normalized coefficient vectors of hyperplanes containing both:
        the nonzero combinations of the n-1 kernel vectors of [u; v]."""
        ctx = self.ctx
        addt, mult = ctx.add_table, ctx.mul_table
        basis = nullspace([u, v], ctx)
        combos = np.array(list(product(range(self.q), repeat=len(basis)))[1:])
        w = np.zeros((len(combos), self.n + 1), dtype=np.int64)
        for j, row in enumerate(basis):
            w = addt[w, mult[combos[:, j, None], row]]
        lead = w[np.arange(len(w)), (w != 0).argmax(axis=1)]
        w = mult[ctx.inv_table[lead][:, None], w]
        return sorted(set(map(tuple, w.tolist())))


@lru_cache(maxsize=None)
def proj_space(q: int, n: int) -> ProjSpace:
    return ProjSpace(q, n)


def conic_dual_lines(q: int):
    """The q+1 lines of PG(2,q) dual to the conic {(t, t^2, 1)} u {(0,1,0)}:
    returned as normalized line-coefficient triples; no point lies on three
    of them."""
    if q < 3:
        raise UnsupportedField("conic dual needs q >= 3")
    pg = proj_space(q, 2)
    ctx = pg.ctx
    out = [pg.normalize((t, ctx.mul(t, t), 1)) for t in range(q)]
    out.append((0, 1, 0))
    return sorted(out)


def max_line_coincidence(q: int, line_coeffs) -> int:
    """Largest number of the given PG(2,q) lines through a single point."""
    pg = proj_space(q, 2)
    best = 0
    for x in pg.points:
        c = sum(1 for ln in line_coeffs if pg.ctx.dot(ln, x) == 0)
        best = max(best, c)
    return best
