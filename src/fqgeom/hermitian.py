"""Hermitian varieties in PG(n, q) for square q = r^2, r any prime power:
construction and point enumeration, rank and singular space, line
classification, tangent spaces, and the tangent-line families used to
probe plane-occupancy behaviour of large line sets.

The form x^T H conj(x) is evaluated over the whole point array of
PG(n, q), conjugation being x -> x^r, and a variety keeps its membership
mask over point ids and its singular points as ascending ids.  A line is
a sorted row of its q+1 point ids.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .gf import FieldCtx, field_of_order
from .geom import LineFamily, affine_space, proj_space
from .linalg import rref


class NotHermitian(ValueError):
    pass


class NonSquareField(ValueError):
    pass


class InternalClassificationError(AssertionError):
    pass


class AlphaOutOfRange(ValueError):
    pass


class WholeSpace:
    """Tangent-space result at a singular point: every point qualifies."""

    def __repr__(self):
        return "WholeSpace()"


# ---------------------------------------------------------------------------
# matrices and varieties
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HermitianMatrix:
    ctx: FieldCtx
    entries: tuple  # (n+1) x (n+1), row-major tuple of tuples

    def __post_init__(self):
        if self.ctx.k % 2:
            raise NonSquareField(f"GF({self.ctx.q}) is not a square-order field (k={self.ctx.k})")
        m = self.entries
        size = len(m)
        for row in m:
            if len(row) != size:
                raise NotHermitian("matrix is not square")
        for i in range(size):
            for j in range(size):
                if m[i][j] != self.ctx.conj(m[j][i]):
                    raise NotHermitian(f"entry ({i},{j}) != conj of ({j},{i})")

    @property
    def size(self) -> int:
        return len(self.entries)

    def apply_conj(self, x):
        """H * conj(x) for vectors x on the last axis (other axes batch)."""
        ctx = self.ctx
        xc = ctx.pow_table[:, _root_q(ctx.q)][np.asarray(x, dtype=np.int64)]
        return ctx.dot(np.array(self.entries), xc[..., None, :])


def identity_hermitian(r: int, n: int) -> HermitianMatrix:
    """The identity form in PG(n, r^2)."""
    ctx = field_of_order(r * r)
    size = n + 1
    rows = tuple(
        tuple(1 if i == j else 0 for j in range(size)) for i in range(size)
    )
    return HermitianMatrix(ctx, rows)


def random_hermitian(r: int, n: int, seed: int) -> HermitianMatrix:
    """Uniform Hermitian matrix: random upper triangle over GF(r^2),
    diagonal restricted to the fixed field GF(r) of conjugation."""
    ctx = field_of_order(r * r)
    rng = random.Random(seed)
    size = n + 1
    fixed = [a for a in ctx.elements() if ctx.conj(a) == a]
    m = [[0] * size for _ in range(size)]
    for i in range(size):
        m[i][i] = rng.choice(fixed)
        for j in range(i + 1, size):
            m[i][j] = rng.randrange(ctx.q)
            m[j][i] = ctx.conj(m[i][j])
    return HermitianMatrix(ctx, tuple(tuple(r) for r in m))


@dataclass
class HermitianVariety:
    H: HermitianMatrix
    n: int
    mask: np.ndarray  # membership, indexed by PG(n, q) point id
    rank: int
    singular: np.ndarray  # ascending ids of the singular points

    @property
    def q(self) -> int:
        return self.H.ctx.q

    @property
    def non_degenerate(self) -> bool:
        return self.rank == self.n + 1

    def contains(self, x) -> bool:
        return bool(self.mask[proj_space(self.q, self.n).ids(x)])


def build_hermitian(H: HermitianMatrix, n: int) -> HermitianVariety:
    """Enumerate the variety {x in PG(n,q) : x^T H conj(x) = 0}, its rank,
    and (when degenerate) the singular space {c : c^T H = 0}."""
    if H.size != n + 1:
        raise NotHermitian(f"matrix size {H.size} does not match n = {n}")
    ctx = H.ctx
    pg = proj_space(ctx.q, n)
    mask = ctx.dot(pg.array, H.apply_conj(pg.array)) == 0
    r = int(rref(H.entries, ctx)[1].sum())
    singular = np.zeros(0, dtype=np.int64)
    if r < n + 1:
        # c^T H = 0: c is orthogonal to every column of H, a kernel of
        # dimension n+1-r
        singular = pg.hyperplane_points(np.array(H.entries).T)
        expected = (ctx.q ** (n + 1 - r) - 1) // (ctx.q - 1)
        if len(singular) != expected:
            raise AssertionError(
                f"{len(singular)} singular points; rank {r} needs {expected}"
            )
    return HermitianVariety(H, n, mask, r, singular)


# ---------------------------------------------------------------------------
# point-count formulas
# ---------------------------------------------------------------------------

def _root_q(q: int) -> int:
    r = isqrt(q)
    if r * r != q:
        raise NonSquareField(f"{q} is not a square")
    return r


def phi(n: int, q: int) -> int:
    """Point count of a non-degenerate Hermitian variety in PG(n,q)."""
    r = _root_q(q)
    num = (r ** (n + 1) - (-1) ** (n + 1)) * (r ** n - (-1) ** n)
    assert num % (q - 1) == 0
    return num // (q - 1)


def degenerate_count(n: int, q: int, r: int) -> int:
    """Point count of a rank-r Hermitian variety in PG(n,q), 1 <= r <= n+1:
    (q^{n-r+1}-1)*phi(r-1,q) + (q^{n-r+1}-1)/(q-1) + phi(r-1,q)."""
    if not 1 <= r <= n + 1:
        raise ValueError(f"rank r = {r} outside 1..{n + 1}")
    t = q ** (n - r + 1) - 1
    assert t % (q - 1) == 0
    return t * phi(r - 1, q) + t // (q - 1) + phi(r - 1, q)


# ---------------------------------------------------------------------------
# lines and tangency
# ---------------------------------------------------------------------------

def _meet_sizes(V: HermitianVariety, lines) -> np.ndarray:
    """The number of points of V on each line (point ids on the last axis);
    InternalClassificationError unless each is 1, sqrt(q)+1 or q+1."""
    q, r = V.q, _root_q(V.q)
    sizes = V.mask[lines].sum(axis=-1)
    bad = ~np.isin(sizes, (1, r + 1, q + 1))
    if bad.any():
        raise InternalClassificationError(
            f"line meets variety in {sizes[bad][0]} points "
            f"(allowed: 1, {r + 1}, {q + 1})"
        )
    return sizes


def classify_line(V: HermitianVariety, line) -> str:
    """'tangent' (1 point), 'secant' (sqrt(q)+1), or 'contained' (q+1) for
    a row of point ids; anything else raises InternalClassificationError."""
    size = _meet_sizes(V, np.asarray(line, dtype=np.int64)[None])[0]
    return {1: "tangent", _root_q(V.q) + 1: "secant", V.q + 1: "contained"}[size]


def tangent_space(V: HermitianVariety, c):
    """Coefficient vector of the tangent hyperplane {x : x^T H conj(c) = 0}
    at a non-singular point c of V, or WholeSpace() at a singular point;
    ValueError when c is not on V."""
    if not V.contains(c):
        raise ValueError(f"tangent space requires a variety point, got {c}")
    w = V.H.apply_conj(c)
    if not w.any():
        return WholeSpace()
    return tuple(w.tolist())


def tangent_lines_at(V: HermitianVariety, c) -> np.ndarray:
    """The q - sqrt(q) lines through non-singular c in V in PG(3,q) meeting
    V only at c, as (q - sqrt(q), q+1) rows of sorted point ids in the
    order of their least point other than c.  c is a point on the last
    axis; leading axes batch, and lead the result.  ValueError for a point
    off V or a singular one; AssertionError unless each point has exactly
    q - sqrt(q) tangent lines."""
    q, r = V.q, _root_q(V.q)
    pg = proj_space(q, V.n)
    c = np.asarray(c, dtype=np.int64)
    pts = c.reshape(-1, V.n + 1)
    off = ~V.mask[pg.ids(pts)]
    if off.any():
        raise ValueError(f"tangent space requires a variety point, got {tuple(pts[off][0].tolist())}")
    w = V.H.apply_conj(pts)
    singular = ~w.any(axis=1)
    if singular.any():
        raise ValueError(f"singular point {tuple(pts[singular][0].tolist())} has no tangent lines")
    # each line through c in the tangent plane meets the line where that
    # plane cuts x_i = 0, for c_i the leading coordinate of c, once; the
    # meet m is the line's least point other than c: normalized, m + t*c
    # (t != 0) agrees with m before x_i, where m has 0 and it does not
    e = np.eye(V.n + 1, dtype=np.int64)[(pts != 0).argmax(axis=1)]
    meets = pg.array[pg.perp_lines(np.stack([w, e], axis=1))]
    lines = pg.line_ids(pts[:, None, :], meets)
    tangent = _meet_sizes(V, lines) == 1
    counts = tangent.sum(axis=1)
    if (counts != q - r).any():
        i = np.flatnonzero(counts != q - r)[0]
        raise AssertionError(
            f"{counts[i]} tangent lines at {tuple(pts[i].tolist())}, not q - sqrt(q) = {q - r}")
    return lines[tangent].reshape(c.shape[:-1] + (q - r, q + 1))


# ---------------------------------------------------------------------------
# tangent-line families
# ---------------------------------------------------------------------------

@dataclass
class TangentLineFamily:
    V: HermitianVariety
    lines: np.ndarray  # (|L|, q+1) sorted point ids

    def __len__(self):
        return len(self.lines)


def build_tangent_line_family(V: HermitianVariety, alpha, seed: int):
    """Sample P = floor(alpha*|V|) variety points (seeded shuffle of their
    ids); L = all q - sqrt(q) tangent lines at each.

    Returns (family, report); the report carries exact projective counts
    (|L| = (q - sqrt(q))|P| after a distinctness assertion, |P(L)|, the
    verified-uncovered count of V \\ P) plus the affine restriction
    (x0 != 0 chart) and the max plane occupancy, which is reported only.
    """
    from fractions import Fraction

    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise AlphaOutOfRange(f"alpha = {alpha} outside (0, 1)")
    if not V.non_degenerate:
        raise NotHermitian("tangent-line family needs a non-degenerate variety")
    q = V.q
    r = _root_q(q)
    pg = proj_space(q, V.n)
    order = np.flatnonzero(V.mask).tolist()
    random.Random(seed).shuffle(order)
    P = order[:int(alpha * len(order))]
    ids = tangent_lines_at(V, pg.array[P]).reshape(-1, q + 1)
    # two distinct lines share at most one point
    first_two = np.sort(ids[:, 0] * len(pg.array) + ids[:, 1])
    if (np.diff(first_two) == 0).any():
        raise AssertionError("tangent line shared by two points")

    covered = np.zeros(len(pg.array), dtype=bool)
    covered[ids] = True
    # every point of V \ P must be uncovered: a line of L meets V only at
    # its base point, which lies in P (and is covered)
    uncovered_variety = int((V.mask & ~covered).sum())
    if uncovered_variety != len(order) - len(P):
        raise AssertionError(
            f"{len(order) - len(P) - uncovered_variety} unsampled variety "
            "points lie on a tangent line"
        )

    # max plane occupancy (reported only): the planes through a line are
    # the points orthogonal to two of its points
    occupancy = np.bincount(pg.perp_lines(pg.array[ids[:, :2]]).ravel(), minlength=len(pg.array))

    # affine restriction: drop the hyperplane x0 = 0, whose points are the
    # ids below (q^n - 1)/(q - 1); a line's ids are sorted
    at_infinity = (q ** V.n - 1) // (q - 1)

    report = {
        "q": q,
        "alpha": str(alpha),
        "seed": seed,
        "nV": len(order),
        "nP": len(P),
        "nL": len(ids),
        "nL_expected": (q - r) * len(P),
        "covered_projective": int(covered.sum()),
        "uncovered_variety_points": uncovered_variety,
        "covered_affine": int(covered[at_infinity:].sum()),
        "nL_affine": int((ids[:, -1] >= at_infinity).sum()),
        "max_plane_occupancy": int(occupancy.max()),
    }
    return TangentLineFamily(V, ids), report


def affine_chart_family(family: TangentLineFamily) -> LineFamily:
    """The lines of a tangent-line family in PG(3,q) that leave the
    hyperplane x0 = 0, as lines of AG(3,q) through the x0 = 1 chart."""
    sp = affine_space(family.V.q, 3)
    pts = proj_space(sp.q, 3).array[family.lines]
    # a line's points are normalized and sorted, so one that leaves x0 = 0
    # lists its point there first and then q points (1, a1, a2, a3)
    pts = pts[pts[:, 1, 0] == 1][:, 1:3, 1:]
    dirs = sp.proj.ids(sp.ctx.vsubmul(pts[:, 0], 1, pts[:, 1]))
    bases = sp.line_points(dirs, pts[:, 0] @ sp.q ** np.arange(3)).min(axis=1)
    return LineFamily(sp, zip(dirs.tolist(), bases.tolist()))
