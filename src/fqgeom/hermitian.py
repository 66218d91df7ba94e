"""Hermitian varieties in PG(n, q) for square q = r^2, r any prime power:
construction, point enumeration, and the tangent-line families used to
probe plane-occupancy behaviour of large line sets.

The variety is x . conj(x) = 0, conjugation being x -> x^r: the identity
form, to which every non-degenerate Hermitian form is projectively
equivalent.  The form is evaluated over the whole point array of
PG(n, q), and a variety keeps its membership mask over point ids.  A line
is a sorted row of its q+1 point ids, and _meet_sizes counts the
variety's points on any number of lines at once.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .geom import LineFamily, UnsupportedField, affine_space, proj_space
from .gf import block_len


class NonSquareField(ValueError):
    pass


class InternalClassificationError(AssertionError):
    pass


class AlphaOutOfRange(ValueError):
    pass


# ---------------------------------------------------------------------------
# varieties
# ---------------------------------------------------------------------------

@dataclass
class HermitianVariety:
    q: int
    n: int
    mask: np.ndarray  # membership, indexed by PG(n, q) point id


def build_hermitian(r: int, n: int) -> HermitianVariety:
    """The variety {x in PG(n, r^2) : x . conj(x) = 0}; ValueError for a
    negative n."""
    if n < 0:
        raise ValueError(f"n = {n} is negative: PG(n, q) needs n >= 0")
    pg = proj_space(r * r, n)
    return HermitianVariety(pg.q, n, pg.ctx.dot(pg.array, pg.ctx.conj(pg.array)) == 0)


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
    if num % (q - 1):
        raise AssertionError(f"q - 1 = {q - 1} does not divide {num}")
    return num // (q - 1)


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


def tangent_lines_at(V: HermitianVariety, c) -> np.ndarray:
    """The q - sqrt(q) lines through c in V in PG(3,q) meeting V only at
    c, as (q - sqrt(q), q+1) rows of sorted point ids in the order of their
    least point other than c.  c is a point on the last axis; leading axes
    batch, in blocks of gf.BLOCK_BYTES, and lead the result.
    UnsupportedField unless V lies in PG(3,q); ValueError for a point off V;
    AssertionError unless each point has exactly q - sqrt(q) tangent lines."""
    if V.n != 3:
        raise UnsupportedField(f"tangent lines need a variety in PG(3,q), not PG({V.n},q)")
    q, r = V.q, _root_q(V.q)
    pg = proj_space(q, V.n)
    c = np.asarray(c, dtype=np.int64)
    pts = c.reshape(-1, V.n + 1)
    off = ~V.mask[pg.ids(pts)]
    if off.any():
        raise ValueError(f"tangent space requires a variety point, got {tuple(pts[off][0].tolist())}")
    out = np.empty((len(pts), q - r, q + 1), dtype=np.int64)
    step = block_len(8 * (q + 1) ** 2 * (V.n + 1))  # a point's candidate lines
    for lo in range(0, len(pts), step):
        block = pts[lo:lo + step]
        # the tangent plane at c is x . conj(c) = 0, and conj(c) != 0 as
        # c != 0: no point of V is singular
        w = pg.ctx.conj(block)
        # each line through c in the tangent plane meets the line where that
        # plane cuts x_i = 0, for c_i the leading coordinate of c, once; the
        # meet m is the line's least point other than c: normalized, m + t*c
        # (t != 0) agrees with m before x_i, where m has 0 and it does not
        e = np.eye(V.n + 1, dtype=np.int64)[(block != 0).argmax(axis=1)]
        meets = pg.array[pg.perp_lines(np.stack([w, e], axis=1))]
        lines = pg.line_ids(block[:, None, :], meets)
        tangent = _meet_sizes(V, lines) == 1
        counts = tangent.sum(axis=1)
        if (counts != q - r).any():
            i = np.flatnonzero(counts != q - r)[0]
            raise AssertionError(
                f"{counts[i]} tangent lines at {tuple(block[i].tolist())}, not q - sqrt(q) = {q - r}")
        out[lo:lo + step] = lines[tangent].reshape(-1, q - r, q + 1)
    return out.reshape(c.shape[:-1] + (q - r, q + 1))


# ---------------------------------------------------------------------------
# tangent-line families
# ---------------------------------------------------------------------------

def tangent_cover_holds(uncovered: int, nV: int, nP: int) -> bool:
    """Exact decision that tangent lines at nP of the nV points of V leave
    the other nV - nP uncovered: each meets V only at its base point."""
    return uncovered == nV - nP


@dataclass
class TangentLineFamily:
    V: HermitianVariety
    lines: np.ndarray  # (|L|, q+1) sorted point ids


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
    uncovered_variety = int((V.mask & ~covered).sum())
    if not tangent_cover_holds(uncovered_variety, len(order), len(P)):
        raise AssertionError(f"{len(order) - len(P) - uncovered_variety} unsampled variety "
                             "points lie on a tangent line")

    # max plane occupancy (reported only): the planes through a line are
    # the points orthogonal to two of its points, a block of lines at a time
    occupancy = np.zeros(len(pg.array), dtype=np.int64)
    step = block_len(8 * (q + 1) * (V.n + 1))
    for lo in range(0, len(ids), step):
        np.add.at(occupancy, pg.perp_lines(pg.array[ids[lo:lo + step, :2]]), 1)

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
    # a line's points are normalized and sorted, so one that leaves x0 = 0
    # lists its point there first and then q points (1, a1, a2, a3)
    pts = proj_space(sp.q, 3).array[family.lines[:, 1:3]]
    pts = pts[pts[:, 0, 0] == 1][..., 1:]
    dirs = sp.proj.ids(sp.ctx.vsubmul(pts[:, 0], 1, pts[:, 1]))
    bases = sp.line_base(dirs, pts[:, 0] @ sp.q ** np.arange(3))
    return LineFamily(sp, np.stack([dirs, bases], axis=1))
