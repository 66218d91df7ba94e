"""Hermitian varieties in PG(n, q) for square q = p^2: construction and
point enumeration, rank and singular space, line classification, tangent
spaces, and the tangent-line families used to probe plane-occupancy
behaviour of large line sets.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import isqrt

from .gf import FieldCtx, make_field
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


def _square_ctx(p: int) -> FieldCtx:
    return make_field(p, 2)


def _require_square(ctx: FieldCtx):
    if ctx.k != 2:
        raise NonSquareField(f"GF({ctx.q}) is not a square-order field (k={ctx.k})")


# ---------------------------------------------------------------------------
# matrices and varieties
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HermitianMatrix:
    ctx: FieldCtx
    entries: tuple  # (n+1) x (n+1), row-major tuple of tuples

    def __post_init__(self):
        _require_square(self.ctx)
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
        """The vector H * conj(x)."""
        ctx = self.ctx
        xc = [ctx.conj(v) for v in x]
        return tuple(ctx.dot(row, xc) for row in self.entries)

    def form(self, x, y) -> int:
        """x^T H conj(y)."""
        return self.ctx.dot(x, self.apply_conj(y))


def identity_hermitian(p: int, n: int) -> HermitianMatrix:
    ctx = _square_ctx(p)
    size = n + 1
    rows = tuple(
        tuple(1 if i == j else 0 for j in range(size)) for i in range(size)
    )
    return HermitianMatrix(ctx, rows)


def random_hermitian(p: int, n: int, seed: int) -> HermitianMatrix:
    """Uniform Hermitian matrix: random upper triangle over GF(p^2),
    diagonal restricted to the fixed field of conjugation."""
    ctx = _square_ctx(p)
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
    points: list = field(default_factory=list)   # normalized tuples
    rank: int = 0
    singular_points: list = field(default_factory=list)

    @property
    def q(self) -> int:
        return self.H.ctx.q

    @property
    def non_degenerate(self) -> bool:
        return self.rank == self.n + 1

    def contains(self, x) -> bool:
        return self.H.form(x, x) == 0


def build_hermitian(H: HermitianMatrix, n: int) -> HermitianVariety:
    """Enumerate the variety {x in PG(n,q) : x^T H conj(x) = 0}, its rank,
    and (when degenerate) the singular space {c : c^T H = 0}."""
    if H.size != n + 1:
        raise NotHermitian(f"matrix size {H.size} does not match n = {n}")
    ctx = H.ctx
    pg = proj_space(ctx.q, n)
    pts = [x for x in pg.points if H.form(x, x) == 0]
    r = len(rref(H.entries, ctx)[1])
    singular = []
    if r < n + 1:
        # c^T H = 0  <=>  H^T c = 0: a kernel of dimension n+1-r
        cols = [[H.entries[i][j] for i in range(n + 1)] for j in range(n + 1)]
        singular = [x for x in pg.points
                    if all(ctx.dot(x, col) == 0 for col in cols)]
        expected = (ctx.q ** (n + 1 - r) - 1) // (ctx.q - 1)
        if len(singular) != expected:
            raise AssertionError(
                f"{len(singular)} singular points; rank {r} needs {expected}"
            )
    return HermitianVariety(H, n, pts, r, singular)


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
    assert 1 <= r <= n + 1
    t = q ** (n - r + 1) - 1
    assert t % (q - 1) == 0
    return t * phi(r - 1, q) + t // (q - 1) + phi(r - 1, q)


# ---------------------------------------------------------------------------
# lines and tangency
# ---------------------------------------------------------------------------

def classify_line(V: HermitianVariety, line_points) -> str:
    """'tangent' (1 point), 'secant' (sqrt(q)+1), or 'contained' (q+1);
    anything else raises InternalClassificationError."""
    q = V.q
    r = _root_q(q)
    size = sum(1 for x in line_points if V.contains(x))
    if size == 1:
        return "tangent"
    if size == r + 1:
        return "secant"
    if size == q + 1:
        return "contained"
    raise InternalClassificationError(
        f"line meets variety in {size} points (allowed: 1, {r + 1}, {q + 1})"
    )


def tangent_space(V: HermitianVariety, c):
    """Coefficient vector of the tangent hyperplane {x : x^T H conj(c) = 0}
    at a non-singular point c of V, or WholeSpace() at a singular point."""
    assert V.contains(c), "tangent space requires a variety point"
    w = V.H.apply_conj(c)
    if all(v == 0 for v in w):
        return WholeSpace()
    return w


def tangent_lines_at(V: HermitianVariety, c) -> list:
    """The q - sqrt(q) lines through non-singular c in V meeting V only
    at c, each as the sorted tuple of its q+1 points."""
    pg = proj_space(V.q, V.n)
    w = tangent_space(V, c)
    assert not isinstance(w, WholeSpace), "singular point has no tangent lines"
    out = []
    seen = set()
    for x in pg.hyperplane_points(w):
        if x == c:
            continue
        ln = pg.line_points(c, x)
        if ln[:2] in seen:
            continue
        seen.add(ln[:2])
        if classify_line(V, ln) == "tangent":
            out.append(ln)
    return out


# ---------------------------------------------------------------------------
# tangent-line families
# ---------------------------------------------------------------------------

@dataclass
class TangentLineFamily:
    V: HermitianVariety
    alpha_num: int
    alpha_den: int
    seed: int
    base_points: list
    lines: list  # tuples of point tuples

    def __len__(self):
        return len(self.lines)


def build_tangent_line_family(V: HermitianVariety, alpha, seed: int):
    """Sample P = floor(alpha*|V|) variety points (seeded shuffle of the
    canonical point list); L = all q - sqrt(q) tangent lines at each.

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
    order = list(V.points)
    rng = random.Random(seed)
    rng.shuffle(order)
    nP = int(alpha * len(V.points))
    P = order[:nP]
    pset = set(P)
    lines = []
    seen = set()
    for c in P:
        tls = tangent_lines_at(V, c)
        assert len(tls) == q - r, f"{len(tls)} tangent lines at {c}"
        for ln in tls:
            assert ln[:2] not in seen, "tangent line shared by two points"
            seen.add(ln[:2])
            lines.append(ln)
    assert len(lines) == (q - r) * len(P)

    covered = set()
    for ln in lines:
        covered.update(ln)
    uncovered_variety = [x for x in V.points if x not in pset and x not in covered]
    # every point of V \ P must be uncovered: a line of L meets V only at
    # its base point, which lies in P
    assert len(uncovered_variety) == len(V.points) - len(P)

    # max plane occupancy (reported only)
    occupancy = {}
    for ln in lines:
        for h in pg.hyperplanes_through_line(ln[0], ln[1]):
            occupancy[h] = occupancy.get(h, 0) + 1
    max_occ = max(occupancy.values()) if occupancy else 0

    # affine restriction: drop the hyperplane x0 = 0
    affine_points = {x for x in covered if x[0] != 0}
    affine_lines = [ln for ln in lines if any(x[0] != 0 for x in ln)]

    fam = TangentLineFamily(
        V, alpha.numerator, alpha.denominator, seed, P, lines
    )
    report = {
        "q": q,
        "alpha": str(alpha),
        "seed": seed,
        "nV": len(V.points),
        "nP": len(P),
        "nL": len(lines),
        "nL_expected": (q - r) * len(P),
        "covered_projective": len(covered),
        "uncovered_variety_points": len(uncovered_variety),
        "covered_affine": len(affine_points),
        "nL_affine": len(affine_lines),
        "max_plane_occupancy": max_occ,
    }
    return fam, report


def affine_chart_family(family: TangentLineFamily) -> LineFamily:
    """The lines of a tangent-line family in PG(3,q) that leave the
    hyperplane x0 = 0, as lines of AG(3,q) through the x0 = 1 chart."""
    sp = affine_space(family.V.q, 3)
    ctx = sp.ctx
    dirs, pts = [], []
    for ln in family.lines:
        finite = [x for x in ln if x[0] != 0]
        if len(finite) < 2:
            continue
        # x = (1, a1, a2, a3) after scaling by x0^{-1}
        aff = [tuple(ctx.mul(ctx.inv(x[0]), v) for v in x[1:]) for x in finite[:2]]
        dirs.append(sp.dir_index[sp.proj.normalize(
            tuple(ctx.sub(a, b) for a, b in zip(aff[0], aff[1]))
        )])
        pts.append(sp.index(aff[0]))
    bases = sp.line_points(dirs, pts).min(axis=1)
    return LineFamily(sp, zip(dirs, bases.tolist()))
