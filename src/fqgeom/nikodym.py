"""Nikodym sets in AG(n,q): verification with witness extraction,
union-of-lines constructions and bounds, the coplanar-line bound, the
golden-ratio density threshold, and a seeded exploration harness for
large line families with capped plane occupancy.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, isqrt, sqrt

import numpy as np

from .geom import (
    LineFamily,
    PointSet,
    UnsupportedField,
    affine_space,
    conic_dual_lines,
    max_line_coincidence,
)
from .incidence import count_incidences, mixing_bound_holds, mixing_incidence_bound


class TooFewLines(ValueError):
    pass


class GeneratorInfeasible(ValueError):
    pass


class AssignmentNotInjective(RuntimeError):
    """The set is Nikodym but no injective single-intersection assignment
    was found; surfaced distinctly from non-Nikodym-ness."""


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class NikodymWitness:
    q: int
    pointset: PointSet
    assignment: dict  # complement point index -> line (dir_id, base)


@dataclass
class FailingPoints:
    q: int
    points: list  # indices with no qualifying line


def verify_nikodym(pset: PointSet):
    """Check that through EVERY point p some line meets the complement in
    at most {p}; extract, for each complement point, the line of the first
    direction that qualifies, with the line's least point as base, in
    (direction, point) order.  The single-intersection structure makes the
    assignment injective automatically (a line determines its unique
    complement point).  Returns NikodymWitness or FailingPoints.

    Like verify_kakeya, it sweeps batches of directions
    (AffineSpace.line_counts), labels only the smaller side (the set on a
    tie) and stops once every point qualifies.  On the set side a set
    point qualifies on a line holding q set points, and a complement point
    on a line holding q - 1, which is found from the line's label.  On the
    complement side the complement is labelled with the set points still
    pending (_nikodym_complement_side)."""
    sp = affine_space(pset.q, pset.n)
    if 2 * len(pset) > pset.mask.size:
        return _nikodym_complement_side(sp, pset)
    q, mask = pset.q, pset.mask
    pts = pset.indices()
    ok = np.zeros(sp.npoints, dtype=bool)
    assignment = {}
    for ids, keys, counts in sp.line_counts(sp.point_coords(pts)):
        ok[pts[(counts == q)[keys].any(axis=0)]] = True
        lines = np.flatnonzero(counts == q - 1)
        if len(lines):
            row, label = np.divmod(lines, sp.nlabels)
            dirs = ids[row]
            on = sp.line_points(dirs, sp.label_points(dirs, label))  # (lines, q)
            new = on[~mask[on]]  # the one complement point of each line
            fresh = ~ok[new]
            _assign(assignment, new[fresh], dirs[fresh], sp.line_base(dirs[fresh], new[fresh]))
            ok[new] = True
        if ok.all():
            break
    return _nikodym_result(pset, ok, assignment)


def _nikodym_complement_side(sp, pset):
    """verify_nikodym on the complement side: a point qualifies on a line
    holding as many complement points as it is one (1 or 0).  The sweep
    labels the complement and the set points still pending, and labels
    afresh from the next batch on once fewer than half of those are
    pending.  While no point has qualified it labels every point, on the
    label grid."""
    comp = np.flatnonzero(~pset.mask)
    # the lines through a set point meet only there, so all of them meet the
    # complement only if it has a point for every direction
    ok = pset.mask.copy() if len(comp) < sp.ndirs else np.zeros(sp.npoints, dtype=bool)
    assignment, start = {}, 0
    while start < sp.ndirs:
        if ok.any():  # the complement, then the set points still pending
            pts = np.concatenate([comp, np.flatnonzero(pset.mask & ~ok)])
            coords, counted = sp.point_coords(pts), slice(len(comp))
        else:  # every point
            pts, coords, counted = np.arange(sp.npoints), None, comp
        pending = len(pts) - len(comp)  # set points without a line
        at_comp = ~pset.mask[pts]
        need = at_comp.astype(np.int64)
        for ids, keys, counts in sp.line_counts(coords, counted, start):
            start = ids[-1] + 1
            good = counts[keys] == need
            fresh = good.any(axis=0) & ~ok[pts]  # qualified in this batch
            cols = np.flatnonzero(fresh & at_comp)  # complement points assigned here
            if len(cols):
                new, dirs = pts[cols], ids[good[:, cols].argmax(axis=0)]
                _assign(assignment, new, dirs, sp.line_base(dirs, new))
            ok[pts[fresh]] = True
            if ok.all():  # later directions cannot change ok or the assignment
                return _nikodym_result(pset, ok, assignment)
            pending -= np.count_nonzero(fresh) - len(cols)
            if 2 * pending < len(pts) - len(comp):
                break
    return _nikodym_result(pset, ok, assignment)


def _assign(assignment, points, dirs, bases):
    """Give each complement point the line (dir, base) of its first
    direction among dirs, in (direction, point) order."""
    order = np.lexsort((dirs, points))  # by point, then direction
    first = np.ones(len(order), dtype=bool)
    first[1:] = points[order[1:]] != points[order[:-1]]
    keep = order[first]
    keep = keep[np.lexsort((points[keep], dirs[keep]))]
    assignment.update(zip(points[keep].tolist(), zip(dirs[keep].tolist(), bases[keep].tolist())))


def _nikodym_result(pset, ok, assignment):
    if not ok.all():
        return FailingPoints(pset.q, np.flatnonzero(~ok).tolist())
    lines = list(assignment.values())
    if len(set(lines)) != len(lines):  # pragma: no cover - structurally impossible
        raise AssignmentNotInjective("two complement points share a line")
    return NikodymWitness(pset.q, pset, assignment)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def union_lower_bound_check(L: LineFamily, fraction=Fraction(62, 100)) -> dict:
    """For |L| >= fraction*q^3 lines, report measured |P(L)| against the
    smallest |P| that the exact mixing inequality allows when every line
    contributes q incidences (I = q|L|)."""
    q = L.space.q
    if Fraction(len(L)) < fraction * q ** 3:
        raise TooFewLines(f"need at least {float(fraction)}*q^3 = {float(fraction) * q**3:.0f} lines")
    P = L.union_points()
    I = q * len(L)
    # smallest nP with the mixing bound >= I; the bound crosses I once in nP
    lo, hi = 0, q ** 3
    while lo < hi:
        mid = (lo + hi) // 2
        if mixing_bound_holds(I, mid, len(L), q):
            hi = mid
        else:
            lo = mid + 1
    implied = lo
    if len(P) < implied:
        raise AssertionError(f"union of {len(P)} points is below the mixing bound {implied}")
    return {
        "q": q,
        "nL": len(L),
        "measured": len(P),
        "implied_lower_bound": implied,
        "incidences": I,
        "ratio": len(P) / q ** 3,
    }


def build_conic_dual_line_family(q: int, fraction=Fraction(62, 100)):
    """k = floor(fraction*q) planes through the origin whose normals are
    conic-dual line coefficients (so no three planes share a line); L is
    every line inside their union.

    The report checks the exact identities |L| = k*q(q+1) - C(k,2) and
    |P(L)| = k*q^2 - (q-1)*C(k,2) - (k-1) and the coincidence bound."""
    fraction = Fraction(fraction)
    k = int(fraction * q)
    if q < 5 or k < 3:
        raise UnsupportedField("need q >= 5 and at least 3 planes")
    if k > q + 1:
        raise UnsupportedField(f"only q+1 = {q + 1} conic-dual lines exist")
    duals = conic_dual_lines(q)[:k]
    coincidence = max_line_coincidence(q, duals)
    if coincidence > 2:
        raise AssertionError(f"{coincidence} conic-dual lines share a point")
    sp = affine_space(q, 3)
    planes = sp.proj.ids(duals) * q
    fam = LineFamily(sp, np.concatenate([sp.lines_in_plane(pl) for pl in planes]))
    P = fam.union_points()
    nL_expected = k * q * (q + 1) - comb(k, 2)
    nP_expected = k * q * q - (q - 1) * comb(k, 2) - (k - 1)
    if (len(fam), len(P)) != (nL_expected, nP_expected):
        raise AssertionError(
            f"{len(fam)} lines and {len(P)} points; the identities give "
            f"{nL_expected} and {nP_expected}"
        )
    report = {
        "q": q,
        "k": k,
        "planes": len(planes),
        "nL": len(fam),
        "nL_identity": nL_expected,
        "nP": len(P),
        "nP_identity": nP_expected,
        "max_dual_coincidence": coincidence,
        "ratio": len(P) / q ** 3,
    }
    return fam, report


def f2_bound(q: int) -> float:
    """Planar coplanar-line cap q^{3/2} + 1 + q (imported constant plus
    the affine/projective slack of one line at infinity)."""
    return q ** 1.5 + 1 + q


def _leq_f2_bound(count: int, q: int) -> bool:
    """count <= q^{3/2} + 1 + q, exactly (integer squaring)."""
    rest = count - 1 - q
    if rest <= 0:
        return True
    return rest * rest <= q ** 3


def coplanar_line_bound_check(witness: NikodymWitness) -> dict:
    """Count assignment lines inside every plane; raise AssertionError unless
    each count is at most q^{3/2} + 1 + q (exact integer comparison); report
    the busiest plane."""
    sp = affine_space(witness.q, witness.pointset.n)
    fam = LineFamily(sp, witness.assignment.values())
    plane, occ = fam.max_plane_occupancy()
    if not _leq_f2_bound(occ, witness.q):
        raise AssertionError(f"plane {plane} holds {occ} lines > bound {f2_bound(witness.q):.3f}")
    return {
        "q": witness.q,
        "n_lines": len(fam),
        "max_plane": plane,
        "max_occupancy": occ,
        "bound": f2_bound(witness.q),
        "bound_tag": "IMPORTED",
    }


def golden_ratio_threshold(tol: float = 1e-12) -> float:
    """Largest density x with x <= (1-x)x + x*sqrt(1-x): reduces to
    (1-x) + sqrt(1-x) = 1, solved by bisection; the root is (sqrt(5)-1)/2."""

    def f(x):
        return (1 - x) + sqrt(1 - x) - 1

    lo, hi = 0.5, 0.7
    if not f(lo) > 0 > f(hi):
        raise AssertionError(f"(1-x) + sqrt(1-x) - 1 does not change sign on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2
    if not abs(root - 0.6180339887) < 1e-8:
        raise AssertionError(f"root {root} is not the golden ratio (sqrt(5)-1)/2")
    return root


def nikodym_complement_bound_check(witness: NikodymWitness) -> dict:
    """Recount the incidences of a Nikodym set with its witness lines
    (exactly (q-1)|complement|) and check the exact mixing bound on them
    (AssertionError); report the complement density against the threshold."""
    pset, q = witness.pointset, witness.q
    fam = LineFamily(affine_space(q, pset.n), witness.assignment.values())
    stats = count_incidences(pset, fam)
    if stats.incidences != (q - 1) * len(fam):
        raise AssertionError(f"{stats.incidences} witness incidences, not (q-1)*{len(fam)}")
    holds = True
    if fam:
        holds = mixing_bound_holds(stats.incidences, len(pset), len(fam), q)
        if not holds:
            raise AssertionError(f"{stats.incidences} witness incidences break the mixing bound")
    return {
        "q": q,
        "complement": len(fam),
        "complement_ratio": len(fam) / q ** pset.n,
        "threshold": golden_ratio_threshold(),
        "witness_incidences": stats.incidences,
        "mixing_bound": mixing_incidence_bound(len(pset), len(fam), q)["bound"]
        if fam else 0.0,
        "mixing_holds": holds,
    }


# ---------------------------------------------------------------------------
# exploration harness
# ---------------------------------------------------------------------------

@dataclass
class ConjectureInstance:
    q: int
    generator: str
    seed: int
    n_lines: int
    max_plane_occupancy: int
    n_covered: int
    ratio: float
    alarm: bool
    extra: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "q": self.q,
            "generator": self.generator,
            "seed": self.seed,
            "nL": self.n_lines,
            "maxPlaneOccupancy": self.max_plane_occupancy,
            "nPL": self.n_covered,
            "ratio": self.ratio,
            "alarm": self.alarm,
            **self.extra,
        }


def _random_family(sp, count, cap, rng) -> LineFamily:
    """The first count lines of a shuffled pool that keep every plane at
    most cap lines; the planes of a block of count candidates come from one
    line_planes call."""
    pool = sp.all_lines()
    order = list(range(len(pool)))
    rng.shuffle(order)  # by index: shuffling the rows in place would alias them
    pool = pool[order]
    lines = pool[:count]
    if cap is not None:
        occupancy = np.zeros(sp.ndirs * sp.q, dtype=np.int64)
        kept, start = [], 0
        while len(kept) < count and start < len(pool):
            block = pool[start:start + count]
            for i, planes in enumerate(sp.line_planes(*block.T), start):
                if occupancy[planes].max() + 1 <= cap:
                    occupancy[planes] += 1
                    kept.append(i)
                    if len(kept) == count:
                        break
            start += count
        lines = pool[kept]
    if len(lines) < count:
        raise GeneratorInfeasible(f"cap {cap} admits only {len(lines)} of {count} requested lines")
    return LineFamily(sp, lines)


def conjecture_harness(generator: str, q: int, trials: int, seed: int,
                       n_lines: int | None = None, plane_cap=None,
                       alpha=Fraction(1, 2), alarm_ratio: float = 0.9):
    """Yield ConjectureInstance records for seeded line-family draws.

    generator: 'uniform' (no cap), 'plane-capped' (reject lines that push
    a plane over the cap), 'conic-dual', or 'hermitian' (tangent-line
    families restricted to the affine chart).  Instances whose coverage
    ratio |P(L)|/q^3 falls below alarm_ratio are flagged, never asserted.
    """
    if n_lines is not None and n_lines < 1:
        raise GeneratorInfeasible(f"line count {n_lines} is not positive")
    if trials < 1:
        raise GeneratorInfeasible(f"trial count {trials} is not positive")
    sp = affine_space(q, 3)
    if n_lines is None:
        n_lines = int(q ** 2.5)
    if plane_cap is None and generator == "plane-capped":
        plane_cap = max(int(0.5 * q ** 1.5), 1)
    out = []
    for t in range(trials):
        trial_seed = seed + t
        rng = random.Random(trial_seed)
        extra = {}
        if generator == "uniform":
            fam = _random_family(sp, min(n_lines, q**4 + q**3 + q**2), None, rng)
        elif generator == "plane-capped":
            fam = _random_family(sp, n_lines, plane_cap, rng)
            extra["planeCap"] = plane_cap
        elif generator == "conic-dual":
            fam, rep = build_conic_dual_line_family(q)
            extra["k"] = rep["k"]
        elif generator == "hermitian":
            fam, extra = _hermitian_family(q, alpha, trial_seed)
        else:
            raise ValueError(f"unknown generator {generator!r}")
        P = fam.union_points()
        _, occ = fam.max_plane_occupancy()
        ratio = len(P) / q ** 3
        out.append(ConjectureInstance(
            q, generator, trial_seed, len(fam), occ, len(P), ratio,
            alarm=ratio < alarm_ratio, extra=extra,
        ))
    return out


def _hermitian_family(q: int, alpha, seed: int):
    """Affine restriction of a Hermitian tangent-line family: projective
    tangent lines mapped into AG(3,q) through the x0 = 1 chart."""
    from .hermitian import affine_chart_family, build_hermitian, build_tangent_line_family

    r = isqrt(q)
    if r * r != q:
        raise GeneratorInfeasible(f"hermitian generator needs square q, got {q}")
    V = build_hermitian(r, 3)
    fam_proj, rep = build_tangent_line_family(V, alpha, seed)
    extra = {"alpha": str(Fraction(alpha)), "uncovered": rep["uncovered_variety_points"],
             "coveredProjective": rep["covered_projective"]}
    return affine_chart_family(fam_proj), extra


def write_records(instances, path: str):
    """JSON-lines dump with deterministic key order."""
    with open(path, "w") as fh:
        for inst in instances:
            fh.write(json.dumps(inst.to_record(), sort_keys=True) + "\n")
