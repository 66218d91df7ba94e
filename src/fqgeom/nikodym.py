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
    split_lines,
)
from .incidence import count_incidences, mixing_bound_holds, mixing_incidence_bound


class TooFewLines(ValueError):
    pass


class NotNikodym(ValueError):
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
    at most {p}; extract, for each complement point, the canonical-first
    such line.  The single-intersection structure makes the assignment
    injective automatically (a line determines its unique complement
    point).  Returns NikodymWitness or FailingPoints."""
    sp = affine_space(pset.q, pset.n)
    comp = ~pset.mask
    self_comp = comp.astype(np.int64)  # required complement count on the line at p
    ok = np.zeros(sp.npoints, dtype=bool)
    assignment = {}
    for d in range(sp.ndirs):
        if ok.all():  # later directions cannot change ok or the assignment
            break
        labels = sp.line_labels([d])[0]
        cnt = np.bincount(labels[comp], minlength=sp.nlabels)[labels]
        good = cnt == self_comp
        new = np.flatnonzero(good & ~ok & comp)  # complement points assigned here
        if len(new):
            bases = sp.line_points(d, new).min(axis=1)  # least points of their lines
            assignment.update(zip(new.tolist(), ((d, b) for b in bases.tolist())))
        ok |= good
    if not ok.all():
        return FailingPoints(pset.q, [int(p) for p in np.nonzero(~ok)[0]])
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
    planes = [(d, 0) for d in sp.proj.ids(duals).tolist()]
    fam = LineFamily(sp, (ln for pl in planes for ln in sp.lines_in_plane(pl)))
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
    assert f(lo) > 0 > f(hi)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2
    assert abs(root - 0.6180339887) < 1e-8
    return root


def nikodym_complement_bound_check(pset: PointSet) -> dict:
    """For a verified Nikodym set: recount the witness incidences
    (exactly (q-1)|complement|) and check the exact mixing bound on them
    (AssertionError); report the complement density against the threshold."""
    res = verify_nikodym(pset)
    if isinstance(res, FailingPoints):
        raise NotNikodym(f"{len(res.points)} failing points")
    q = pset.q
    sp = affine_space(q, pset.n)
    fam = LineFamily(sp, res.assignment.values())
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
    rng.shuffle(pool)
    lines = pool[:count]
    if cap is not None:
        occupancy = np.zeros(sp.ndirs * sp.q, dtype=np.int64)
        lines, start = [], 0
        while len(lines) < count and start < len(pool):
            block = pool[start:start + count]
            start += count
            for ln, planes in zip(block, sp.line_planes(*split_lines(block))):
                if occupancy[planes].max() + 1 <= cap:
                    occupancy[planes] += 1
                    lines.append(ln)
                    if len(lines) == count:
                        break
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
    from .hermitian import (
        affine_chart_family, build_hermitian, build_tangent_line_family,
        identity_hermitian,
    )

    r = isqrt(q)
    if r * r != q:
        raise GeneratorInfeasible(f"hermitian generator needs square q, got {q}")
    V = build_hermitian(identity_hermitian(r, 3), 3)
    fam_proj, rep = build_tangent_line_family(V, alpha, seed)
    extra = {"alpha": str(Fraction(alpha)), "uncovered": rep["uncovered_variety_points"],
             "coveredProjective": rep["covered_projective"]}
    return affine_chart_family(fam_proj), extra


def write_records(instances, path: str):
    """JSON-lines dump with deterministic key order."""
    with open(path, "w") as fh:
        for inst in instances:
            fh.write(json.dumps(inst.to_record(), sort_keys=True) + "\n")
