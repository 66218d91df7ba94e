"""Kakeya sets in AG(3,q): construction, verification, the integer
multiplicity lower bound, and the fractional-multiplicity pipeline run as
an end-to-end computation at fixed q.

The fractional parameter m = (a - d*a)u + (1 - a - d*a)(u+1) with
d = q^(-1/3) is held exactly (rational plus cube-root term); every
acceptance decision in the sampler and the degree caps is made in exact
arithmetic by cubing, never with floats.  A sampler window
|c - alpha*s| < alpha*s*q^(-1/3) with alpha = a/b is decided on integer
cubes, |b*c - a*s|^3 * q < (a*s)^3.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, inf

import numpy as np

from .geom import PointSet, affine_space
from .poly import (
    DegreeCap,
    count_capped_monomials,
    interpolate_vanishing,
    is_identically_zero_on_space,
    homogeneous_top,
    restrict_to_line,
    sign_frac_plus_cbrt,
)
from .gf import field_of_order


class EvenFieldUnsupported(ValueError):
    pass


class RetryExhausted(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class KakeyaWitness:
    q: int
    pointset: PointSet
    lines: dict  # dir_id -> canonical line fully contained in the set


@dataclass
class MissingDirections:
    q: int
    directions: list  # dir_ids with no fully-contained line


def verify_kakeya(pset: PointSet):
    """Exhaustive check: for each of the q^2+q+1 directions, find a line
    fully contained in the set.  Returns a KakeyaWitness on success, else
    MissingDirections listing every uncovered direction.  Only the smaller
    side is labelled, for a batch of directions per array call
    (AffineSpace.line_counts): a line is contained when it holds q of the
    set's points, or none of the complement's."""
    sp = affine_space(pset.q, pset.n)
    pts = pset.indices()
    if 2 * len(pts) > pset.mask.size:  # the complement is the smaller side
        comp = np.flatnonzero(~pset.mask)
        # the hit lines hold at most len(comp)*(q-1) set points, so the first
        # set point on a contained line is among the first len(comp)*(q-1)+1
        pts = pts[: len(comp) * (pset.q - 1) + 1]
        counted, full = slice(len(comp)), 0
        coords = sp.point_coords(np.concatenate([comp, pts]))
    else:
        counted, full = slice(None), pset.q
        coords = sp.point_coords(pts)
    heads = slice(coords.shape[1] - len(pts), None)
    witness, missing = {}, []
    for ids, keys, counts in sp.line_counts(coords, counted):
        contained = counts == full
        found = contained.reshape(len(ids), -1).any(axis=1)
        missing += ids[~found].tolist()
        if found.any():
            # the first set point on a contained line is its least point
            first = pts[np.argmax(contained[keys[:, heads]], axis=1)][found]
            witness.update((d, (d, b)) for d, b in zip(ids[found].tolist(), first.tolist()))
    if missing:
        return MissingDirections(pset.q, missing)
    return KakeyaWitness(pset.q, pset, witness)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def build_quadratic_residue_set(q: int) -> PointSet:
    """K = {(x1, x2, t) : x1 + t^2 and x2 + t^2 are squares} union the
    plane {t = 0}; contains, for direction (b1, b2, 1), the line based at
    (b1^2/4, b2^2/4, 0) since a + t*b + t^2 = (t + b/2)^2.

    Exact size: (q-1)((q+1)/2)^2 + q^2 -- each t-slice of the residue
    part has ((q+1)/2)^2 points, since x -> x + t^2 permutes F_q and F_q
    has (q+1)/2 squares counting 0, and the t=0 slice lies inside the
    added plane."""
    ctx = field_of_order(q)
    if q % 2 == 0:
        raise EvenFieldUnsupported("quadratic residues need odd q")
    square = np.zeros(q, dtype=bool)
    square[ctx.mul_table.diagonal()] = True  # includes 0
    # good[t, x]: x + t^2 is a square; point (x1, x2, t) has index x1 + q*x2 + q^2*t
    good = square[ctx.add_table[ctx.mul_table.diagonal()[:, None], np.arange(q)]]
    mask = good[:, :, None] & good[:, None, :]
    mask[0] = True  # the plane t = 0
    return PointSet.from_mask(q, 3, mask.ravel())


def qr_set_size(q: int) -> int:
    """Exact cardinality of build_quadratic_residue_set(q)."""
    return (q - 1) * ((q + 1) // 2) ** 2 + q * q


def build_thin_kakeya_set(q: int) -> PointSet:
    """A minimal-style Kakeya set: one line per direction (the lines the
    quadratic-residue construction uses, plus lines through the origin in
    the t = 0 plane).  It is the residue set built as a union of lines, of
    size qr_set_size(q): for t != 0, as b runs over F_q so does b/2 + t,
    so x = (b/2)^2 + t*b = (b/2 + t)^2 - t^2 runs over the x with x + t^2
    a square, and the lines through the origin fill the plane t = 0."""
    ctx = field_of_order(q)
    if q % 2 == 0:
        raise EvenFieldUnsupported("construction needs odd q")
    sp = affine_space(q, 3)
    # direction (b1, b2, 1) has its line based at ((b1/2)^2, (b2/2)^2, 0)
    half_sq = ctx.mul_table.diagonal()[ctx.mul_table[ctx.inv(2 % q), np.arange(q)]]
    b1, b2 = np.divmod(np.arange(q * q), q)
    flat = np.flatnonzero(sp.proj.array[:, 2] == 0)
    dirs = np.concatenate([sp.proj.ids(np.stack([b1, b2, np.ones_like(b1)], axis=1)), flat])
    bases = np.concatenate([half_sq[b1] + q * half_sq[b2], np.zeros_like(flat)])
    K = PointSet(q, 3)
    K.mask[sp.line_points(dirs, bases)] = True
    return K


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def integer_multiplicity_bound(q: int, n: int = 3, m: int = 2) -> int:
    """Lower bound ceil(N_q(n,m) / binom(m+n-1, n)) on any Kakeya set."""
    if m < 1:
        raise ValueError(f"multiplicity m = {m} must be at least 1")
    N = count_capped_monomials(n, q, Fraction(m))
    b = comb(m + n - 1, n)
    return -(-N // b)


def fractional_coefficient(m, u: int = 1) -> Fraction:
    """Exact asymptotic Kakeya lower-bound coefficient for the fractional
    argument at multiplicity parameter m (u = 1: m in [1,2]; u = 2:
    m in [2,3])."""
    m = Fraction(m)
    if u == 1:
        if not 1 <= m <= 2:
            raise ValueError("u=1 branch needs m in [1,2]")
        num = -2 * m ** 3 + 9 * m ** 2 - 9 * m + 3
        den = 6 * (3 * m - 2)
    elif u == 2:
        if not 2 <= m <= 3:
            raise ValueError("u=2 branch needs m in [2,3]")
        num = m ** 3 - 3 * (m - 1) ** 3 + 3 * (m - 2) ** 3
        den = 6 * (6 * m - 8)
    else:
        raise ValueError("u must be 1 or 2")
    return num / den


def optimize_fractional_bound(tol: float = 1e-12):
    """Maximize the fractional-bound coefficient over both branches.

    The u=1 optimum solves 4m^3 - 13m^2 + 12m - 3 = 0 in (1, 2); found by
    bisection on that derivative polynomial, then compared against the
    u=2 branch (whose best value is the integer bound 5/24 at m=2).
    Returns (m_star, coefficient, details)."""

    def dnum(m):
        # sign of d/dm of the u=1 coefficient (up to a positive factor)
        return -(4 * m ** 3 - 13 * m ** 2 + 12 * m - 3)

    lo, hi = 1.5, 2.0
    if not dnum(lo) > 0 > dnum(hi):
        raise AssertionError(f"the u=1 derivative does not change sign on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if dnum(mid) > 0:
            lo = mid
        else:
            hi = mid
    m1 = (lo + hi) / 2
    c1 = float(fractional_coefficient(Fraction(m1).limit_denominator(10 ** 9), 1))

    # u=2 branch: coefficient is decreasing on [2,3]; optimum at m=2
    best2 = max(
        (float(fractional_coefficient(Fraction(2) + Fraction(j, 1000), 2)), j)
        for j in range(0, 1001)
    )
    m2 = 2 + best2[1] / 1000
    c2 = best2[0]

    if c1 >= c2:
        m_star, coeff = m1, c1
    else:
        m_star, coeff = m2, c2
    if not coeff > 5 / 24:
        raise AssertionError(f"fractional optimum {coeff} does not beat 5/24")
    return m_star, coeff, {"u1": (m1, c1), "u2": (m2, c2)}


# ---------------------------------------------------------------------------
# fractional subset sampling
# ---------------------------------------------------------------------------

@dataclass
class FractionalParams:
    u: int
    alpha: Fraction
    q: int

    @property
    def cap(self) -> DegreeCap:
        return DegreeCap.fractional(self.u, self.alpha)

    @property
    def m_value(self) -> float:
        return self.cap.value(self.q)


@dataclass
class SubsetSample:
    subset: PointSet
    line_counts: dict  # line -> |line ∩ S| over the checked lines
    size: int
    attempts: int


def _within_window(count: int, alpha: Fraction, scale: int, q: int) -> bool:
    """|count - alpha*scale| < alpha*scale*q^(-1/3), exactly: with
    alpha = a/b, multiplied through by b and cubed."""
    a, b = alpha.numerator, alpha.denominator
    return abs(b * count - a * scale) ** 3 * q < (a * scale) ** 3


def _uniforms(rng: random.Random, n: int) -> np.ndarray:
    """[rng.random() for _ in range(n)], leaving rng in the same state, from
    one getrandbits call: random() turns two 32-bit outputs w0, w1 into
    ((w0 >> 5) * 2^26 + (w1 >> 6)) / 2^53, and getrandbits(64n) packs its
    2n outputs in order, the first as the least significant word."""
    w = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4")
    w = w.astype(np.int64)
    return ((w[0::2] >> 5) * (1 << 26) + (w[1::2] >> 6)) / float(1 << 53)


def sample_fractional_subset(K: PointSet, witness: KakeyaWitness, alpha,
                             seed: int, retry_cap: int = 1000) -> SubsetSample:
    """Random S subset of K with | |S| - alpha|K| | < d*alpha|K| and, for
    each witness line, | |L∩S| - alpha*q | < d*alpha*q, d = q^(-1/3).
    Retries up to retry_cap seeded draws, then raises RetryExhausted.

    A draw keeps each point of K, in index order, when its rng.random()
    falls below alpha (no draw at alpha = 1); a repair pass then nudges the
    out-of-window lines in witness order with rng.choice."""
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    q = K.q
    sp = affine_space(q, K.n)
    rng = random.Random(seed)
    kpts = K.indices()
    lines = list(witness.lines.values())
    dirs, bases = np.array(lines, dtype=np.int64).reshape(-1, 2).T
    line_pts = sp.line_points(dirs, bases)  # (len(lines), q), t order
    pts_lists = line_pts.tolist()
    through = {}  # point -> the witness lines through it
    for i, pts in enumerate(pts_lists):
        for p in pts:
            through.setdefault(p, []).append(i)
    a = float(alpha)
    target = a * q  # picks the direction of a nudge; never accepts
    inwin = [_within_window(c, alpha, q, q) for c in range(q + 1)]
    for attempt in range(1, retry_cap + 1):
        mask = np.zeros(K.mask.size, dtype=bool)
        mask[kpts[_uniforms(rng, len(kpts)) < a] if alpha < 1 else kpts] = True
        counts = mask[line_pts].sum(axis=1).tolist()
        buf = bytearray(mask.tobytes())
        # repair pass: nudge each out-of-window line by toggling its own
        # points (witness lines pairwise share at most one point, so the
        # nudges barely interact); a toggle updates every line through it
        for i, pts in enumerate(pts_lists):
            if inwin[counts[i]]:
                continue
            for _ in range(q + 1):  # empty integer windows stop here
                grow = counts[i] < target
                pick = [p for p in pts if buf[p] != grow]  # the off points to grow, else the on
                if not pick:
                    break
                p = rng.choice(pick)
                buf[p] = grow
                step = 1 if grow else -1
                for j in through[p]:
                    counts[j] += step
                if inwin[counts[i]]:
                    break
        S = PointSet.from_mask(q, K.n, np.frombuffer(buf, dtype=bool))
        if not _within_window(len(S), alpha, len(kpts), q):
            continue
        if all(inwin[c] for c in counts):
            return SubsetSample(S, dict(zip(lines, counts)), len(S), attempt)
    raise RetryExhausted(
        f"no acceptable subset in {retry_cap} draws (alpha={alpha}, q={q})"
    )


# ---------------------------------------------------------------------------
# the end-to-end fractional pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineReport:
    q: int
    u: int
    alpha: Fraction
    seed: int
    construction: str
    m_value: float
    size_K: int
    stage: str
    detail: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "q": self.q,
            "u": self.u,
            "alpha": str(self.alpha),
            "seed": self.seed,
            "construction": self.construction,
            "m": self.m_value,
            "sizeK": self.size_K,
            "stage": self.stage,
            "detail": self.detail,
        }


def counting_inequality_holds(q: int, u: int, alpha, size_K: int) -> bool:
    """Exact check of N_q(3,m) <= (a+da)C(2+u,3)|K| + (1-a+da)C(3+u,3)|K|
    with d = q^(-1/3) and m the fractional parameter."""
    alpha = Fraction(alpha)
    cap = DegreeCap.fractional(u, alpha)
    N = count_capped_monomials(3, q, cap) if cap.allows_total(0, q) else 0
    b1 = comb(2 + u, 3)
    b2 = comb(3 + u, 3)
    X = alpha * b1 * size_K + (1 - alpha) * b2 * size_K
    Y = alpha * b1 * size_K + alpha * b2 * size_K  # coefficient of q^(-1/3)
    # N <= X + Y*q^(-1/3)  <=>  (X - N) + (Y/q)*q^(2/3) >= 0
    return sign_frac_plus_cbrt(X - N, Fraction(Y, q), q) >= 0


def fractional_pipeline(q: int, u: int, alpha, seed: int,
                        construction: str = "qr",
                        retry_cap: int = 1000) -> PipelineReport:
    """Run the fractional-multiplicity argument as a computation:
    build K, sample S, interpolate g vanishing with multiplicity u on S
    and u+1 on K\\S, then walk the witness lines counting zeros of the
    restrictions and evaluating the top homogeneous part on every
    direction.  The report names the stage where the run terminates."""
    if u not in (1, 2):
        raise ValueError("u must be 1 or 2")
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    if construction == "qr":
        K = build_quadratic_residue_set(q)
    elif construction == "thin":
        K = build_thin_kakeya_set(q)
    else:
        raise ValueError(f"unknown construction {construction!r}")
    params = FractionalParams(u, alpha, q)
    cap = params.cap
    report = PipelineReport(
        q=q, u=u, alpha=alpha, seed=seed, construction=construction,
        m_value=params.m_value, size_K=len(K), stage="init",
    )

    check = verify_kakeya(K)
    if not isinstance(check, KakeyaWitness):
        raise AssertionError(f"{construction} construction failed verification at q = {q}")

    if alpha == 0:
        S = PointSet(q, 3)
        report.detail["sample"] = {"size": 0, "attempts": 0}
    elif alpha == 1:
        S = PointSet.from_mask(q, 3, K.mask)
        report.detail["sample"] = {"size": len(K), "attempts": 0}
    else:
        try:
            sample = sample_fractional_subset(K, check, alpha, seed, retry_cap)
        except RetryExhausted as e:
            report.stage = "sampler-exhausted"
            report.detail["error"] = str(e)
            return report
        S = sample.subset
        report.detail["sample"] = {"size": sample.size, "attempts": sample.attempts}

    rest = PointSet.from_mask(q, 3, K.mask & ~S.mask)
    nmonomials = count_capped_monomials(3, q, cap) if cap.allows_total(0, q) else 0
    nconstraints = len(S) * comb(u + 2, 3) + len(rest) * comb(u + 3, 3)
    report.detail["monomials"] = nmonomials
    report.detail["constraints"] = nconstraints
    if nconstraints >= nmonomials:
        report.stage = "counting-not-in-paradox-regime"
        report.detail["counting_inequality_holds"] = counting_inequality_holds(
            q, u, alpha, len(K)
        )
        return report

    g = interpolate_vanishing(S, u, rest, u + 1, cap)
    d = g.total_degree
    report.detail["degree"] = d
    g0 = homogeneous_top(g)

    sp = affine_space(q, 3)
    dir_ids, bases = np.array(list(check.lines.values())).T
    surviving = None
    g0_values = {}
    for dir_id, a, b in zip(dir_ids.tolist(), sp.point_coords(bases).T.tolist(),
                            sp.proj.array[dir_ids].tolist()):
        f = restrict_to_line(g, a, b)
        g0_values[dir_id] = g0.evaluate(b)
        if f.is_zero():
            continue
        zeros = sum(
            mu if mu is not inf else 0
            for mu in (f.multiplicity_at(t) for t in range(q))
        )
        if surviving is None:
            surviving = {
                "direction": list(b),
                "restriction_degree": int(f.degree),
                "zeros_with_multiplicity": int(zeros),
            }
    if surviving is not None:
        report.stage = "restriction-survives"
        report.detail["witness_direction"] = surviving
        report.detail["g0_zero_directions"] = sum(
            1 for v in g0_values.values() if v == 0
        )
        return report

    # every restriction identically zero -> g0 vanishes on all directions,
    # contradicting nonvanishing of a nonzero polynomial with individual
    # degrees < q; is_identically_zero_on_space raises on that inconsistency.
    if any(v != 0 for v in g0_values.values()):
        raise AssertionError("g0 is nonzero on a direction whose restriction vanishes")
    report.stage = "g0-vanishes-on-all-directions"
    is_identically_zero_on_space(g0)  # raises AssertionError
    return report  # pragma: no cover
