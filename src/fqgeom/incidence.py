"""Point-line incidences in AG(3,q): exact counting, the spectrum of the
incidence bipartite graph, the exact expander-mixing bound, and covering
bounds for families of planes (or of lines in the plane).

All accept/reject comparisons are exact: the mixing inequality is decided
by comparing squared rationals (lambda^2 = (q+1)/(q^2+q+1) is rational),
and floats appear only in reported values and the numeric eigenvalue
cross-check.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geom import LineFamily, MismatchedField, PointSet, affine_space
from .gf import block_len


class FieldTooLarge(ValueError):
    pass


class OutOfRange(ValueError):
    pass


class TooFewPlanes(ValueError):
    pass


def n_lines(q: int) -> int:
    """Number of lines of AG(3,q)."""
    return q ** 4 + q ** 3 + q ** 2


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

@dataclass
class IncidenceStats:
    q: int
    n_points: int
    n_lines: int
    incidences: int

    def __post_init__(self):
        q = self.q
        cap = min(self.n_points * (q * q + q + 1), self.n_lines * q)
        if self.incidences > cap:
            raise AssertionError(f"{self.incidences} incidences exceed the cap {cap}")


def count_incidences(P: PointSet, L: LineFamily) -> IncidenceStats:
    """Exact |{(p, l) : p in P, l in L, p on l}| in AG(3,q); MismatchedField
    for points or lines of any other space."""
    sp = L.space
    if (P.q, P.n) != (sp.q, sp.n) or sp.n != 3:
        raise MismatchedField(f"points over q={P.q},n={P.n}; lines over q={sp.q},n={sp.n}; "
                              "incidences are counted in AG(3,q)")
    step = block_len(8 * sp.q)  # a line's q int64 points
    total = sum(int(P.mask[sp.line_points(*L.lines[start:start + step].T)].sum())
                for start in range(0, len(L.lines), step))
    return IncidenceStats(sp.q, len(P), len(L), total)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

@dataclass
class SpectrumReport:
    q: int
    sigma1: float
    sigma2: float
    lam: float
    d_points: int  # lines through a point
    d_lines: int   # points on a line
    numeric_sigma1: float | None = None
    numeric_sigma2: float | None = None


_NUMERIC_Q_LIMIT = 9


def incidence_matrix(q: int) -> np.ndarray:
    """Dense 0/1 matrix, rows = points of AG(3,q), columns = lines."""
    sp = affine_space(q, 3)
    lines = sp.all_lines()
    N = np.zeros((sp.npoints, len(lines)), dtype=np.int64)
    N[sp.line_points(*lines.T), np.arange(len(lines))[:, None]] = 1
    return N


def gram_identity_check(q: int) -> bool:
    """Entrywise check of N N^T = (q^2+q) I + AllOnes."""
    N = incidence_matrix(q)
    G = N @ N.T
    expect = (q * q + q) * np.eye(q ** 3, dtype=np.int64) + np.ones(
        (q ** 3, q ** 3), dtype=np.int64
    )
    return bool((G == expect).all())


def incidence_spectrum(q: int, numeric: bool | None = None) -> SpectrumReport:
    """Closed-form singular values sigma1 = sqrt(q(q^2+q+1)) and
    sigma2 = sqrt(q^2+q) (from the Gram identity), with a numeric
    eigenvalue cross-check of N N^T for small q."""
    if numeric is None:
        numeric = q <= _NUMERIC_Q_LIMIT
    s1 = math.sqrt(q * (q * q + q + 1))
    s2 = math.sqrt(q * q + q)
    rep = SpectrumReport(
        q=q, sigma1=s1, sigma2=s2, lam=s2 / s1,
        d_points=q * q + q + 1, d_lines=q,
    )
    if numeric:
        if q > _NUMERIC_Q_LIMIT:
            raise FieldTooLarge(f"numeric spectrum limited to q <= {_NUMERIC_Q_LIMIT}")
        N = incidence_matrix(q)
        evals = np.linalg.eigvalsh((N @ N.T).astype(np.float64))
        evals = np.sort(evals)[::-1]
        rep.numeric_sigma1 = float(math.sqrt(max(evals[0], 0.0)))
        rep.numeric_sigma2 = float(math.sqrt(max(evals[1], 0.0)))
        for got, want in ((rep.numeric_sigma1, s1), (rep.numeric_sigma2, s2)):
            if not abs(got - want) < 1e-8:
                raise AssertionError(f"numeric singular value {got} is not {want}")
    return rep


# ---------------------------------------------------------------------------
# mixing bound
# ---------------------------------------------------------------------------

def _mixing_pieces(nP: int, nL: int, q: int):
    npts = q ** 3
    nlns = n_lines(q)
    if not 0 <= nP <= npts:
        raise OutOfRange(f"|P| = {nP} outside [0, {npts}]")
    if not 0 <= nL <= nlns:
        raise OutOfRange(f"|L| = {nL} outside [0, {nlns}]")
    alpha = Fraction(nP, npts)
    beta = Fraction(nL, nlns)
    eG = q * nlns
    lam2 = Fraction(q + 1, q * q + q + 1)
    X = alpha * beta * (1 - alpha) * (1 - beta)  # discrepancy term, squared/lam2
    return alpha, beta, eG, lam2, X


def mixing_incidence_bound(nP: int, nL: int, q: int) -> dict:
    """Exact finite-q upper bound on I(P,L):
    e(G) * (alpha*beta + lambda*sqrt(alpha*beta*(1-alpha)*(1-beta))).

    Returns the bound as a float plus its exact pieces (main term rational,
    discrepancy term as an exact squared rational) and the asymptotic form
    |P||L|/q^2 + q*sqrt(|P||L|(1-|P|/q^3)(1-|L|/q^4)) for reference."""
    alpha, beta, eG, lam2, X = _mixing_pieces(nP, nL, q)
    main = eG * alpha * beta
    disc_sq = eG * eG * lam2 * X
    bound = float(main) + math.sqrt(float(disc_sq))
    asymptotic = nP * nL / q ** 2 + q * math.sqrt(
        nP * nL * max(1 - nP / q ** 3, 0.0) * max(1 - nL / q ** 4, 0.0)
    )
    return {
        "q": q,
        "nP": nP,
        "nL": nL,
        "bound": bound,
        "main_term": main,
        "discrepancy_term_squared": disc_sq,
        "asymptotic_form": asymptotic,
    }


def mixing_bound_holds(I: int, nP: int, nL: int, q: int) -> bool:
    """Exact decision of I <= e(G)(ab + lam*sqrt(ab(1-a)(1-b)))."""
    alpha, beta, eG, lam2, X = _mixing_pieces(nP, nL, q)
    slack = Fraction(I) - eG * alpha * beta
    if slack <= 0:
        return True
    return slack * slack <= eG * eG * lam2 * X


def _discrepancy_sides(I: int, nP: int, nL: int, q: int):
    """|I/e(G) - alpha*beta| and its bound squared, lam^2*ab(1-a)(1-b)."""
    alpha, beta, eG, lam2, X = _mixing_pieces(nP, nL, q)
    return abs(Fraction(I, eG) - alpha * beta), lam2 * X


def mixing_discrepancy_holds(I: int, nP: int, nL: int, q: int) -> bool:
    """Exact decision of |I/e(G) - ab| <= lam*sqrt(ab(1-a)(1-b)), by
    comparing squared rationals."""
    lhs, rhs_sq = _discrepancy_sides(I, nP, nL, q)
    return lhs * lhs <= rhs_sq


def mixing_discrepancy_check(P: PointSet, L: LineFamily) -> dict:
    """Both sides of |e(S,T)/e(G) - alpha*beta| <= lam*sqrt(...), exactly.

    Decided by mixing_discrepancy_holds; raises AssertionError on
    violation (which would indicate a counting or spectrum bug)."""
    stats = count_incidences(P, L)
    q = stats.q
    args = (stats.incidences, stats.n_points, stats.n_lines, q)
    lhs, rhs_sq = _discrepancy_sides(*args)
    holds = mixing_discrepancy_holds(*args)
    if not holds:
        raise AssertionError(f"mixing inequality violated at q={q}: lhs={float(lhs)}, "
                             f"rhs={math.sqrt(float(rhs_sq))}")
    return {
        "q": q,
        "incidences": stats.incidences,
        "lhs": float(lhs),
        "rhs": math.sqrt(float(rhs_sq)),
        "lhs_squared": lhs * lhs,
        "rhs_squared": rhs_sq,
        "holds": holds,
    }


# ---------------------------------------------------------------------------
# covering bounds for kq planes (or kq lines of the plane)
# ---------------------------------------------------------------------------

def generate_planes(q: int, count: int, kind: str, seed: int = 0) -> np.ndarray:
    """The ids of count distinct planes of AG(3,q): 'pencil' (all through
    one line, then the rest in id order), 'parallel' (the first ids, which
    share a normal), or 'random' (seeded sample)."""
    sp = affine_space(q, 3)
    nplanes = sp.ndirs * q
    if not 0 <= count <= nplanes:
        raise OutOfRange(f"{count} planes requested; {nplanes} exist")
    if kind == "parallel":
        return np.arange(count)
    if kind == "pencil":
        # the planes through the line {t*(1,0,0)}, then the others in id order
        pencil = sp.line_planes(sp.proj.ids((1, 0, 0)), 0)
        rest = np.ones(nplanes, dtype=bool)
        rest[pencil] = False
        return np.concatenate([pencil, np.flatnonzero(rest)])[:count]
    if kind == "random":
        rng = random.Random(seed)
        return np.array(rng.sample(range(nplanes), count), dtype=np.int64)
    raise ValueError(f"unknown plane generator {kind!r}")


def _cover_bound(count: int, q: int, n: int) -> Fraction:
    """(1 - 1/(k - 1 + 1/k)) * q^n for k = count/q, exact."""
    k = Fraction(count, q)
    return (1 - 1 / (k - 1 + 1 / k)) * q ** n


def cover_bound_holds(covered: int, count: int, q: int, n: int) -> bool:
    """Exact decision of covered >= (1 - 1/(k - 1 + 1/k)) * q^n, the cover
    bound for count = kq planes of AG(3,q) (lines of AG(2,q)), k > 1."""
    return covered >= _cover_bound(count, q, n)


def cover_fraction_check(q: int, planes=None, lines: LineFamily | None = None) -> dict:
    """For kq planes of AG(3,q) (or kq lines of AG(2,q)), check that the
    covered-point count is at least (1 - 1/(k - 1 + 1/k)) * q^n, k > 1
    held as an exact rational k = count/q; AssertionError when it is not."""
    if (planes is None) == (lines is None):
        raise ValueError("pass exactly one of planes / lines")
    if planes is not None:
        sp = affine_space(q, 3)
        members = np.asarray(planes, dtype=np.int64)
        covered = PointSet(q, 3)
        covered.mask[sp.plane_points(members)] = True
    else:
        sp = lines.space
        if sp.n != 2 or sp.q != q:
            raise MismatchedField(f"lines over q={sp.q},n={sp.n}; need q={q},n=2")
        members = lines.lines
        covered = lines.union_points()
    k = Fraction(len(members), q)
    if k <= 1:
        raise TooFewPlanes(f"need more than q objects, got {len(members)}")
    bound = _cover_bound(len(members), q, sp.n)
    holds = cover_bound_holds(len(covered), len(members), q, sp.n)
    if not holds:
        raise AssertionError(f"cover bound violated: {len(covered)} < {float(bound)}")
    return {
        "q": q,
        "kind": "planes" if planes is not None else "lines",
        "count": len(members),
        "k": k,
        "covered": len(covered),
        "bound": bound,
        "bound_float": float(bound),
        "holds": holds,
    }
