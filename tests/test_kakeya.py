import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fqgeom.geom import PointSet, affine_space
from fqgeom.kakeya import (
    EvenFieldUnsupported,
    KakeyaWitness,
    MissingDirections,
    RetryExhausted,
    build_quadratic_residue_set,
    build_thin_kakeya_set,
    counting_inequality_holds,
    fractional_coefficient,
    fractional_pipeline,
    integer_multiplicity_bound,
    optimize_fractional_bound,
    qr_set_size,
    sample_fractional_subset,
    verify_kakeya,
)
from fqgeom.kakeya import _within_window
from fqgeom.poly import DegreeCap, MonomialBasis, count_capped_monomials


def test_full_space_is_kakeya():
    res = verify_kakeya(PointSet.full(3))
    assert isinstance(res, KakeyaWitness)
    assert len(res.lines) == 13


def test_empty_set_misses_every_direction():
    res = verify_kakeya(PointSet(3, 3))
    assert isinstance(res, MissingDirections)
    assert len(res.directions) == 13


@pytest.mark.parametrize("q", [3, 5, 7])
def test_qr_construction_verified(q):
    K = build_quadratic_residue_set(q)
    assert len(K) == qr_set_size(q)
    res = verify_kakeya(K)
    assert isinstance(res, KakeyaWitness)
    sp = affine_space(q, 3)
    for d, (dd, base) in res.lines.items():
        assert dd == d
        assert all(K.mask[p] for p in sp.line_points(d, base))


def test_qr_line_identity():
    # for direction (b1,b2,1), base ((b1/2)^2, (b2/2)^2, 0): each coordinate
    # along the line is a perfect square shifted by t^2
    q = 7
    from fqgeom.gf import field_of_order

    ctx = field_of_order(q)
    squares = {ctx.mul(y, y) for y in range(q)}
    inv2 = ctx.inv(2)
    for b in range(q):
        a = ctx.mul(ctx.mul(b, inv2), ctx.mul(b, inv2))
        for t in range(q):
            val = ctx.add(a, ctx.add(ctx.mul(t, b), ctx.mul(t, t)))
            assert val in squares


def test_thin_construction_verified():
    for q in (3, 5):
        T = build_thin_kakeya_set(q)
        assert isinstance(verify_kakeya(T), KakeyaWitness)
        assert len(T) <= q * (q * q + q + 1)


def test_even_field_rejected():
    with pytest.raises(EvenFieldUnsupported):
        build_quadratic_residue_set(4)


def test_integer_multiplicity_bound_values():
    assert integer_multiplicity_bound(3) == 7  # ceil(26/4)
    assert integer_multiplicity_bound(3, 3, 1) == math.comb(3 + 2, 3) // 1
    # m=2 asymptotics approach 5/24
    for q in (101, 211):
        b = integer_multiplicity_bound(q)
        assert abs(b / q ** 3 - 5 / 24) < 0.05


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27])
def test_thin_set_is_the_residue_set(q):
    # one line per direction fills exactly the residue set
    assert np.array_equal(build_thin_kakeya_set(q).mask, build_quadratic_residue_set(q).mask)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_constructions_meet_integer_bound(q):
    assert qr_set_size(q) >= integer_multiplicity_bound(q)


def test_leading_term_values():
    # the leading q^3 coefficient of N_q(3,m), (-2m^3+9m^2-9m+3)/6 for
    # 1 <= m <= 2, is fractional_coefficient(m, 1) times 3m - 2
    assert fractional_coefficient(2, 1) * (3 * 2 - 2) == Fraction(5, 6)
    assert fractional_coefficient(1, 1) * (3 * 1 - 2) == Fraction(1, 6)
    from fqgeom.poly import count_capped_monomials

    for q in (101, 211):
        got = count_capped_monomials(3, q, 2) / q ** 3
        assert abs(got - 5 / 6) < 0.05


def test_fractional_coefficient_branches():
    assert fractional_coefficient(2, 1) == Fraction(5, 24)
    assert fractional_coefficient(2, 2) == Fraction(5, 24)  # branches meet
    assert fractional_coefficient(1, 1) == Fraction(1, 6)
    with pytest.raises(ValueError):
        fractional_coefficient(Fraction(5, 2), 1)
    with pytest.raises(ValueError):
        fractional_coefficient(1, 3)


def test_optimize_fractional_bound():
    m, c, detail = optimize_fractional_bound()
    assert abs(c - 0.21076) < 5e-5
    assert abs(m - (9 + math.sqrt(33)) / 8) < 1e-6
    assert c > 5 / 24


def test_sampler_recount_and_window():
    q = 7
    K = build_quadratic_residue_set(q)
    w = verify_kakeya(K)
    s = sample_fractional_subset(K, w, Fraction(1, 2), seed=1)
    sp = affine_space(q, 3)
    # subset relation and recount
    assert all(not s.subset.mask[i] or K.mask[i] for i in range(q ** 3))
    delta = q ** (-1 / 3)
    assert abs(s.size - 0.5 * len(K)) < delta * 0.5 * len(K)
    for ln, c in s.line_counts.items():
        recount = sum(1 for p in sp.line_points(*ln) if s.subset.mask[p])
        assert recount == c
        assert abs(c - 0.5 * q) < delta * 0.5 * q
    # the seeded draw is pinned: the repair pass offers rng.choice each
    # line's points in t order
    assert (s.size, s.attempts) == (75, 1)
    indices = str(s.subset.indices().tolist()).encode()
    assert hashlib.sha256(indices).hexdigest()[:16] == "894e5842869ae119"


def test_integer_window_matches_fraction_definition():
    # the sampler decides |c - alpha*s| < alpha*s*q^(-1/3) on integers; the
    # definition, cubed in exact rationals, must agree at every count c
    alphas = [Fraction(j, 20) for j in range(1, 21)] + [Fraction(1, 9), Fraction(4, 5)]
    for q in (3, 5, 7, 9, 11, 13, 27, 31):
        for alpha in alphas:
            for s in (q, qr_set_size(q)):
                target = alpha * s
                bound = target ** 3 / q
                inside = [abs(c - target) ** 3 < bound for c in range(s + 1)]
                got = [_within_window(c, alpha, s, q) for c in range(s + 1)]
                assert got == inside, (q, alpha, s)


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(3, 2)])
def test_sampler_rejects_alpha_outside_unit_interval(alpha):
    # an explicit ValueError, which `python -O` keeps
    K = build_quadratic_residue_set(5)
    with pytest.raises(ValueError, match="alpha"):
        sample_fractional_subset(K, verify_kakeya(K), alpha, seed=0)


def test_sampler_alpha_one_trivial():
    q = 5
    K = build_quadratic_residue_set(q)
    w = verify_kakeya(K)
    s = sample_fractional_subset(K, w, Fraction(1), seed=9)
    assert s.size == len(K)


def test_sampler_without_witness_lines():
    # an empty line list leaves only the size window to check
    q = 5
    K = build_quadratic_residue_set(q)
    s = sample_fractional_subset(K, KakeyaWitness(q, K, {}), Fraction(1, 2), seed=3)
    assert s.line_counts == {}
    assert abs(s.size - 0.5 * len(K)) < q ** (-1 / 3) * 0.5 * len(K)


def test_sampler_retry_exhausted_on_empty_window():
    # alpha*q = 1/3 with window radius ~0.23: no integer qualifies
    q = 3
    K = build_quadratic_residue_set(q)
    w = verify_kakeya(K)
    with pytest.raises(RetryExhausted):
        sample_fractional_subset(K, w, Fraction(1, 9), seed=0, retry_cap=20)


def test_sampler_deterministic():
    q = 7
    K = build_quadratic_residue_set(q)
    w = verify_kakeya(K)
    a = sample_fractional_subset(K, w, Fraction(1, 2), seed=4)
    b = sample_fractional_subset(K, w, Fraction(1, 2), seed=4)
    assert np.array_equal(a.subset.mask, b.subset.mask) and a.size == b.size


@pytest.mark.parametrize("q,u,alpha", [
    (5, 1, Fraction(1, 2)),
    (7, 1, Fraction(1, 2)),
    (5, 2, Fraction(1, 3)),
    (5, 1, Fraction(0)),
    (5, 1, Fraction(1)),
])
def test_pipeline_reports_honest_stage(q, u, alpha):
    rep = fractional_pipeline(q, u, alpha, seed=1)
    assert rep.stage in (
        "counting-not-in-paradox-regime",
        "sampler-exhausted",
        "restriction-survives",
        "g0-vanishes-on-all-directions",
    )
    if rep.stage == "counting-not-in-paradox-regime":
        assert rep.detail["counting_inequality_holds"]
        assert counting_inequality_holds(q, u, alpha, rep.size_K)
    d = rep.to_dict()
    assert d["q"] == q and d["u"] == u


def test_pipeline_bad_params():
    with pytest.raises(ValueError):
        fractional_pipeline(5, 3, Fraction(1, 2), seed=0)
    with pytest.raises(ValueError):
        fractional_pipeline(5, 1, Fraction(3, 2), seed=0)
    with pytest.raises(ValueError):
        fractional_pipeline(5, 1, Fraction(1, 2), seed=0, construction="nope")


def _golden_pipeline_cases():
    """(q, u, alpha) of every committed pipeline report."""
    cases = set()
    for path in (Path(__file__).parent / "data").glob("pipeline_*.json"):
        doc = json.loads(path.read_text())
        for r in doc if isinstance(doc, list) else [row["values"] for row in doc["rows"]]:
            cases.add((r["q"], r["u"], Fraction(r["alpha"])))
    return sorted(cases)


@pytest.mark.parametrize("q,u,alpha", _golden_pipeline_cases())
def test_closed_form_count_matches_basis_on_golden_cases(q, u, alpha):
    cap = DegreeCap.fractional(u, alpha)
    assert count_capped_monomials(3, q, cap) == len(MonomialBasis(3, q, cap)) > 0


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_empty_cap_counts_no_monomials(q):
    """At alpha = 4/5, u = 1 the cap is <= 0 for q <= 7: the pipeline counts
    no monomial, as the listed basis has none, and the counting inequality
    holds for any set."""
    alpha = Fraction(4, 5)
    cap = DegreeCap.fractional(1, alpha)
    assert not cap.allows_total(0, q)
    assert len(MonomialBasis(3, q, cap)) == 0
    assert counting_inequality_holds(q, 1, alpha, 1)
    if q % 2:
        rep = fractional_pipeline(q, 1, alpha, seed=1, retry_cap=50)
        assert rep.stage == "counting-not-in-paradox-regime"
        assert rep.detail["monomials"] == 0
        assert rep.detail["counting_inequality_holds"] is True
