"""The array sampler, the array residue set and the array prime-power test
against scalar references written out from their definitions."""
import random
from fractions import Fraction

import numpy as np
import pytest

from fqgeom.geom import affine_space
from fqgeom.gf import (
    MILLER_RABIN_LIMIT,
    DegreeTooLarge,
    NonPrime,
    field_of_order,
    prime_power,
)
from fqgeom.kakeya import (
    RetryExhausted,
    _uniforms,
    _within_window,
    build_quadratic_residue_set,
    sample_fractional_subset,
    verify_kakeya,
)


def reference_sampler(K, witness, alpha, seed, retry_cap):
    """The scalar sampler: one rng.random() per point of K, then each line
    re-summed and nudged in witness order.  Returns (S, counts, attempts)
    or the RetryExhausted text."""
    alpha = Fraction(alpha)
    q = K.q
    sp = affine_space(q, K.n)
    rng = random.Random(seed)
    kpts = K.indices().tolist()
    lines = list(witness.lines.values())
    line_pts = sp.line_points(*np.array(lines, dtype=np.int64).reshape(-1, 2).T)
    a = float(alpha)
    target = a * q
    inwin = [_within_window(c, alpha, q, q) for c in range(q + 1)]
    for attempt in range(1, retry_cap + 1):
        chosen = [p for p in kpts if rng.random() < a] if alpha < 1 else kpts
        buf = bytearray(K.mask.size)
        for p in chosen:
            buf[p] = 1
        for pts in line_pts.tolist():
            c = sum(map(buf.__getitem__, pts))
            for _ in range(q + 1):
                if inwin[c]:
                    break
                if c < target:
                    off = [p for p in pts if not buf[p]]
                    if not off:
                        break
                    buf[rng.choice(off)] = 1
                    c += 1
                else:
                    on = [p for p in pts if buf[p]]
                    if not on:
                        break
                    buf[rng.choice(on)] = 0
                    c -= 1
        S = np.frombuffer(buf, dtype=bool)
        if not _within_window(int(S.sum()), alpha, len(kpts), q):
            continue
        counts = S[line_pts].sum(axis=1).tolist()
        if all(inwin[c] for c in counts):
            return S.tolist(), dict(zip(lines, counts)), attempt
    return f"no acceptable subset in {retry_cap} draws (alpha={alpha}, q={q})"


SAMPLER_CASES = [(5, Fraction(4, 5)), (7, Fraction(1, 2)), (9, Fraction(1, 2)),
                 (9, Fraction(1, 3)), (11, Fraction(1, 2)), (13, Fraction(1, 2)),
                 (5, Fraction(1)), (13, Fraction(1)),
                 (3, Fraction(1, 9))]  # an empty integer window: nudges hit the cap


def test_sampler_matches_scalar_reference():
    """Same S, counts and attempts, or the same RetryExhausted text, for 30
    seeds of each case; caps of 1 to 12 draws make some seeds run out."""
    outcomes = {}
    for q, alpha in SAMPLER_CASES:
        K = build_quadratic_residue_set(q)
        w = verify_kakeya(K)
        for seed in range(30):
            cap = 1 + seed % 12
            want = reference_sampler(K, w, alpha, seed, cap)
            try:
                s = sample_fractional_subset(K, w, alpha, seed, retry_cap=cap)
            except RetryExhausted as e:
                assert str(e) == want, (q, alpha, seed)
                outcomes.setdefault("exhausted", []).append(q)
                continue
            got = (s.subset.mask.tolist(), s.line_counts, s.attempts)
            assert got == want, (q, alpha, seed)
            assert s.size == sum(want[0])
            outcomes.setdefault("accepted", []).append(q)
    assert {"accepted", "exhausted"} <= set(outcomes)
    assert len(set(outcomes["accepted"])) > 2  # not only the smallest fields


@pytest.mark.parametrize("n", [0, 1, 2, 7, 1000])
def test_uniforms_are_the_random_stream(n):
    """One getrandbits call gives the next n rng.random() values exactly and
    leaves the generator where n calls would."""
    batched, scalar = random.Random(n), random.Random(n)
    got = _uniforms(batched, n)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tolist() == [scalar.random() for _ in range(n)]
    assert batched.getstate() == scalar.getstate()
    assert batched.random() == scalar.random()


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27, 49])
def test_residue_set_matches_definition(q):
    """(x1, x2, t) with x1 + t^2 and x2 + t^2 squares, or t = 0, through
    scalar field operations."""
    ctx = field_of_order(q)
    squares = {ctx.mul(y, y) for y in range(ctx.q)}
    want = []
    for t in range(q):
        t2 = ctx.mul(t, t)
        good = [x for x in range(q) if t == 0 or ctx.add(x, t2) in squares]
        for x1 in good:
            for x2 in good:
                want.append(x1 + q * x2 + q * q * t)
    assert build_quadratic_residue_set(q).indices().tolist() == sorted(want)


def test_prime_power_matches_trial_division():
    """Every q below 10^5 against its least prime factor from a sieve."""
    limit = 10 ** 5
    least = np.arange(limit)
    for d in range(2, int(limit ** 0.5) + 1):
        if least[d] == d:
            hits = least[d * d::d]
            hits[hits == np.arange(d * d, limit, d)] = d
    for q in range(-2, limit):
        if q < 2:
            want = None
        else:
            p, k, r = int(least[q]), 0, q
            while r % p == 0:
                r, k = r // p, k + 1
            want = (p, k) if r == 1 else None
        try:
            got = prime_power(q)
        except NonPrime:
            got = None
        assert got == want, q


def test_prime_power_large_orders():
    # Carmichael numbers and strong pseudoprimes to several small bases
    for q in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(NonPrime):
            prime_power(q)
    p = 2 ** 61 - 1
    assert prime_power(p ** 3) == (p, 3)
    assert prime_power(3 ** 200) == (3, 200)
    assert prime_power(10 ** 18 + 3) == (10 ** 18 + 3, 1)
    with pytest.raises(NonPrime):
        prime_power(3 * p)
    # 2^89 - 1 is prime, but past the bound Miller-Rabin is not exact
    assert 2 ** 89 - 1 > MILLER_RABIN_LIMIT
    with pytest.raises(DegreeTooLarge):
        prime_power(2 ** 89 - 1)
