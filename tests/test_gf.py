import os
import subprocess
import sys
from math import isqrt

import numpy as np
import pytest

import fqgeom
from fqgeom import gf
from fqgeom.gf import (
    DegreeTooLarge,
    NonPrime,
    WrongDegree,
    field_of_order,
    is_prime,
    make_field,
)

FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (2, 5)]


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(25):
        assert is_prime(n) == (n in primes)


@pytest.mark.parametrize("p,k", FIELDS)
def test_field_axioms_exhaustive(p, k):
    ctx = make_field(p, k)
    q = ctx.q
    els = list(range(q))
    for a in els:
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.add(a, int(ctx.neg_table[a])) == 0
        if a != 0:
            assert ctx.mul(a, ctx.inv(a)) == 1
    for a in els:
        for b in els:
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.add(ctx.add(a, b), int(ctx.neg_table[b])) == a
    for a in els[: min(q, 8)]:
        for b in els[: min(q, 8)]:
            for c in els[: min(q, 8)]:
                assert ctx.mul(a, ctx.add(b, c)) == ctx.add(
                    ctx.mul(a, b), ctx.mul(a, c)
                )
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


@pytest.mark.parametrize("p,k", FIELDS)
def test_array_tables_match_scalar_reference(p, k):
    ctx = make_field(p, k)
    q = ctx.q
    for a in range(q):
        assert ctx._add_raw(a, int(ctx.neg_table[a])) == 0
        if a:
            assert ctx._mul_raw(a, int(ctx.inv_table[a])) == 1
        acc = 1
        for e in range(q):
            assert ctx.pow_table[a, e] == acc  # 0^0 = 1
            acc = ctx._mul_raw(acc, a)
        for b in range(q):
            assert ctx.add_table[a, b] == ctx._add_raw(a, b)
            assert ctx.mul_table[a, b] == ctx._mul_raw(a, b)


@pytest.mark.parametrize("p,k", FIELDS)
def test_pow_matches_repeated_mul(p, k):
    ctx = make_field(p, k)
    for a in range(ctx.q):
        acc = 1
        for e in range(1, 6):
            acc = ctx.mul(acc, a)
            assert ctx.pow(a, e) == acc


def test_gf4_modulus_is_lex_first():
    ctx = make_field(2, 2)
    assert ctx.modulus == (1, 1, 1)  # x^2 + x + 1


def test_encode_decode_roundtrip():
    ctx = make_field(3, 2)
    for a in range(ctx.q):
        assert ctx.encode(ctx.decode(a)) == a


@pytest.mark.parametrize("p", [2, 3, 5])
def test_conjugation_is_involution_fixing_prime_subfield(p):
    ctx = make_field(p, 2)
    fixed = 0
    for a in range(ctx.q):
        assert ctx.conj(ctx.conj(a)) == a
        assert ctx.conj(ctx.mul(a, a and 1)) == ctx.mul(ctx.conj(a), a and 1)
        if ctx.conj(a) == a:
            fixed += 1
    assert fixed == p  # the fixed field is GF(p)
    for a in range(ctx.q):
        for b in range(ctx.q):
            assert ctx.conj(ctx.mul(a, b)) == ctx.mul(ctx.conj(a), ctx.conj(b))
            assert ctx.conj(ctx.add(a, b)) == ctx.add(ctx.conj(a), ctx.conj(b))


def test_frobenius_helper():
    ctx = make_field(2, 2)
    for a in range(ctx.q):
        assert ctx.conj(a) == ctx.pow(a, 2)


@pytest.mark.parametrize("q", [4, 9, 16, 25, 64, 81])
def test_conjugation_over_every_square_field(q):
    # a -> a^r, r = sqrt(q), is an involutive automorphism of GF(r^2) that
    # fixes exactly the r elements of GF(r), also for composite r
    ctx = field_of_order(q)
    r = isqrt(q)
    conj = ctx.conj(np.arange(q))
    # elementwise over an array of codes: a^r by the reference multiplication
    ref = []
    for a in range(q):
        x = 1
        for _ in range(r):
            x = ctx._mul_raw(x, a)
        ref.append(x)
    assert conj.tolist() == ref
    assert (conj[conj] == np.arange(q)).all()
    assert (conj[ctx.add_table] == ctx.add_table[conj[:, None], conj[None, :]]).all()
    assert (conj[ctx.mul_table] == ctx.mul_table[conj[:, None], conj[None, :]]).all()
    assert int((conj == np.arange(q)).sum()) == r


@pytest.mark.parametrize("q", [7, 8, 27])
def test_conjugation_needs_even_degree(q):
    with pytest.raises(WrongDegree, match="even k"):
        field_of_order(q).conj(1)


@pytest.mark.parametrize("q", [7, 8, 9])
def test_array_dot_matches_scalar_arithmetic(q):
    ctx = field_of_order(q)
    rng = np.random.default_rng(q)

    def scalar_dot(u, v):
        acc = 0
        for a, b in zip(u, v):
            acc = ctx.add(acc, ctx.mul(a, b))
        return acc

    # (shape of u, shape of v): equal batches, and batches broadcast both ways
    for su, sv in [((4,), (4,)), ((30, 4), (30, 4)), ((30, 3), (3,)),
                   ((5, 1, 4), (7, 4)), ((2, 6, 1, 5), (6, 3, 5))]:
        u = rng.integers(0, q, su)
        v = rng.integers(0, q, sv)
        got = ctx.dot(u, v)
        ub, vb = np.broadcast_arrays(u, v)
        want = [scalar_dot(a, b) for a, b in zip(ub.reshape(-1, su[-1]).tolist(),
                                                 vb.reshape(-1, sv[-1]).tolist())]
        if len(su) == len(sv) == 1:
            assert isinstance(got, int) and got == want[0]
        else:
            assert got.shape == ub.shape[:-1]
            assert got.ravel().tolist() == want


def test_field_of_order():
    assert field_of_order(9).p == 3
    assert field_of_order(9).k == 2
    assert field_of_order(7).k == 1
    with pytest.raises(NonPrime):
        field_of_order(6)
    with pytest.raises(NonPrime):
        field_of_order(12)


def test_large_order_refused_before_prime_search(monkeypatch):
    # 100000000000031 is prime, and trial division up to its square root
    # takes most of a second; orders over TABLE_LIMIT never get that far
    def unsearched(q):
        raise AssertionError("prime_power called")

    monkeypatch.setattr(gf, "prime_power", unsearched)
    for q in (1025, 100000000000031, 1000000000000000003):
        with pytest.raises(DegreeTooLarge):
            field_of_order(q)


def test_errors():
    with pytest.raises(NonPrime):
        make_field(4, 1)
    with pytest.raises(DegreeTooLarge):
        make_field(2, 11)
    with pytest.raises(DegreeTooLarge):
        make_field(1031, 1)
    with pytest.raises(DegreeTooLarge):
        field_of_order(1031)
    with pytest.raises(WrongDegree):
        make_field(3, 1).conj(2)
    with pytest.raises(ZeroDivisionError):
        make_field(5, 1).inv(0)


_LARGE_TABLES_CHILD = """
import numpy as np
from fqgeom.gf import make_field

for p, k in [(3, 5), (3, 6), (2, 10)]:
    ctx = make_field(p, k)
    q = ctx.q
    rows = np.random.default_rng(q).choice(q, 6, replace=False)
    for a in rows.tolist():
        assert ctx.add_table[a].tolist() == [ctx._add_raw(a, b) for b in range(q)]
        assert ctx.mul_table[a].tolist() == [ctx._mul_raw(a, b) for b in range(q)]
        assert ctx._add_raw(a, int(ctx.neg_table[a])) == 0
        assert a == 0 or ctx._mul_raw(a, int(ctx.inv_table[a])) == 1
        acc = 1
        for e in range(q):
            assert ctx.pow_table[a, e] == acc  # 0^0 = 1
            acc = ctx._mul_raw(acc, a)
    print(q)
"""


def test_largest_tables_match_scalar_reference():
    """GF(3^5), GF(3^6) and GF(2^10) build their tables, and seeded rows of
    them equal the reference arithmetic.  In a subprocess, so the q x q
    tables of these fields do not raise the peak RSS of the test process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fqgeom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _LARGE_TABLES_CHILD], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["243", "729", "1024"]
