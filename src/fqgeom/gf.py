"""Exact finite-field arithmetic for GF(p^k).

Elements are plain ints in [0, q): the coefficient vector of the element
written in the polynomial basis, packed base-p (least significant digit =
constant coefficient), so the prime subfield's element c has code c.  All
operations go through a FieldCtx, which is immutable after construction
and safe to share.

Every FieldCtx has order at most TABLE_LIMIT and holds the array kernel:
numpy lookup tables over element codes, in the manner of the galois
library's lookup-table fields, that geometry, elimination and
interpolation index with whole arrays.  Each scalar method reads one
entry of them.  They are built once, from the reference arithmetic
``_add_raw``/``_mul_raw``.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


class NonPrime(ValueError):
    pass


class DegreeTooLarge(ValueError):
    pass


class NoIrreducibleFound(RuntimeError):
    pass


class WrongDegree(ValueError):
    pass


class WidthExceeded(ValueError):
    pass


# largest field order; the add, mul and pow tables are q x q
TABLE_LIMIT = 1 << 10

# the signed integer dtypes that exact array arithmetic runs in, narrowest
# first; a float64 product is exact while every partial sum stays in 2^53
INT_WIDTHS = (np.int16, np.int32, np.int64)
FLOAT_EXACT = 1 << 53


def exact_dtype(bound: int, widths=INT_WIDTHS) -> np.dtype:
    """The first dtype of widths that holds every integer of absolute value
    at most bound, a proven bound on a computation's intermediate values:
    an integer dtype up to its largest value, float64 up to FLOAT_EXACT.
    WidthExceeded, not an assert, when none does."""
    for dt in map(np.dtype, widths):
        if bound <= (FLOAT_EXACT if dt.kind == "f" else np.iinfo(dt).max):
            return dt
    raise WidthExceeded(f"bound {bound} exceeds every width of "
                        f"{', '.join(np.dtype(dt).name for dt in widths)}")


# every loop whose arrays grow with q takes its items in blocks of at most
# this many bytes of its largest per-item array
BLOCK_BYTES = 1 << 18


def block_len(item_bytes: int) -> int:
    """Items per block of a loop that holds item_bytes bytes an item."""
    return max(1, BLOCK_BYTES // item_bytes)


# the prime bases up to 41 make Miller-Rabin exact below this bound
# (Sorenson and Webster, 2015)
MILLER_RABIN_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; DegreeTooLarge from MILLER_RABIN_LIMIT on."""
    if n >= MILLER_RABIN_LIMIT:
        raise DegreeTooLarge(f"primality of {n} is undecided over {MILLER_RABIN_LIMIT}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or n in bases:
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    for a in bases:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):  # x runs through a^d, a^(2d), ..., a^(2^(s-1) d)
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


# -- polynomial helpers over GF(p); coefficient lists, low degree first --

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, mod, p):
    # mod is monic
    a = list(a)
    dm = len(mod) - 1
    while len(a) > dm:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for i in range(dm):
                a[shift + i] = (a[shift + i] - c * mod[i]) % p
        a.pop()
    return _poly_trim(a)


def _monic_polys(deg, p):
    for code in range(p ** deg):
        coeffs = []
        c = code
        for _ in range(deg):
            coeffs.append(c % p)
            c //= p
        yield coeffs + [1]


def _is_irreducible(mod, p):
    deg = len(mod) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for div in _monic_polys(d, p):
            if not _poly_mod(mod, div, p):
                return False
    return True


class FieldCtx:
    """Arithmetic context for GF(p^k); element codes are ints in [0, q)."""

    def __init__(self, p: int, k: int):
        # the order first: trial division of a large p would take minutes
        q = p ** k
        if not 2 <= q <= TABLE_LIMIT:
            raise DegreeTooLarge(f"field order {p}^{k} outside 2..{TABLE_LIMIT}")
        if not is_prime(p):
            raise NonPrime(f"p = {p} is not prime")
        self.p = p
        self.k = k
        self.q = q
        if k == 1:
            self.modulus = (0, 1)  # x, unused
        else:
            self.modulus = None
            for mod in _monic_polys(k, p):
                if _is_irreducible(mod, p):
                    self.modulus = tuple(mod)
                    break
            if self.modulus is None:  # pragma: no cover - cannot happen
                raise NoIrreducibleFound(f"no irreducible of degree {k} over GF({p})")
        self._build_arrays()

    # -- encoding --

    def decode(self, a: int):
        """Element code -> coefficient tuple (length k, base-p digits)."""
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def encode(self, coeffs) -> int:
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.p + (c % self.p)
        return a

    # -- arithmetic --

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def _add_raw(self, a, b):
        """Digit-wise sum; also elementwise on numpy arrays of codes."""
        out = 0
        mul = 1
        for _ in range(self.k):
            out = out + ((a + b) % self.p) * mul
            a, b = a // self.p, b // self.p
            mul *= self.p
        return out

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def _mul_raw(self, a, b):
        prod = _poly_mul(list(self.decode(a)), list(self.decode(b)), self.p)
        return self.encode(_poly_mod(prod, list(self.modulus), self.p))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        return int(self.pow_table[a, e % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self.inv_table[a])

    # -- array kernel: elementwise on numpy arrays of codes, broadcasting --

    def dot(self, u, v):
        """Sum over the last axis of the products of u and v, the other axes
        broadcast against each other; an int for two vectors."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        acc = 0
        for i in range(u.shape[-1]):
            acc = self.add_table[acc, self.mul_table[u[..., i], v[..., i]]]
        return int(acc) if np.ndim(acc) == 0 else acc

    def conj(self, a):
        """Elementwise conjugate a -> a^r of GF(r^2), r = sqrt(q) = p^(k/2);
        WrongDegree for odd k."""
        if self.k % 2:
            raise WrongDegree(f"conjugation needs even k, not k = {self.k}")
        return self.pow_table[a, self.p ** (self.k // 2)]

    def vmul(self, a, b):
        """Elementwise product a*b."""
        if self.k == 1:
            return (a * b) % self.p
        return self.mul_table[a, b]

    def vsubmul(self, a, b, c):
        """Elementwise a - b*c; on prime fields one reduction mod p."""
        if self.k == 1:
            return (a - b * c) % self.p
        return self.add_table[a, self.neg_table[self.mul_table[b, c]]]

    def _build_arrays(self):
        """The q x q add, mul and pow tables (pow_table[a, e] = a^e for
        0 <= e < q, with 0^0 = 1) and the neg and inv vectors (inv[0] = 0).
        Addition is the reference applied to whole arrays; multiplication
        goes through the powers of a generator of the multiplicative group,
        each taken with the reference _mul_raw."""
        q = self.q
        codes = np.arange(q, dtype=np.int64)
        add = self._add_raw(codes[:, None], codes[None, :])
        # exp lists the powers of g; stop at the first g whose powers reach
        # all q-1 units (g = 1 for q = 2)
        for g in range(min(2, q - 1), q):
            exp = [1]
            while (nxt := self._mul_raw(exp[-1], g)) != 1:
                exp.append(nxt)
            if len(exp) == q - 1:
                break
        exp = np.array(exp, dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        mul = exp[(log[:, None] + log[None, :]) % (q - 1)]
        mul[0, :] = mul[:, 0] = 0
        pw = exp[(log[:, None] * codes[None, :]) % (q - 1)]
        pw[0, :] = 0
        pw[0, 0] = 1
        inv = exp[-log % (q - 1)]
        inv[0] = 0
        self.add_table, self.mul_table, self.pow_table = add, mul, pw
        self.neg_table = np.argmax(add == 0, axis=1)
        self.inv_table = inv


@lru_cache(maxsize=None)
def make_field(p: int, k: int = 1) -> FieldCtx:
    """Field context for GF(p^k) with a deterministic irreducible modulus."""
    return FieldCtx(p, k)


def prime_power(q: int) -> tuple:
    """(p, k) with q = p^k; NonPrime when q is not a prime power.  p is the
    k-th root of q for the largest k that has one, tested by is_prime."""
    if q < 2:
        raise NonPrime(f"{q} is not a prime power")
    for k in range(q.bit_length(), 0, -1):
        # Newton's steps for the integer k-th root, from above it
        p = 1 << -(-q.bit_length() // k)
        while (r := ((k - 1) * p + q // p ** (k - 1)) // k) < p:
            p = r
        if p ** k == q:
            break
    if not is_prime(p):
        raise NonPrime(f"{q} is not a prime power")
    return p, k


def field_of_order(q: int) -> FieldCtx:
    """GF(q) for q a prime power (p deduced from q), cached by make_field."""
    if q > TABLE_LIMIT:  # refused before the trial division for p
        raise DegreeTooLarge(f"field order {q} over {TABLE_LIMIT}")
    return make_field(*prime_power(q))
