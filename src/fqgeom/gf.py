"""Exact finite-field arithmetic for GF(p^k).

Elements are plain ints in [0, q): the coefficient vector of the element
written in the polynomial basis, packed base-p (least significant digit =
constant coefficient).  All operations go through a FieldCtx, which is
immutable after construction and safe to share.
"""
from __future__ import annotations

from functools import lru_cache


class NonPrime(ValueError):
    pass


class DegreeTooLarge(ValueError):
    pass


class NoIrreducibleFound(RuntimeError):
    pass


class WrongDegree(ValueError):
    pass


MAX_ORDER = 1 << 20
# full add/mul lookup tables are built below this order (extension fields only)
_TABLE_LIMIT = 256
_INV_TABLE_LIMIT = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
            r = list(mod)
            # remainder of mod by div
            dd = len(div) - 1
            while len(r) > dd:
                c = r[-1]
                if c:
                    shift = len(r) - 1 - dd
                    for i in range(dd):
                        r[shift + i] = (r[shift + i] - c * div[i]) % p
                r.pop()
            if not _poly_trim(r):
                return False
    return True


class FieldCtx:
    """Arithmetic context for GF(p^k); element codes are ints in [0, q)."""

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise NonPrime(f"p = {p} is not prime")
        if not 1 <= k <= 4:
            raise DegreeTooLarge(f"extension degree {k} outside 1..4")
        q = p ** k
        if q > MAX_ORDER:
            raise DegreeTooLarge(f"field order {q} exceeds {MAX_ORDER}")
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
        self._mul_table = None
        self._add_table = None
        self._inv_table = None
        if k > 1 and q <= _TABLE_LIMIT:
            self._build_tables()
        if q <= _INV_TABLE_LIMIT:
            self._inv_table = [0] * q
            for a in range(1, q):
                self._inv_table[a] = self._pow_raw(a, q - 2)

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

    def elements(self):
        return range(self.q)

    # -- arithmetic --

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self._add_table is not None:
            return self._add_table[a * self.q + b]
        return self._add_raw(a, b)

    def _add_raw(self, a, b):
        out = 0
        mul = 1
        for _ in range(self.k):
            out += ((a + b) % self.p) * mul
            a //= self.p
            b //= self.p
            mul *= self.p
        return out

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        out = 0
        mul = 1
        for _ in range(self.k):
            out += ((-a) % self.p) * mul
            a //= self.p
            mul *= self.p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        if self._mul_table is not None:
            return self._mul_table[a * self.q + b]
        return self._mul_raw(a, b)

    def _mul_raw(self, a, b):
        prod = _poly_mul(list(self.decode(a)), list(self.decode(b)), self.p)
        return self.encode(_poly_mod(prod, list(self.modulus), self.p))

    def _pow_raw(self, a, e):
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        e %= self.q - 1
        if self.k == 1:
            return pow(a, e, self.p)
        return self._pow_raw(a, e)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def conj(self, a: int) -> int:
        """Frobenius conjugate a -> a^p (square-order fields only)."""
        if self.k != 2:
            raise WrongDegree("conjugation requires k = 2")
        return self.pow(a, self.p)

    def _build_tables(self):
        q = self.q
        self._add_table = [0] * (q * q)
        self._mul_table = [0] * (q * q)
        for a in range(q):
            for b in range(q):
                self._add_table[a * q + b] = self._add_raw(a, b)
                self._mul_table[a * q + b] = self._mul_raw(a, b)

    def __repr__(self):
        return f"FieldCtx(p={self.p}, k={self.k})"


@lru_cache(maxsize=None)
def make_field(p: int, k: int = 1) -> FieldCtx:
    """Field context for GF(p^k) with a deterministic irreducible modulus."""
    return FieldCtx(p, k)


@lru_cache(maxsize=None)
def field_of_order(q: int) -> FieldCtx:
    """GF(q) for q a prime power (p deduced from q)."""
    for p in range(2, q + 1):
        if is_prime(p):
            k = 0
            t = q
            while t % p == 0:
                t //= p
                k += 1
            if t == 1 and k >= 1:
                return make_field(p, k)
            if q % p == 0:
                break
    raise NonPrime(f"{q} is not a prime power")


def frobenius_conjugate(ctx: FieldCtx, a: int) -> int:
    return ctx.conj(a)
