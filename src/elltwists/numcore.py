"""Exact arithmetic kernel shared by every other module.

Integer factorization (trial division, which proves the cofactor prime
once the divisors pass its square root, then deterministic Miller-Rabin and
Pollard rho on a larger cofactor, exact for inputs below 2^64), the one
prime sieve (least-prime-factor tables, whose zeros primes_up_to lists),
dense polynomials over Q in one variable, the float -> integer recognition
used when numerically computed quantities are known to be integers, the
two short power tables from which every z^n = z^(qB) z^s is formed, and
the double-double helpers (Dekker products, fixed-point anchor tables,
exactly summed buckets, roots of unity) that the one series kernel
(lvalue._dd_buckets) and the one Gauss-sum kernel (dirichlet.gauss_sums)
share.  The buckets are summed in float64 bins keyed by bucket and
exponent window, where up to 2^20 split halves add without rounding, and
rounded once by math.fsum of the bin totals; a longer input is binned in
passes.  TheoryViolation, the base of every error that means a proved
statement failed, lives here too, so that each module can subclass it and
the command line can catch it once.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import mpmath
import numpy as np


class TheoryViolation(Exception):
    """A computed result that contradicts a proved statement.  Every such
    failure subclasses this one class, so a caller can tell 'the mathematics
    failed' from ordinary errors with a single except clause."""


class RecognitionError(ValueError):
    """A numeric value failed to snap to a nearby exact target."""

    def __init__(self, message: str, value=None, residual=None):
        super().__init__(message)
        self.value = value
        self.residual = residual


# ---------------------------------------------------------------------------
# primes and factorization

# deterministic Miller-Rabin witness set, sufficient far beyond 2^64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# factor() divides by every prime below this bound before it tests primality
_TRIAL_BOUND = 1000


@lru_cache(maxsize=8)
def primes_up_to(n: int) -> tuple[int, ...]:
    """All primes <= n: the zeros past 1 of least_prime_factors(0, n)."""
    if n < 2:
        return ()
    return tuple(p for p, f in enumerate(least_prime_factors(0, n))
                 if not f)[2:]


def least_prime_factors(lo: int, hi: int) -> array:
    """The least prime factor of each composite n in [lo, hi] (lo >= 0), 0 at
    the primes and at 0 and 1, as an array of C unsigned ints (half the
    memory of a list).  Each prime up to sqrt(hi) fills its multiples from
    max(p^2, lo) by one slice assignment, the largest prime first, so that
    the least prime factor is written last."""
    spf = array("I", [0]) * (hi + 1 - lo)
    for p in reversed(primes_up_to(isqrt(hi))):
        start = max(p * p, -(-lo // p) * p) - lo
        spf[start::p] = array("I", [p]) * len(range(start, len(spf), p))
    return spf


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Floyd's cycle finding).

    The increment c is stepped deterministically so results are stable.
    """
    for c in range(1, 100):
        x = y = 2
        d = 1
        f = lambda v: (v * v + c) % n
        count = 0
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = gcd(abs(x - y), n)
            count += 1
            if count > 10 ** 7:
                break
        if d != n and d != 1:
            return d
    raise ArithmeticError(f"rho failed to split {n}")


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as a sorted tuple of (p, e) pairs."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        out = 1
        for p, e in self.pairs:
            out *= p ** e
        return out

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.pairs)

    def valuation(self, p: int) -> int:
        for q, e in self.pairs:
            if q == p:
                return e
        return 0

    def __iter__(self):
        return iter(self.pairs)


def factor(n: int) -> Factorization:
    """Factor a positive integer exactly.

    Trial division by the primes below _TRIAL_BOUND, stopping early once
    the next divisor passes the square root of the cofactor.  Either way a
    cofactor below _TRIAL_BOUND^2 has no prime factor at or below its
    square root, so it is 1 or proven prime.  A larger cofactor is split
    by deterministic Miller-Rabin plus Pollard rho.  Exact for all
    n < 2^64 and in practice far beyond.
    """
    if n <= 0:
        raise ValueError("factor() expects a positive integer")
    pairs: dict[int, int] = {}
    m = n
    for p in primes_up_to(_TRIAL_BOUND):
        if p * p > m:
            break
        while m % p == 0:
            pairs[p] = pairs.get(p, 0) + 1
            m //= p
    if m < _TRIAL_BOUND * _TRIAL_BOUND:
        if m > 1:
            pairs[m] = 1
        return Factorization(tuple(sorted(pairs.items())))
    stack = [m]
    while stack:
        m = stack.pop()
        if is_prime(m):
            pairs[m] = pairs.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return Factorization(tuple(sorted(pairs.items())))


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def power_tables(z, one, mul, M: int):
    """B = isqrt(M) + 1 and the powers z^s (s < B) and z^(qB) (q <= M // B),
    each mul (truncating in fixed point, or reducing mod m) of the entry
    before it and z, or z^B; z^n = z^(qB) z^s for (q, s) = divmod(n, B)."""
    B = isqrt(M) + 1
    small = [one]
    for _ in range(B):
        small.append(mul(small[-1], z))
    zB = small.pop()
    big = [one]
    for _ in range(M // B):
        big.append(mul(big[-1], zB))
    return B, small, big


# ---------------------------------------------------------------------------
# double-double arithmetic shared by the series and Gauss-sum kernels

# roundoff of a double-double bucket, relative to the sum of |terms|
_DD_ROUNDOFF = 2.0 ** -100
_SPLIT = 134217729.0   # 2^27 + 1, Dekker's splitting constant
# entries of one part that one bincount pass of _bucket_sums sums exactly
_BIN_ENTRIES = 2 ** 20


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker's product)."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    t = _SPLIT * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_mul(ah, al, bh, bl):
    """(ah + al)(bh + bl) as a normalised double-double pair."""
    p, e = _two_prod(ah, bh)
    e += ah * bl + al * bh
    hi = p + e
    return hi, e - (hi - p)


def _dd_table(values: list[int], K: int):
    """Fixed-point integers v / 2^K as double-double arrays."""
    hi = [float(v) for v in values]
    lo = [float(v - int(h)) for v, h in zip(values, hi)]
    return np.ldexp(np.array(hi), -K), np.ldexp(np.array(lo), -K)


def _dd_sum(parts: list[float]) -> tuple[float, float]:
    """The exact sum of parts, rounded once to a double-double pair; parts
    is extended in the process."""
    hi = math.fsum(parts)
    parts.append(-hi)
    return hi, math.fsum(parts)


def _bucket_sums(k: np.ndarray, ell: int, *parts) -> list:
    """For j = 0..ell-1, the exact sum of the parts' entries where k = j,
    rounded once to a double-double pair.

    Exact binned summation (Neal, arXiv:1505.05571).  Each entry x is
    split by _SPLIT into xh, of at most 26 significant bits, and
    xl = x - xh, both exact, and keyed by its bucket and its window
    w = e // 8, e its np.frexp exponent.  In one window every xh is a
    multiple of 2^(8w-26) of size at most 2^(8w+7), and every xl a
    multiple of 2^(8w-53) of size at most 2^(8w-20): at most 2^33 units
    each, so any 2^20 of either add up exactly in one float64 bin.  _dd_sum
    of a bucket's bin totals, whose exact sum is the bucket's, gives the
    pair math.fsum over its entries would, bit for bit.

    The range: each bincount pass takes one part's entries, at most
    _BIN_ENTRIES = 2^20 of them, so a longer part is binned in several
    passes.  k must hold 0..ell-1, or bincount or the bins' shape raises
    ValueError.  Every entry must be finite, and so must _SPLIT x
    (|x| < 2^996 will do), or the non-finite bin it leaves raises
    ValueError."""
    rows = [[] for _ in range(ell)]
    for p in parts:
        for start in range(0, len(k), _BIN_ENTRIES):
            cut = slice(start, start + _BIN_ENTRIES)
            x = p[cut]
            # int64 throughout: a shift of the int32 exponents runs a numpy
            # loop nothing else runs, whose code costs 64 KB of peak RSS
            w = np.frexp(x)[1].astype(np.int64) >> 3
            w0 = int(w.min())
            width = int(w.max()) + 1 - w0
            key = k[cut] * width + (w - w0)
            t = _SPLIT * x
            xh = t - (t - x)
            for half in (xh, x - xh):
                bins = np.bincount(key, weights=half, minlength=ell * width)
                if not np.isfinite(bins).all():
                    raise ValueError("a non-finite entry, or one too large "
                                     "to split")
                for row, total in zip(rows,
                                      bins.reshape(ell, width).tolist()):
                    row += total
    return [_dd_sum(row) for row in rows]


@lru_cache(maxsize=None)
def _roots_of_unity(ell: int, prec: int) -> tuple:
    """zeta^k = e^(2 pi i k / ell) for k = 0..ell-1, at prec bits."""
    with mpmath.workprec(prec):
        return tuple(mpmath.exp(2j * mpmath.pi * k / ell) for k in range(ell))


# ---------------------------------------------------------------------------
# dense polynomials over Q

def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _integral(coeffs) -> tuple[list[int], int]:
    """Integer coefficients d * c and the least common denominator d."""
    d = 1
    for c in coeffs:
        d = d * c.denominator // gcd(d, c.denominator)
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination (Math. Comp. 22, 1968); rows is overwritten.  Every division
    is exact, so entries stay integers no larger than the matrix's minors.
    A zero pivot is swapped for a lower row, flipping the sign."""
    size = len(rows)
    sign, prev = 1, 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot, top = rows[k][k], rows[k]
        for row in rows[k + 1:]:
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * rows[-1][-1]


@dataclass(frozen=True)
class PolyQ:
    """Dense univariate polynomial over Q, coefficients low degree first."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def of(cls, *coeffs) -> "PolyQ":
        c = [_frac(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        return cls(tuple(c))

    @classmethod
    def x(cls) -> "PolyQ":
        return cls.of(0, 1)

    @classmethod
    def const(cls, v) -> "PolyQ":
        return cls.of(v)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other) -> "PolyQ":
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ.of(*(self.coeff(i) + other.coeff(i) for i in range(n)))

    def __sub__(self, other) -> "PolyQ":
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ.of(*(self.coeff(i) - other.coeff(i) for i in range(n)))

    def __neg__(self) -> "PolyQ":
        return PolyQ(tuple(-a for a in self.coeffs))

    def __mul__(self, other) -> "PolyQ":
        if isinstance(other, (int, Fraction)):
            return PolyQ.of(*(a * other for a in self.coeffs))
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return PolyQ(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return PolyQ.of(*out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "PolyQ":
        return self._coerce(other) - self

    def __pow__(self, n: int) -> "PolyQ":
        out = PolyQ.of(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    @staticmethod
    def _coerce(v) -> "PolyQ":
        if isinstance(v, PolyQ):
            return v
        return PolyQ.of(v)

    def __call__(self, x):
        """Horner evaluation; x may live in any commutative Q-algebra."""
        if self.is_zero():
            return Fraction(0) if isinstance(x, (int, Fraction)) else 0 * x
        acc = None
        for a in reversed(self.coeffs):
            acc = a if acc is None else acc * x + a
        return acc

    def derivative(self) -> "PolyQ":
        return PolyQ.of(*(i * a for i, a in enumerate(self.coeffs) if i >= 1))

    def divmod(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        if other.is_zero():
            raise ZeroDivisionError
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        r = list(self.coeffs)
        d, lc = other.degree, other.lc()
        while len(r) - 1 >= d and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            k = len(r) - 1 - d
            f = r[-1] / lc
            q[k] = f
            for i, b in enumerate(other.coeffs):
                r[k + i] -= f * b
            r.pop()
        return PolyQ.of(*q), PolyQ.of(*r)

    def __mod__(self, other: "PolyQ") -> "PolyQ":
        return self.divmod(other)[1]

    def resultant(self, other: "PolyQ") -> Fraction:
        """Resultant via the Sylvester matrix, exact over Q.  Each polynomial
        is scaled to integer coefficients by the lcm of its denominators, the
        integer determinant is taken by Bareiss's fraction-free elimination,
        and the scales come back out by homogeneity: Res(P/a, Q/b) =
        Res(P, Q) / (a^deg Q b^deg P)."""
        m, n = self.degree, other.degree
        if m < 0 or n < 0:
            return Fraction(0)
        if m == 0:
            return self.coeffs[0] ** n
        if n == 0:
            return other.coeffs[0] ** m
        pc, a = _integral(self.coeffs)
        qc, b = _integral(other.coeffs)
        size = m + n
        pc.reverse()
        qc.reverse()
        rows = [[0] * i + pc + [0] * (size - m - 1 - i) for i in range(n)]
        rows += [[0] * i + qc + [0] * (size - n - 1 - i) for i in range(m)]
        return Fraction(_bareiss_det(rows), a ** n * b ** m)

    def discriminant(self) -> Fraction:
        """disc(p) = (-1)^(n(n-1)/2) resultant(p, p') / lc(p)."""
        n = self.degree
        if n < 1:
            raise ValueError("discriminant needs degree >= 1")
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        return sign * self.resultant(self.derivative()) / self.lc()

    def rational_roots(self) -> list[Fraction]:
        """The distinct rational roots of a monic cubic, ascending, exact:
        with d the coefficients' least common denominator, each is 1/d times
        an integer root of the monic integral companion.  ValueError on any
        polynomial that is not a monic cubic."""
        if self.degree != 3 or self.coeffs[3] != 1:
            raise ValueError("rational roots are found for monic cubics only")
        (c0, c1, c2, _), d = _integral(self.coeffs)
        return [Fraction(r, d)
                for r in _monic_cubic_integer_roots(c0 * d * d, c1 * d, c2)]

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if i == 0:
                parts.append(str(a))
            elif i == 1:
                parts.append(f"{a}*x")
            else:
                parts.append(f"{a}*x^{i}")
        return " + ".join(parts)


def cubic_discriminant(c0, c1, c2):
    """Discriminant of the monic cubic x^3 + c2 x^2 + c1 x + c0, over any
    ring the coefficients live in."""
    return (18 * c2 * c1 * c0 - 4 * c2 ** 3 * c0 + c2 * c2 * c1 * c1
            - 4 * c1 ** 3 - 27 * c0 * c0)


def cubic_double_root(c0, c1, c2) -> Fraction:
    """The repeated root r of the monic cubic x^3 + c2 x^2 + c1 x + c0,
    whose discriminant must vanish: (9 c0 - c1 c2) / (2 (c2^2 - 3 c1)),
    or the triple root -c2 / 3 when c2^2 = 3 c1.  The simple root is
    -c2 - 2 r.  The coefficients may be integers or fractions."""
    den = 2 * (c2 * c2 - 3 * c1)
    if den == 0:
        return Fraction(-c2, 3)
    return Fraction(9 * c0 - c1 * c2, den)


# polynomial arithmetic over F_p (dense int lists, low degree first)

def _fp_eval(c: list[int], r: int, p: int) -> int:
    """c(r) mod p, by Horner."""
    acc = 0
    for v in reversed(c):
        acc = (acc * r + v) % p
    return acc


def _fp_roots(c: list[int], p: int) -> list[int]:
    """The distinct roots in F_p of the integer cubic c0 + c1 x + c2 x^2 +
    c3 x^3 given as [c0, c1, c2, c3], ascending, by trying every residue."""
    c0, c1, c2, c3 = (v % p for v in c)
    return [r for r in range(p) if (((c3 * r + c2) * r + c1) * r + c0) % p == 0]


def _next_good_prime(disc: int, p: int) -> int:
    """The least prime above the odd number p that does not divide disc."""
    p += 2
    while disc % p == 0 or not is_prime(p):
        p += 2
    return p


def _monic_cubic_integer_roots(c0: int, c1: int, c2: int) -> list[int]:
    """Integer roots of x^3 + c2 x^2 + c1 x + c0, each once, ascending.
    A nonzero discriminant keeps the roots distinct modulo the least odd
    prime p not dividing it, so each root mod p is Newton-lifted past the
    root bound and the survivors are checked exactly; before any lift, a
    cubic with no root modulo the next such prime q has no integer root.
    A zero discriminant gives the closed-form repeated and simple roots,
    whose exact check must pass."""
    c = [c0, c1, c2, 1]
    disc = cubic_discriminant(c0, c1, c2)
    if disc == 0:
        r = cubic_double_root(c0, c1, c2)
        roots = {r, -c2 - 2 * r}
        if any(((x + c2) * x + c1) * x + c0 for x in roots):
            raise ArithmeticError("closed-form repeated root fails its check")
        return sorted(int(x) for x in roots)
    p = _next_good_prime(disc, 1)
    residues = _fp_roots(c, p)
    if residues and not _fp_roots(c, _next_good_prime(disc, p)):
        return []
    bound = 1 + max(abs(c0), abs(c1), abs(c2))
    dc = [c1, 2 * c2, 3]
    roots = []
    for r in residues:
        m = p
        while m < 2 * bound + 1:
            m *= m
            r = (r - _fp_eval(c, r, m) * pow(_fp_eval(dc, r, m), -1, m)) % m
        s = r if r <= m // 2 else r - m
        if ((s + c2) * s + c1) * s + c0 == 0:
            roots.append(s)
    return sorted(roots)


# ---------------------------------------------------------------------------
# numeric recognition

def recognize_integer(x, tol: float = 1e-4, err=None) -> int:
    """Snap a real numeric value to the nearest integer.

    err, when supplied, is a rigorous bound on |x - true value| and must be
    below 1/4 so the nearest integer is unambiguous.  Raises
    RecognitionError when the residual exceeds tol.
    """
    if err is not None and not float(err) < 0.25:
        raise RecognitionError(f"error bound {err} too large to round", value=x)
    xf = float(x)
    if abs(xf) > 2.0 ** 52:
        raise RecognitionError("value too large for exact rounding", value=x)
    m = round(xf)
    residual = abs(xf - m)
    if residual > tol:
        raise RecognitionError(
            f"residual {residual:.3g} above tolerance {tol:.3g}", value=x, residual=residual
        )
    return int(m)

