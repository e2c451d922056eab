"""Elliptic curves over Q: Weierstrass invariants, Fourier coefficients
a_n by point counting, the real period by AGM, and a group law generic
enough to run over Q, quadratic fields and cubic fields.

Points are (x, y) pairs whose coordinates live in any field-like type
supporting +, -, *, / and equality with each other; None is the origin.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

import mpmath
import numpy as np

from .numcore import factor, primes_up_to


class Curve:
    """A Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    The conductor, when the curve is used arithmetically, is supplied by
    the caller (curve input files carry it); invariants are derived.
    """

    def __init__(self, a_invariants, label: str | None = None,
                 conductor: int | None = None, root_number: int | None = None):
        a = tuple(Fraction(x) for x in a_invariants)
        if len(a) != 5:
            raise ValueError("expected exactly (a1, a2, a3, a4, a6)")
        self.a1, self.a2, self.a3, self.a4, self.a6 = a
        self.a_invariants = a
        self.label = label
        self.b2 = self.a1 ** 2 + 4 * self.a2
        self.b4 = 2 * self.a4 + self.a1 * self.a3
        self.b6 = self.a3 ** 2 + 4 * self.a6
        self.b8 = (self.a1 ** 2 * self.a6 + 4 * self.a2 * self.a6
                   - self.a1 * self.a3 * self.a4 + self.a2 * self.a3 ** 2
                   - self.a4 ** 2)
        self.c4 = self.b2 ** 2 - 24 * self.b4
        self.c6 = -self.b2 ** 3 + 36 * self.b2 * self.b4 - 216 * self.b6
        self.disc = (-self.b2 ** 2 * self.b8 - 8 * self.b4 ** 3
                     - 27 * self.b6 ** 2 + 9 * self.b2 * self.b4 * self.b6)
        if self.disc == 0:
            raise ValueError("singular model")
        if root_number is not None and root_number not in (1, -1):
            raise ValueError("root number must be +1 or -1")
        self.root_number = root_number
        self.conductor = conductor
        if conductor is not None:
            if conductor <= 0:
                raise ValueError("conductor must be positive")
            if not self.is_integral():
                raise ValueError("conductor given for a non-integral model")
            for p in factor(conductor).primes:
                if int(self.disc) % p != 0:
                    raise ValueError(
                        f"conductor prime {p} does not divide the discriminant")
        self._ap_cache: dict[int, int] = {}
        self._an_cache: list[int] = [0, 1]
        self._period_cache: dict[int, mpmath.mpf] = {}

    def __repr__(self):
        tag = self.label or ",".join(str(a) for a in self.a_invariants)
        return f"Curve({tag})"

    def __eq__(self, other):
        return (isinstance(other, Curve)
                and self.a_invariants == other.a_invariants
                and self.conductor == other.conductor
                and self.root_number == other.root_number)

    def __hash__(self):
        return hash((self.a_invariants, self.conductor, self.root_number))

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.a_invariants)

    def delta_unit(self, n: int) -> int:
        """1 when n is prime to the conductor, else 0."""
        if self.conductor is None:
            raise ValueError("curve has no conductor attached")
        return 1 if gcd(n, self.conductor) == 1 else 0

    # -- Fourier coefficients ----------------------------------------------

    def ap(self, p: int) -> int:
        """Trace of Frobenius at p for good p; the standard 0 / +-1 at bad p.

        Bad multiplicative a_p is read off the minimal-model criterion:
        split (a_p = +1) exactly when -c6 is a square locally.
        """
        if p in self._ap_cache:
            return self._ap_cache[p]
        if not self.is_integral():
            raise ValueError("a_p needs an integral model")
        bad = (int(self.disc) % p == 0) if self.conductor is None \
            else (self.conductor % p == 0)
        if bad:
            if self.conductor is None:
                raise ValueError(f"bad prime {p} but no conductor to classify it")
            if self.conductor % (p * p) == 0:
                a = 0  # additive
            else:
                c6 = int(-self.c6)
                if p == 2:
                    # odd unit is a 2-adic square exactly when it is 1 mod 8
                    a = 1 if c6 % 8 == 1 else -1
                else:
                    a = 1 if pow(c6 % p, (p - 1) // 2, p) == 1 else -1
        elif p == 2:
            count = 1  # origin
            for x in (0, 1):
                for y in (0, 1):
                    lhs = y * y + int(self.a1) * x * y + int(self.a3) * y
                    rhs = x ** 3 + int(self.a2) * x * x + int(self.a4) * x + int(self.a6)
                    if (lhs - rhs) % 2 == 0:
                        count += 1
            a = 2 + 1 - count
        else:
            a = self._ap_odd_good(p)
            assert a * a <= 4 * p, f"Hasse bound violated at {p}: {a}"
        self._ap_cache[p] = a
        return a

    def _ap_odd_good(self, p: int) -> int:
        # complete the square: (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6,
        # so a_p = -sum_x legendre(4x^3 + b2 x^2 + 2 b4 x + b6)
        b2, b4, b6 = (int(self.b2) % p, int(self.b4) % p, int(self.b6) % p)
        if p < 60:
            squares = {x * x % p for x in range(1, p)}
            s = 0
            for x in range(p):
                v = (4 * x * x * x + b2 * x * x + 2 * b4 * x + b6) % p
                if v:
                    s += 1 if v in squares else -1
            return -s
        legendre = np.full(p, -1, dtype=np.int64)
        legendre[0] = 0
        idx = np.arange(1, (p + 1) // 2, dtype=np.int64)
        legendre[idx * idx % p] = 1
        x = np.arange(p, dtype=np.int64)
        x2 = x * x % p
        v = (4 * (x2 * x % p) + b2 * x2 + 2 * b4 * x + b6) % p
        return -int(legendre[v].sum())

    def an_table(self, limit: int) -> list[int]:
        """a_n for n = 0..limit (a_0 = 0), by the multiplicative sieve.

        Returns the curve's own table, which holds at least limit + 1
        entries; callers must not modify it.  A larger limit extends the
        table from its current end, so each a_p is asked for once."""
        a = self._an_cache
        start = len(a)
        # smallest prime factor of each new n, 0 for primes
        spf = [0] * (limit + 1 - start)
        for p in primes_up_to(isqrt(limit)):
            for m in range(max(p * p, -(-start // p) * p), limit + 1, p):
                if not spf[m - start]:
                    spf[m - start] = p
        level = int(self.disc) if self.conductor is None else self.conductor
        for n in range(start, limit + 1):
            p = spf[n - start] or n
            q, m = p, n // p
            while m % p == 0:
                q, m = q * p, m // p
            if m > 1:
                a.append(a[q] * a[m])
            elif q == p:
                a.append(self.ap(p))
            else:
                # a_{p^e} = a_p a_{p^(e-1)} - p a_{p^(e-2)}, the last term
                # at good p only
                a.append(a[p] * a[q // p]
                         - (p * a[q // (p * p)] if level % p else 0))
        return a

    # -- real period ---------------------------------------------------------

    def real_period(self):
        """Least real period of the Neron differential dx / (2y + a1 x + a3)
        on this model, at the current mpmath precision.

        With h(x) = x^3 + (b2/4) x^2 + (b4/2) x + (b6/4) and roots e_i:
        three real roots e1 > e2 > e3 give 2 pi / agm(sqrt(e1-e3), sqrt(e1-e2));
        one real root e1 gives pi / agm(re(a0), |a0|) for a0 = sqrt(e1 - e_cplx).
        """
        dps = mpmath.mp.dps
        if dps in self._period_cache:
            return self._period_cache[dps]
        with mpmath.workdps(dps + 10):
            coeffs = [mpmath.mpf(1),
                      mpmath.mpf(self.b2.numerator) / self.b2.denominator / 4,
                      mpmath.mpf(self.b4.numerator) / self.b4.denominator / 2,
                      mpmath.mpf(self.b6.numerator) / self.b6.denominator / 4]
            roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=80)
            if self.disc > 0:
                e1, e2, e3 = sorted((r.real for r in roots), reverse=True)
                omega = 2 * mpmath.pi / mpmath.agm(mpmath.sqrt(e1 - e3),
                                                   mpmath.sqrt(e1 - e2))
            else:
                e1 = next(r.real for r in roots if abs(r.imag) < mpmath.mpf(10) ** (-dps))
                ec = next(r for r in roots if abs(r.imag) >= mpmath.mpf(10) ** (-dps))
                a0 = mpmath.sqrt(e1 - ec)
                omega = mpmath.pi / mpmath.agm(abs(a0.real), abs(a0))
        omega = +omega  # round down to the working precision
        self._period_cache[dps] = omega
        return omega


# ---------------------------------------------------------------------------
# generic group law

def curve_neg(curve: Curve, P):
    if P is None:
        return None
    x, y = P
    return (x, -y - curve.a1 * x - curve.a3)


def on_curve(curve: Curve, P) -> bool:
    if P is None:
        return True
    x, y = P
    lhs = y * y + curve.a1 * x * y + curve.a3 * y
    rhs = x * x * x + curve.a2 * x * x + curve.a4 * x + curve.a6
    return lhs == rhs


def curve_add(curve: Curve, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if y2 == -y1 - curve.a1 * x1 - curve.a3:
            return None  # Q = -P
        # doubling
        num = 3 * x1 * x1 + 2 * curve.a2 * x1 + curve.a4 - curve.a1 * y1
        den = 2 * y1 + curve.a1 * x1 + curve.a3
        lam = num / den
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + curve.a1 * lam - curve.a2 - x1 - x2
    y3 = -(lam + curve.a1) * x3 - nu - curve.a3
    return (x3, y3)


def curve_mul(curve: Curve, n: int, P):
    if n < 0:
        return curve_mul(curve, -n, curve_neg(curve, P))
    R = None
    A = P
    while n:
        if n & 1:
            R = curve_add(curve, R, A)
        A = curve_add(curve, A, A)
        n >>= 1
    return R


def point_order(curve: Curve, P, bound: int = 24) -> int | None:
    """Exact order of P if it is <= bound, else None."""
    R = P
    for n in range(1, bound + 1):
        if R is None:
            return n
        R = curve_add(curve, R, P)
    return None


def is_nontorsion(curve: Curve, P, field_degree: int = 1) -> bool:
    """True when P has infinite order, certified by the uniform bounds on
    torsion order over number fields of degree 1, 2 or 3 (12, 18, 21)."""
    bound = {1: 12, 2: 18, 3: 21}.get(field_degree)
    if bound is None:
        raise ValueError("torsion bounds wired in for degrees 1..3 only")
    if P is None or not on_curve(curve, P):
        raise ValueError("not an affine point of the curve")
    return point_order(curve, P, bound) is None


def trace_point(curve: Curve, P, sigma):
    """P + P^sigma + P^(sigma^2) for a point over a cyclic cubic field,
    sigma acting coordinatewise through the supplied field automorphism."""
    x, y = P
    P1 = (sigma(x), sigma(y))
    P2 = (sigma(P1[0]), sigma(P1[1]))
    return curve_add(curve, curve_add(curve, P, P1), P2)
