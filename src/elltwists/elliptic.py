"""Elliptic curves over Q: Weierstrass invariants, Fourier coefficients
a_n by point counting, the real period by AGM, and a group law generic
enough to run over Q, quadratic fields and cubic fields.

a_p at a good odd prime p comes from one of two point counts.  Below
_BSGS_MIN_P, and at any p dividing 6 disc, a Legendre-symbol sum in O(p)
numpy work counts the points; it is also the tests' oracle.  Above it a
Shanks-Mestre baby-step giant-step search over the Hasse interval on the
short model and its quadratic twist finds the group order in O(p^(1/4))
group operations (Cohen, A Course in Computational Algebraic Number
Theory, 7.4.3), and a point the search did not use must confirm it.

Points are (x, y) pairs whose coordinates live in any field-like type
supporting +, -, *, / and equality with each other; None is the origin.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

import mpmath
import numpy as np

from .numcore import factor, primes_up_to, sqrt_mod_prime

# primes from here on are counted by baby-step giant-step.  Timed one call
# per prime on 2 vCPUs (11a, 37a, 37b), the Legendre count takes 60 us at
# p = 1000, 145 us at 5000 and 280 us at 10^4; the search takes 100, 140
# and 170 us, so they cross near 5000.  Mestre's theorem, on which the
# search relies to single out the order, needs p > 229.
_BSGS_MIN_P = 5000
# points of E and its twist the search may draw before giving up
_BSGS_MAX_POINTS = 64


class PointCountError(ArithmeticError):
    """A point count failed a consistency check; no a_p is returned."""


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
        self._ap_cache[p] = a
        return a

    def _ap_odd_good(self, p: int) -> int:
        if p >= _BSGS_MIN_P and 6 * int(self.disc) % p:
            return self._ap_bsgs(p)
        a = self._ap_legendre(p)
        if a * a > 4 * p:
            raise PointCountError(f"Hasse bound violated at {p}: a_p = {a}")
        return a

    def _ap_legendre(self, p: int) -> int:
        # complete the square: (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6,
        # so a_p = -sum_x legendre(4x^3 + b2 x^2 + 2 b4 x + b6)
        b2, b4, b6 = (int(self.b2) % p, int(self.b4) % p, int(self.b6) % p)
        legendre = np.full(p, -1, dtype=np.int64)
        legendre[0] = 0
        idx = np.arange(1, (p + 1) // 2, dtype=np.int64)
        legendre[idx * idx % p] = 1
        x = np.arange(p, dtype=np.int64)
        x2 = x * x % p
        v = (4 * (x2 * x % p) + b2 * x2 + 2 * b4 * x + b6) % p
        return -int(legendre[v].sum())

    def _ap_bsgs(self, p: int) -> int:
        """a_p at a good prime p > 229 not dividing 6 disc, from the group
        order of the short model y^2 = x^3 - 27 c4 x - 54 c6 over F_p."""
        a, b = -27 * int(self.c4) % p, -54 * int(self.c6) % p
        points = _fp_points(a, b, p)
        n = _bsgs_order(a, b, p, points)
        P = next(points)  # a point of E the search never saw
        x, y = P
        if (y * y - (x * x + a) * x - b) % p or _fp_mul(n, P, a, p) is not None:
            raise PointCountError(
                f"order {n} at {p} does not annihilate the check point {P}")
        return p + 1 - n

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
# baby-step giant-step group order over F_p, for y^2 = x^3 + a x + b with
# p > 3 prime; points are (x, y) int pairs and None is the origin

def _fp_add(P, Q, a: int, p: int):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def _fp_mul(n: int, P, a: int, p: int):
    R = None
    while n:
        if n & 1:
            R = _fp_add(R, P, a, p)
        P = _fp_add(P, P, a, p)
        n >>= 1
    return R


def _fp_points(a: int, b: int, p: int):
    """The affine points with x = 1, 2, ... in turn, one y for each x."""
    for x in range(1, p):
        y = sqrt_mod_prime((x * x + a) * x + b, p)
        if y is not None:
            yield (x, y)


def _annihilators(P, a: int, p: int, lo: int, hi: int) -> set[int]:
    """Every N in [lo, hi] with N P = O: baby steps j P for 0 <= j < m go
    into a dict, giant steps walk (lo + i m) P and look up its negative."""
    m = isqrt(hi - lo + 1) + 1
    baby = {}
    R = None
    for j in range(m):
        if R is None and j:
            # P has order j < m: the answer is every multiple of j
            return set(range(-(-lo // j) * j, hi + 1, j))
        baby[R] = j
        R = _fp_add(R, P, a, p)
    step = R  # m P; from here the baby steps are distinct
    found = set()
    T = _fp_mul(lo, P, a, p)
    for base in range(lo, hi + 1, m):
        j = baby.get(None if T is None else (T[0], -T[1] % p))
        if j is not None and base + j <= hi:
            found.add(base + j)
        T = _fp_add(T, step, a, p)
    return found


def _bsgs_order(a: int, b: int, p: int, points) -> int:
    """#E(F_p), drawing points of E from the iterator `points` and points
    of the twist by the least non-residue d in turn: a point P of E keeps
    the N in the Hasse interval with N P = O, a twist point Q those with
    (2p + 2 - N) Q = O.  By Mestre's theorem (p > 229) one point of E or
    of the twist has a single such N; raises rather than guess."""
    s = isqrt(4 * p)
    lo, hi = p + 1 - s, p + 1 + s
    d = next(d for d in range(2, p) if pow(d, (p - 1) // 2, p) == p - 1)
    ad, bd = a * d * d % p, b * d * d * d % p
    twist_points = _fp_points(ad, bd, p)
    candidates = set(range(lo, hi + 1))
    for k in range(_BSGS_MAX_POINTS):
        if k % 2 == 0:
            candidates &= _annihilators(next(points), a, p, lo, hi)
        else:
            candidates &= {2 * p + 2 - n for n in _annihilators(
                next(twist_points), ad, p, lo, hi)}
        if len(candidates) == 1:
            return candidates.pop()
        if not candidates:
            raise PointCountError(f"no group order in the Hasse interval at {p}")
    raise PointCountError(
        f"{_BSGS_MAX_POINTS} points left {len(candidates)} orders at {p}")


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
