"""Elliptic curves over Q: Weierstrass invariants, Fourier coefficients
a_n by point counting, the real period by AGM, and a group law generic
enough to run over Q, quadratic fields and cubic fields.

a_p at a good odd prime p comes from one of two point counts.  Below
_BSGS_MIN_P, and at any p dividing 6 disc, a Legendre-symbol sum in O(p)
numpy work counts the points; it is also the tests' oracle.  Above it a
Shanks-Mestre baby-step giant-step search over the Hasse interval finds
the group order in O(p^(1/4)) group operations (Cohen, A Course in
Computational Algebraic Number Theory, 7.4.3) for a whole batch of primes
at once: one numpy lane per (prime, point), all lanes stepping together,
on points of the short model and of its quadratic twists drawn without a
square root.  A point the search did not use must confirm each a_p.
an_table counts exactly its new primes in one batch, and ap(p) of an
uncounted prime alone is a batch of one, so the commands reserve the
table they need before their first series (lvalue.calibrate).  The table
is kept once, as one int64 array, and handed out as read-only views.

Points are (x, y) pairs whose coordinates live in any field-like type
supporting +, -, *, / and equality with each other; None is the origin.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt

import mpmath
import numpy as np

from .modsym import PlusSymbols
from .numcore import TheoryViolation, factor, least_prime_factors

# primes from here on are counted by the batched search.  On 2 vCPUs the
# Legendre count costs 50, 77, 153 and 290 us a prime at p = 1000, 2000,
# 5000 and 10^4, and one batch of a command's reserved table 13 us a prime
# (27 us for calibration's 95, where fixed costs weigh).  Counting 37b's
# primes from 1000 up to the tables that calibration at ell 3, the census
# to 415, the congruence sweep at ell 5 to 590 and the slice samples
# reserve (1,669, 10,369, 14,752 and 31,134), the Legendre sum below a
# threshold of 1000, 2000 or 3000 and one batch above it take 2.6, 2.5 and
# 2.5 ms; 14.1, 15.7 and 20.1 ms; 19.6, 21.4 and 25.8 ms; 40.0, 41.9 and
# 46.1 ms (medians of 9).  Mestre's theorem, on which the search relies to
# single out the order, needs p > 229.
_BSGS_MIN_P = 1000
# points of E and its twists a prime may draw before the search gives up
_BSGS_MAX_POINTS = 64
# points each unsettled prime draws per round after its first.  Every prime
# draws x = 1, 2, ... in the same order under the same cap whatever this
# is, so the same primes settle or raise; smaller rounds waste fewer draws.
# One batch of the last three tables above takes 14.0, 19.6 and 39.5 ms at
# 2 against 15.9, 23.1 and 44.4 ms at 8 (best of 7).
_BSGS_REDRAW = 2
# lanes, and primes, walked together: bounds the search's memory
_BSGS_LANES = 512
# residues below this multiply inside int64
_BSGS_MAX_P = 2 ** 31


class PointCountError(TheoryViolation):
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
        self._an = np.array([0, 1], dtype=np.int64)
        self._period_cache: dict[int, mpmath.mpf] = {}

    def __repr__(self):
        tag = self.label or ",".join(str(a) for a in self.a_invariants)
        return f"Curve({tag})"

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.a_invariants)

    def delta_unit(self, n: int) -> int:
        """1 when n is prime to the conductor, else 0."""
        if self.conductor is None:
            raise ValueError("curve has no conductor attached")
        return 1 if gcd(n, self.conductor) == 1 else 0

    @cached_property
    def symbols(self) -> PlusSymbols:
        """The plus modular symbols at the attached conductor, solved on
        first use and kept with the curve."""
        if self.conductor is None:
            raise ValueError("curve has no conductor attached")
        return PlusSymbols(self.conductor, self.ap)

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
            return self._ap_batch([p])[p]
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

    def _ap_batch(self, primes: list[int]) -> dict[int, int]:
        """a_p at good primes p >= _BSGS_MIN_P not dividing 6 disc, all
        counted in one batch on the short model y^2 = x^3 - 27 c4 x - 54 c6."""
        if not self.is_integral():
            raise ValueError("a_p needs an integral model")
        return dict(zip(primes, _frobenius_traces(
            -27 * int(self.c4), -54 * int(self.c6), primes)))

    def count_primes(self, primes) -> None:
        """Count a_p, in one batch, at every uncached prime of the list that
        baby-step giant-step serves; ap then reads them from its cache."""
        six_disc = 6 * int(self.disc)
        new = [p for p in primes
               if p >= _BSGS_MIN_P and six_disc % p and p not in self._ap_cache]
        if new:
            self._ap_cache.update(self._ap_batch(new))

    def an_table(self, limit: int) -> np.ndarray:
        """a_n for n = 0..limit (a_0 = 0), by the multiplicative sieve, as a
        read-only view of the curve's int64 table.

        A larger limit extends the table from its current end, so each a_p
        is asked for once, and the new primes that baby-step giant-step
        serves are counted in one batch.  The extended table is stored only
        once the sieve is done: a raise leaves the table as it was."""
        table = self._an
        start = table.size
        if limit >= start:
            a = table.tolist()
            # least prime factor of each new n, 0 for primes
            spf = least_prime_factors(start, limit)
            self.count_primes([n for n, f in enumerate(spf, start) if not f])
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
                    # a_{p^e} = a_p a_{p^(e-1)} - p a_{p^(e-2)}, the last
                    # term at good p only
                    a.append(a[p] * a[q // p]
                             - (p * a[q // (p * p)] if level % p else 0))
            table = self._an = np.array(a, dtype=np.int64)
        # a table unpickled in a pool worker comes back writeable
        view = table[:limit + 1]
        view.flags.writeable = False
        return view

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
# batched baby-step giant-step over F_p.  A lane is one point of one curve
# Y^2 Z = X^3 + A X Z^2 + B Z^3 over its own prime p, and all lanes of a
# block step together.  A point is a triple (X, Y, Z) of int64 arrays with
# Z = 0 the origin; residues stay below p < 2^31, so products fit in int64.

def _pow_mod(x, e, p):
    """x^e mod p elementwise, for e >= 0."""
    x, r = x % p, np.ones_like(x)
    while e.any():
        r = np.where(e & 1, r * x % p, r)
        x, e = x * x % p, e >> 1
    return r


def _double(P, A, p):
    X, Y, Z = P
    w = (A * (Z * Z % p) + 3 * (X * X % p)) % p
    s = Y * Z % p
    ss = s * s % p
    b = X * Y % p * s % p
    h = (w * w - 8 * b) % p
    return (2 * (h * s % p) % p,
            (w * ((4 * b - h) % p) - 8 * (Y * Y % p * ss % p)) % p,
            8 * (ss * s % p) % p)


def _add(P, Q, A, p):
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    x1, y1 = X1 * Z2 % p, Y1 * Z2 % p
    u = (Y2 * Z1 - y1) % p
    v = (X2 * Z1 - x1) % p
    w = Z1 * Z2 % p
    vv = v * v % p
    vvv = vv * v % p
    r = vv * x1 % p
    h = (u * u % p * w - vvv - 2 * r) % p
    # Q = -P leaves v = 0, hence Z = 0: the origin, as it should
    R = (v * h % p, (u * ((r - h) % p) - vvv * y1) % p, vvv * w % p)
    # every origin made here is (0 : y : 0), so v = 0 on any lane where P
    # or Q is the origin or Q = P
    if v.all():
        return R
    # Q = P doubles, and an origin on either side gives the other point
    o1, o2 = Z1 == 0, Z2 == 0
    same = np.flatnonzero((u == 0) & (v == 0) & ~o1 & ~o2)
    for lanes, S in ((same, None), (np.flatnonzero(o2), P),
                     (np.flatnonzero(o1), Q)):
        if lanes.size:
            part = (_double(tuple(c[lanes] for c in P), A[lanes], p[lanes])
                    if S is None else (c[lanes] for c in S))
            for c, d in zip(R, part):
                c[lanes] = d
    return R


def _mul(n, P, A, p):
    """n P lane by lane for n >= 0, by double-and-add from the top bit."""
    R = (np.zeros_like(p), np.ones_like(p), np.zeros_like(p))
    for bit in reversed(range(int(n.max()).bit_length())):
        R = _double(R, A, p)
        R = tuple(np.where((n >> bit) & 1, c, d)
                  for c, d in zip(_add(R, P, A, p), R))
    return R


def _points(a, b, p, x):
    """One point per lane without a square root: with v = x^3 + a x + b,
    (v x, v^2) lies on Y^2 = X^3 + A X + B for A = a v^2, B = b v^3, which
    is E when v is a square mod p and its quadratic twist otherwise.
    Returns the point, A, B, chi(v) (+1 or -1) and the lanes with v != 0."""
    v = ((x * x % p + a) % p * x + b) % p
    vv = v * v % p
    chi = np.where(_pow_mod(v, (p - 1) // 2, p) == 1, 1, -1)
    return ((v * x % p, vv, np.ones_like(p)), a * vv % p, b * vv % p * v % p,
            chi, v != 0)


def _annihilators(p, A, P, lo, width):
    """Every N in [lo, lo + width) with N P = O, lane by lane, as two
    arrays: the lanes and their N.  Baby steps j P for j <= m are
    normalized with one Fermat inverse (of their product); giant steps
    c P, c = lo + m + i (2m + 1), meet them on x.  c P = +-j P gives
    (c -+ j) P = O, both when y(j P) = 0, and a baby step at O matches a
    giant step at O."""
    wide = int(width.max())
    m = isqrt(wide // 2) + 1
    baby = [(np.zeros_like(p), np.ones_like(p), np.zeros_like(p)), P]
    for _ in range(m - 1):
        baby.append(_add(baby[-1], P, A, p))
    step = _add(_double(baby[m], A, p), P, A, p)
    X, Y, Z = (np.stack(c, axis=1) for c in zip(*baby))
    lane = np.arange(p.size)
    # (lo + m) P in base 2^w, the digits read off the baby table
    w = (m + 1).bit_length() - 1
    c0 = lo + m
    shift = (int(c0.max()).bit_length() - 1) // w * w
    T = tuple(c[lane, c0 >> shift] for c in (X, Y, Z))
    for shift in range(shift - w, -1, -w):
        for _ in range(w):
            T = _double(T, A, p)
        d = (c0 >> shift) & ((1 << w) - 1)
        T = _add(T, tuple(c[lane, d] for c in (X, Y, Z)), A, p)
    # Montgomery's trick: one inverse of the product of the nonzero Z
    origin = Z == 0
    Z = np.where(origin, 1, Z)
    below = np.empty_like(Z)
    acc = np.ones_like(p)
    for j in range(m + 1):
        below[:, j], acc = acc, acc * Z[:, j] % p
    acc = _pow_mod(acc, p - 2, p)
    for j in range(m, -1, -1):
        below[:, j], acc = below[:, j] * acc % p, acc * Z[:, j] % p
    col = p[:, None]
    x, y = X * below % col, Y * below % col
    lanes, found = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for c in range(m, wide + m, 2 * m + 1):
        X, Y, Z = T
        at_o = Z == 0
        hit = np.where(at_o[:, None], origin,
                       (x * Z[:, None] % col == X[:, None]) & ~origin)
        i, j = np.nonzero(hit)
        if i.size:
            yz = y[i, j] * Z[i] % p[i]
            down = at_o[i] | (yz == Y[i])
            up = (at_o[i] & (j > 0)) | ((yz + Y[i]) % p[i] == 0)
            lanes += [i[down], i[up]]
            found += [lo[i[down]] + c - j[down], lo[i[up]] + c + j[up]]
        if c + m + 1 < wide:
            T = _add(T, step, A, p)
    i, n = np.concatenate(lanes), np.concatenate(found)
    keep = n < lo[i] + width[i]
    return i[keep], n[keep]


def _search(a, b, p):
    """a_p at each prime of the array p (p > 229, good, prime to 6) for
    y^2 = x^3 + a x + b, a and b given mod p.  Each drawn point leaves the
    a_p = chi(v) (p + 1 - N) over its annihilators N in the Hasse
    interval; a prime settles when the intersection over its points has
    one element, which Mestre's theorem guarantees some point of E or of
    its twist gives.  The first round draws one point per prime, the later
    ones _BSGS_REDRAW per unsettled prime, pooled over the whole batch.
    Raises rather than guess.  Returns a_p and each prime's next unused x."""
    s = np.array([isqrt(4 * int(q)) for q in p])
    top = int(s.max())
    traces = np.arange(-top, top + 1)
    ap, x = np.zeros_like(p), np.ones_like(p)
    # the unsettled primes and, after the first round, their candidates
    todo, rows = np.arange(p.size), None
    k, drawn = 1, 0
    while todo.size:
        k = min(k, _BSGS_MAX_POINTS - drawn)
        drawn += k
        per = _BSGS_LANES // k
        left, kept = [], []
        for at in range(0, todo.size, per):
            ids = todo[at:at + per]
            alive = (np.abs(traces) <= s[ids, None] if rows is None
                     else rows[at:at + per])
            who = np.repeat(ids, k)
            draw = np.tile(np.arange(k), ids.size)
            P, A, _, chi, ok = _points(a[who], b[who], p[who], x[who] + draw)
            i, n = _annihilators(p[who], A, P, p[who] + 1 - s[who],
                                 2 * s[who] + 1)
            col = chi[i] * (p[who[i]] + 1 - n) + top
            for d in range(k):
                seen = np.zeros_like(alive)
                sel = draw[i] == d
                seen[i[sel] // k, col[sel]] = True
                seen[~ok[d::k]] = True      # v = 0: the lane has no point
                alive &= seen
            count = alive.sum(axis=1)
            if not count.all():
                raise PointCountError("no group order in the Hasse interval "
                                      f"at {p[ids[count == 0][0]]}")
            one = count == 1
            ap[ids[one]] = traces[alive[one].argmax(axis=1)]
            left.append(ids[~one])
            kept.append(alive[~one])
        x[todo] += k
        todo, rows = np.concatenate(left), np.concatenate(kept)
        if todo.size and drawn >= _BSGS_MAX_POINTS:
            raise PointCountError(f"{_BSGS_MAX_POINTS} points left "
                                  f"{rows[0].sum()} orders at {p[todo[0]]}")
        k = _BSGS_REDRAW
    return ap, x


def _frobenius_traces(a: int, b: int, primes) -> list[int]:
    """a_p of the short model y^2 = x^3 + a x + b at each prime p > 229 in
    the list, good and prime to 6, all counted in one batch.  A point drawn
    after the search, one it never used, must lie on its curve and be
    annihilated by p + 1 - chi(v) a_p, or the whole call raises
    PointCountError."""
    if any(q >= _BSGS_MAX_P for q in primes):
        raise ValueError(f"baby-step giant-step needs p < {_BSGS_MAX_P}")
    p = np.array(primes, dtype=np.int64)
    a = np.array([a % q for q in primes], dtype=np.int64)
    b = np.array([b % q for q in primes], dtype=np.int64)
    ap, x = _search(a, b, p)
    for _ in range(3):                  # the cubic has at most three roots
        x += ((x * x % p + a) % p * x + b) % p == 0
    P, A, B, chi, _ = _points(a, b, p, x)
    X, Y, _ = P
    off = (Y * Y - ((X * X % p + A) % p * X + B)) % p != 0
    off |= _mul(p + 1 - chi * ap, P, A, p)[2] != 0
    if off.any():
        i = np.flatnonzero(off)[0]
        raise PointCountError(
            f"a_p = {ap[i]} at {p[i]} fails the check point "
            f"({X[i]}, {Y[i]}) of the twist by {chi[i]}")
    return ap.tolist()


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
