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
square root.  Baby and giant steps are normalized together and meet on
the affine x.  A prime whose first point has one annihilator in the
Hasse interval settles on it; only the others keep their few candidate
orders for the later rounds.  A point the search did not use must
confirm each a_p.  The a_n table is the curve's one store of a_p, kept as
one int64 array and handed out as read-only views.  an_table counts
exactly its new primes, those the search serves in one batch, passing the
sieve's int64 array of them and writing the int64 a_p straight into the
table, and fills the rest in numpy: prime powers by the Hecke recursion,
any other n as the product of two entries at most n / 2.  ap(p) reads the
table, and past its end counts [p] alone and keeps nothing, so the
commands reserve the table they need before their first series
(lvalue.calibrate).  Point counts need the declared conductor.

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
from .numcore import (TheoryViolation, factor, least_prime_factors,
                      primes_up_to)

# primes from here on are counted by the batched search.  On 2 vCPUs the
# Legendre count costs 53, 78, 153 and 271 us a prime at p = 1000, 2000,
# 5000 and 10^4, and one batch of a command's reserved table 16 us a prime
# (43 us for calibration's 95, where fixed costs weigh; 44 us at
# p = 3.2 * 10^6).  Counting 37b's primes from 1000 up to the tables that
# calibration at ell 3, the census to 415, the congruence sweep at ell 5
# to 590 and the slice samples reserve (1,669, 10,369, 14,752 and 31,134),
# the Legendre sum below a threshold of 1000, 2000 or 3000 and one batch
# above it take 4.1, 6.4 and 14.8 ms; 19.3, 22.3 and 30.2 ms; 26.8, 29.9
# and 39.3 ms; 52.0, 55.7 and 63.4 ms (medians of 9).  Mestre's theorem,
# on which the search relies to single out the order, needs p > 229.
_BSGS_MIN_P = 1000
# points of E and its twists a prime may draw before the search gives up
_BSGS_MAX_POINTS = 64
# points each unsettled prime draws per round after its first.  Every prime
# draws x = 1, 2, ... in the same order under the same cap whatever this
# is, so the same primes settle or raise; smaller rounds waste fewer draws.
# One batch of the last three tables above takes 19.1, 26.1 and 50.9 ms at
# 2 against 21.7, 31.4 and 58.2 ms at 8 (best of 7).
_BSGS_REDRAW = 2
# lanes, and primes, walked together: bounds the search's memory.  Every
# prime draws the same points whatever this is.  The 3,184 search primes
# of the 31,134-term table take 53, 48 and 46 ms in blocks of 512, 1024
# and 2048 (best of 15); the larger blocks' arrays cost peak RSS.
_BSGS_LANES = 512
# giant steps tested against all baby steps at once: the test's booleans
# take _BSGS_MATCH / 8 times the memory of an int64 row of baby steps
_BSGS_MATCH = 16
# primes whose check points walk together: bounds the group law's
# temporaries on a large batch (3.3 * 10^6 terms reserve 236,732 primes)
_BSGS_CHECK = 8192
# residues below this multiply inside int64
_BSGS_MAX_P = 2 ** 31
# entries of the a_n table filled together: bounds the sieve's
# temporaries, which are int64, since int32 loops would fault in numpy code
# that nothing else runs
_AN_BLOCK = 8192


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

        Read from the a_n table when it reaches p.  Past its end p is
        counted alone and nothing is kept."""
        if p < self._an.size:
            return int(self._an[p])
        return int(self._traces(np.array([p], dtype=np.int64))[0])

    def _traces(self, primes: np.ndarray) -> np.ndarray:
        """a_p at each prime of the int64 array, as an int64 array: one
        batch on the short model for the good primes from _BSGS_MIN_P up
        that do not divide 6 disc, _ap_one for the rest.  The declared
        conductor tells the bad primes, and its presence implies an
        integral model."""
        if self.conductor is None:
            raise ValueError("a_p needs the curve's conductor")
        six_disc = 6 * int(self.disc)
        batch = np.fromiter((p >= _BSGS_MIN_P and six_disc % p != 0
                             for p in map(int, primes)), bool, primes.size)
        ap = np.empty_like(primes)
        if batch.any():
            ap[batch] = _frobenius_traces(-27 * int(self.c4),
                                          -54 * int(self.c6), primes[batch])
        ap[~batch] = [self._ap_one(p) for p in map(int, primes[~batch])]
        return ap

    def _ap_one(self, p: int) -> int:
        """a_p at one prime the batch does not serve.  Bad multiplicative
        a_p is read off the minimal-model criterion: split (a_p = +1)
        exactly when -c6 is a square locally."""
        if self.conductor % p == 0:
            if self.conductor % (p * p) == 0:
                return 0  # additive
            c6 = int(-self.c6)
            if p == 2:
                # odd unit is a 2-adic square exactly when it is 1 mod 8
                return 1 if c6 % 8 == 1 else -1
            return 1 if pow(c6 % p, (p - 1) // 2, p) == 1 else -1
        if p == 2:
            count = 1  # origin
            for x in (0, 1):
                for y in (0, 1):
                    lhs = y * y + int(self.a1) * x * y + int(self.a3) * y
                    rhs = x ** 3 + int(self.a2) * x * x + int(self.a4) * x + int(self.a6)
                    if (lhs - rhs) % 2 == 0:
                        count += 1
            return 2 + 1 - count
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

    def an_table(self, limit: int) -> np.ndarray:
        """a_n for n = 0..limit (a_0 = 0), by the multiplicative sieve, as a
        read-only view of the curve's int64 table, its one store of a_p.

        A larger limit extends the table from its current end, and the new
        primes' a_p come from one _traces call.  The extended table is
        stored only once the sieve is done: a raise leaves the table as it
        was."""
        table = self._an
        start = table.size
        if limit >= start:
            an = np.empty(limit + 1, dtype=np.int64)
            an[:start] = table
            # least prime factor of each new n, 0 for primes
            spf = np.frombuffer(least_prime_factors(start, limit),
                                dtype=np.uint32)
            primes = np.flatnonzero(spf == 0) + start
            an[primes] = self._traces(primes)
            # a_{p^e} = a_p a_{p^(e-1)} - p a_{p^(e-2)}, the last term at
            # good p only
            for p in primes_up_to(isqrt(limit)):
                good = self.conductor % p != 0
                q = p * p
                while q <= limit:
                    if q >= start:
                        an[q] = an[p] * an[q // p] - (p * an[q // (p * p)]
                                                      if good else 0)
                    q *= p
            # a composite n = q m, q the full power of its least prime p and
            # m > 1 prime to p, has a_n = a_q a_m with q, m <= n / 2: each
            # range [lo, 2 lo) reads only entries below it, and is filled
            # in blocks
            lo = start
            while lo <= limit:
                hi = min(2 * lo, limit + 1)
                for b in range(lo, hi, _AN_BLOCK):
                    f = spf[b - start:min(b + _AN_BLOCK, hi) - start]
                    n = np.flatnonzero(f)
                    f = f[n].astype(np.int64)
                    n += b
                    q, m = f.copy(), n // f
                    r = np.flatnonzero(m % f == 0)
                    while r.size:
                        q[r] *= f[r]
                        m[r] //= f[r]
                        r = r[m[r] % f[r] == 0]
                    n, q, m = n[m > 1], q[m > 1], m[m > 1]
                    an[n] = an[q] * an[m]
                lo = hi
            table = self._an = an
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
    bad = np.flatnonzero(v == 0)
    o1, o2 = Z1[bad] == 0, Z2[bad] == 0
    for lanes, S in ((bad[(u[bad] == 0) & ~o1 & ~o2], None), (bad[o2], P),
                     (bad[o1], Q)):
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
    arrays: the lanes and their N.  Baby steps j P for j <= m and giant
    steps c P, c = lo + m + g (2m + 1), are normalized together with one
    Fermat inverse (of their product) and meet on the affine x, the origin
    keyed as x = p, which no residue equals.  c P = +-j P gives
    (c -+ j) P = O, both when y(j P) = 0, and a baby step at O matches a
    giant step at O.  Each N comes from one (c, j), so no lane repeats
    one."""
    wide = int(width.max())
    m = isqrt(wide // 2) + 1
    # the X, Y and Z rows of the baby steps 0..m, then of the giant steps
    E = np.empty((3, m + 1 + len(range(m, wide + m, 2 * m + 1)), p.size),
                 dtype=np.int64)
    E[:, 0] = [[0], [1], [0]]
    E[:, 1] = P
    for j in range(2, m + 1):
        E[:, j] = _add(E[:, j - 1], P, A, p)
    step = _add(_double(E[:, m], A, p), P, A, p)
    # (lo + m) P in base 2^w, the digits read off the baby steps
    lane = np.arange(p.size)
    w = (m + 1).bit_length() - 1
    c0 = lo + m
    shift = (int(c0.max()).bit_length() - 1) // w * w
    T = E[:, c0 >> shift, lane]
    for shift in range(shift - w, -1, -w):
        for _ in range(w):
            T = _double(T, A, p)
        T = _add(T, E[:, (c0 >> shift) & ((1 << w) - 1), lane], A, p)
    E[:, m + 1] = T
    for g in range(m + 2, E.shape[1]):
        E[:, g] = _add(E[:, g - 1], step, A, p)
    # Montgomery's trick: one inverse of the product of the nonzero Z
    X, Y, Z = E
    origin = Z == 0
    Z[origin] = 1
    below = np.empty_like(Z)
    acc = np.ones_like(p)
    for j in range(Z.shape[0]):
        below[j], acc = acc, acc * Z[j] % p
    acc = _pow_mod(acc, p - 2, p)
    for j in range(Z.shape[0] - 1, -1, -1):
        below[j], acc = below[j] * acc % p, acc * Z[j] % p
    for c in (X, Y):
        c *= below
        c %= p
    np.copyto(X, p, where=origin)
    # the giant steps meet the baby steps on x in chunks of _BSGS_MATCH
    hits = [np.nonzero(X[g:g + _BSGS_MATCH, None] == X[None, :m + 1])
            for g in range(m + 1, X.shape[0], _BSGS_MATCH)]
    g, j, i = (np.concatenate(c) for c in zip(*hits))
    g += np.repeat(np.arange(m + 1, X.shape[0], _BSGS_MATCH),
                   [h[0].size for h in hits])
    yb, yg = Y[j, i], Y[g, i]
    at_o = origin[g, i]
    down = at_o | (yb == yg)
    up = np.where(at_o, j > 0, (yb + yg) % p[i] == 0)
    c = m + (g - m - 1) * (2 * m + 1)
    i = np.concatenate([i[down], i[up]])
    n = lo[i] + np.concatenate([(c - j)[down], (c + j)[up]])
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
    s = np.fromiter((isqrt(4 * q) for q in map(int, p)), np.int64, p.size)
    top = int(s.max())
    traces = np.arange(-top, top + 1)
    ap, x = np.zeros_like(p), np.ones_like(p)
    # the unsettled primes and, after the first round, the number of each
    # one's candidate traces and their columns, prime after prime
    todo, held = np.arange(p.size), None
    k, drawn = 1, 0
    while todo.size:
        k = min(k, _BSGS_MAX_POINTS - drawn)
        drawn += k
        per = _BSGS_LANES // k
        if held is not None:
            ends = np.concatenate([[0], np.cumsum(held[0])])
        left, kept = [], []
        for at in range(0, todo.size, per):
            ids = todo[at:at + per]
            who = np.repeat(ids, k)
            draw = np.tile(np.arange(k), ids.size)
            P, A, _, chi, ok = _points(a[who], b[who], p[who], x[who] + draw)
            i, n = _annihilators(p[who], A, P, p[who] + 1 - s[who],
                                 2 * s[who] + 1)
            col = chi[i] * (p[who[i]] + 1 - n) + top
            if held is None:
                # one point a prime, whose annihilators are distinct: a
                # prime settles when its point has exactly one, and only
                # the others get a row of candidates, every trace of the
                # Hasse interval when v = 0 leaves the prime without a point
                count = np.where(ok, np.bincount(i, minlength=ids.size),
                                 2 * s[ids] + 1)
                one = count == 1
                sel = one[i]
                ap[ids[i[sel]]] = col[sel] - top
                alive = ((np.abs(traces) <= s[ids[~one], None])
                         & ~ok[~one, None])
                alive[(np.cumsum(~one) - 1)[i[~sel]], col[~sel]] = True
            else:
                # the block's rows of candidates, from the held columns
                alive = np.zeros((ids.size, traces.size), dtype=bool)
                alive[np.repeat(np.arange(ids.size), held[0][at:at + per]),
                      held[1][ends[at]:ends[at + ids.size]]] = True
                for d in range(k):
                    seen = np.zeros_like(alive)
                    sel = draw[i] == d
                    seen[i[sel] // k, col[sel]] = True
                    seen[~ok[d::k]] = True      # v = 0: the lane has no point
                    alive &= seen
                count = alive.sum(axis=1)
                one = count == 1
                ap[ids[one]] = traces[alive[one].argmax(axis=1)]
                alive = alive[~one]
            if not count.all():
                raise PointCountError("no group order in the Hasse interval "
                                      f"at {p[ids[count == 0][0]]}")
            left.append(ids[~one])
            kept.append((alive.sum(axis=1), np.nonzero(alive)[1]))
        x[todo] += k
        todo = np.concatenate(left)
        held = tuple(np.concatenate(c) for c in zip(*kept))
        if todo.size and drawn >= _BSGS_MAX_POINTS:
            raise PointCountError(f"{_BSGS_MAX_POINTS} points left "
                                  f"{held[0][0]} orders at {p[todo[0]]}")
        k = _BSGS_REDRAW
    return ap, x


def _frobenius_traces(a: int, b: int, p: np.ndarray) -> np.ndarray:
    """a_p of the short model y^2 = x^3 + a x + b at each prime p > 229 of
    the int64 array, good and prime to 6, all counted in one batch, as an
    int64 array.  A point drawn after the search, one it never used, must
    lie on its curve and be annihilated by p + 1 - chi(v) a_p, or the whole
    call raises PointCountError."""
    if (p >= _BSGS_MAX_P).any():
        raise ValueError(f"baby-step giant-step needs p < {_BSGS_MAX_P}")
    a = np.fromiter((a % q for q in map(int, p)), np.int64, p.size)
    b = np.fromiter((b % q for q in map(int, p)), np.int64, p.size)
    ap, x = _search(a, b, p)
    for _ in range(3):                  # the cubic has at most three roots
        x += ((x * x % p + a) % p * x + b) % p == 0
    # the check points, in blocks that bound the group law's temporaries
    for at in range(0, p.size, _BSGS_CHECK):
        lanes = slice(at, at + _BSGS_CHECK)
        q = p[lanes]
        P, A, B, chi, _ = _points(a[lanes], b[lanes], q, x[lanes])
        X, Y, _ = P
        off = (Y * Y - ((X * X % q + A) % q * X + B)) % q != 0
        off |= _mul(q + 1 - chi * ap[lanes], P, A, q)[2] != 0
        if off.any():
            i = np.flatnonzero(off)[0]
            raise PointCountError(
                f"a_p = {ap[at + i]} at {q[i]} fails the check point "
                f"({X[i]}, {Y[i]}) of the twist by {chi[i]}")
    return ap


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
