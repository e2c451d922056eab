"""The tests' oracles: plain, slow computations of what the program computes
by a faster route.  The mpmath loops compute one term at a time what the
double-double kernels compute in vectorised form; the others enumerate, or
eliminate in sympy, what the program reads off a closed form.  No module of
the program imports this one.

- pointwise_gauss_sum: tau(chi) from its definition, one complex exponential
  per residue, chi evaluated pointwise.
- periods_gauss_sums: every tau(chi^j) of an orbit from the real Gaussian
  periods, one mpmath cosine per residue; the oracle of
  dirichlet.gauss_sums.
- buckets: B_k(r), one mpf term at a time; the oracle of lvalue._dd_buckets.
- bucket_sums: each bucket's exact sum by math.fsum over its entries as a
  Python list; the oracle of the binned numcore._bucket_sums.
- oracle_value: L(E, 1, chi) from the per-character series, one complex term
  at a time, with chi and its Gauss sum evaluated pointwise.
- series_residual: the worst miss of an orbit's series coset sums against
  its exact ones, summed in mpmath at a given precision; the oracle of the
  complex-float lvalue._series_residual.
- characters_of_conductor: every character of conductor f, one per exponent
  vector; the oracle of dirichlet.galois_orbits.
- genus3_curve: the genus-3 slice fiber as a sympy plane quartic, smooth or
  not by elimination resultants and a Groebner basis; the oracle of
  kummer.good_fiber, the closed-form verdict that kummer-fiber prints.
- fp_roots: the roots mod p of an integer polynomial of any degree, by
  Horner at every residue; the oracle of the cubic-only numcore._fp_roots.
- least_prime_factors: the least prime factor table of a window, each
  multiple marked once by the least prime that reaches it; the oracle of
  the slice-filled numcore.least_prime_factors.
- integer_roots_by_divisors: the integer roots of a monic cubic, by trying
  every divisor of its lowest nonzero coefficient; the oracle of
  numcore._monic_cubic_integer_roots.
- census_37b_by_pairs: the slice-family survey with one full kummer._e37b_row
  per parameter pair; the oracle of kummer.census_37b, which classifies
  each integral model once for a pair and its rotation.
- an_table_by_loop: a_n by the multiplicative sieve, one n at a time in
  Python ints over the least_prime_factors above; the oracle of the
  numpy-filled elliptic.Curve.an_table.
- model_scale_holds: the model-scale identity on the slice coefficients of
  the curve rescaled by weight h2; the oracle of the closed-form
  kummer._check_model_scale.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import fsum, gcd, isqrt

import mpmath
import numpy as np

from elltwists.dirichlet import DirichletChar, conductor_primes
from elltwists.kummer import (CensusFieldRow, E37bCensus, SurfaceError,
                              _e37b_row, _e37b_sieve, _slice_coefficients)
from elltwists.numcore import primes_up_to


def pointwise_gauss_sum(chi):
    """Reference tau(chi) = sum_{c mod f} chi(c) e^(2 pi i c / f), one
    complex exponential per residue, chi evaluated pointwise."""
    f = chi.conductor
    two_pi_i = 2j * mpmath.pi
    zeta = [mpmath.e ** (two_pi_i * k / chi.ell) for k in range(chi.ell)]
    total = mpmath.mpc(0)
    for c in range(1, f):
        k = chi.value_exponent(c)
        if k is not None:
            total += zeta[k] * mpmath.e ** (two_pi_i * c / f)
    return total


def periods_gauss_sums(chi) -> dict:
    """{j: tau(chi^j)} for j = 1..ell-1, tau(chi) = sum_{c mod f} chi(c)
    e^(2 pi i c / f), at the current mpmath precision, from one pass."""
    f, ell = chi.conductor, chi.ell
    eta = [mpmath.mpf(0)] * ell
    period = chi.exponent_table()
    for c in range(f // 2 + 1):
        k = int(period[c % f])
        if k >= 0:
            eta[k] += mpmath.cospi(mpmath.mpf(2 * c) / f)
    zeta = [mpmath.exp(2j * mpmath.pi * k / ell) for k in range(ell)]
    return {j: 2 * mpmath.fsum(zeta[j * k % ell] * e for k, e in enumerate(eta))
            for j in range(1, ell)}


def series_residual(rows: dict, sums: tuple, scale: Fraction,
                    dps: int) -> float:
    """max_t |S^num_t - S_t|, S^num_t the inverse finite Fourier transform
    of the rows at scale, seeded at j = 0 by the exact total sum(sums), in
    mpmath at dps digits."""
    ell = len(sums)
    with mpmath.workdps(dps):
        inv_scale = mpmath.mpf(scale.denominator) / scale.numerator
        zeta = [mpmath.exp(2j * mpmath.pi * k / ell) for k in range(ell)]
        return max(float(abs(
            (sum(sums) + inv_scale * mpmath.fsum(
                zeta[j * t % ell] * rows[j] for j in range(1, ell))) / ell - s))
            for t, s in enumerate(sums))


def bucket_sums(k: np.ndarray, ell: int, *parts) -> list:
    """For j = 0..ell-1, the exact sum of the parts' entries where k = j,
    rounded once to a double-double pair: math.fsum of the bucket's
    entries, then of the entries and minus that sum."""
    out = []
    for j in range(ell):
        entries = np.concatenate([p[k == j] for p in parts]).tolist()
        hi = fsum(entries)
        entries.append(-hi)
        out.append((hi, fsum(entries)))
    return out


def buckets(an: list[int], period: np.ndarray, ell: int, r, M: int) -> list:
    """B_k(r) = sum_{n <= M, ind(n) = k} (a_n / n) r^n for k = 0..ell-1,
    one mpf term at a time, ind(n) read off the exponent table's period at
    n mod f: the double-double kernel's oracle."""
    out = [mpmath.mpf(0)] * ell
    p = mpmath.mpf(1)
    for n in range(1, M + 1):
        p *= r
        k = period[n % len(period)]
        if an[n] and k >= 0:
            out[k] += an[n] * p / n
    return out


def oracle_value(curve, chi, err):
    """Reference L(E, 1, chi): the per-character series, one complex term
    at a time, with chi and its Gauss sum evaluated pointwise, summed until
    its own tail bound drops below err / 100."""
    N, w, f, ell = curve.conductor, curve.root_number, chi.conductor, chi.ell
    r = mpmath.exp(-2 * mpmath.pi / (f * mpmath.sqrt(N)))
    zeta = [mpmath.exp(2j * mpmath.pi * k / ell) for k in range(ell)]
    tau = pointwise_gauss_sum(chi)
    eps = w * zeta[chi.value_exponent(N)] * tau * tau / f
    # the last n: the first at which the tail bound 2 r^(n+1) / (1 - r)
    # is no longer above err / 100
    last, p = 0, mpmath.mpf(1)
    while 2 * p * r / (1 - r) > err / 100:
        last, p = last + 1, p * r
    # one read up to the last n, as ints, which mpmath takes and np.int64
    # is not: growing the table one n at a time would copy all of it at
    # every step
    an = curve.an_table(last).tolist()
    s1 = s2 = mpmath.mpc(0)
    p = mpmath.mpf(1)
    for n in range(1, last + 1):
        p *= r
        k = chi.value_exponent(n)
        if k is not None:
            term = mpmath.mpf(an[n]) / n * p
            s1 += term * zeta[k]
            s2 += term * zeta[-k % ell]
    return s1 + eps * s2


def characters_of_conductor(f: int, ell: int) -> list[DirichletChar]:
    """All (ell-1)^k primitive order-ell characters of conductor f, in
    exponent-vector order."""
    primes = conductor_primes(f, ell)
    return [DirichletChar(ell, tuple(zip(primes, exps)))
            for exps in product(range(1, ell), repeat=len(primes))]


@dataclass(frozen=True)
class Genus3Fiber:
    A: Fraction
    B: Fraction
    t0: Fraction
    equation: object        # a sympy expression in xi1 and xi2
    smooth: bool
    method: str


def genus3_curve(A, B, t0) -> Genus3Fiber:
    """Plane quartic fiber over t0 with an exact smoothness verdict.  The
    equation is a sympy polynomial in the two slice roots xi1 and xi2.  A
    coprime pair of elimination resultants certifies smoothness outright;
    when they share a factor the candidate locus need not extend to an
    actual singular point, so a Groebner basis settles those cases."""
    import sympy  # deferred, so only the tests that call this load it
    A, B, t0 = Fraction(A), Fraction(B), Fraction(t0)
    xi1, xi2 = sympy.symbols("xi1 xi2")
    a, b, tt = (sympy.Rational(c) for c in (A, B, t0 * t0))
    F = sympy.expand(
        (xi1 ** 2 + xi1 * xi2 + xi2 ** 2 - tt * (xi1 + xi2) + a) ** 2
        - 4 * tt * xi1 * xi2 * (tt - xi1 - xi2) - 4 * b * tt)
    F1, F2 = sympy.diff(F, xi1), sympy.diff(F, xi2)
    # F is monic of degree 4 in xi2, so the resultants vanish exactly on
    # xi1-coordinates of common zeros; no leading-coefficient artifacts
    r1 = sympy.resultant(F, F1, xi2)
    r2 = sympy.resultant(F, F2, xi2)
    if r1 != 0 and r2 != 0 and sympy.degree(sympy.gcd(r1, r2), xi1) == 0:
        return Genus3Fiber(A, B, t0, F, True, "resultant")
    basis = sympy.groebner([F, F1, F2], xi1, xi2, order="grevlex")
    smooth = list(basis.exprs) == [sympy.Integer(1)]
    return Genus3Fiber(A, B, t0, F, smooth, "groebner")


def fp_roots(c: list[int], p: int) -> list[int]:
    """The distinct roots in F_p of the integer polynomial c (low degree
    first, any degree), ascending, by Horner at every residue."""
    c = [v % p for v in c]
    roots = []
    for r in range(p):
        acc = 0
        for v in reversed(c):
            acc = (acc * r + v) % p
        if acc == 0:
            roots.append(r)
    return roots


def least_prime_factors(lo: int, hi: int) -> list[int]:
    """The least prime factor of each composite n in [lo, hi] (lo >= 2),
    0 at the primes: the primes in ascending order mark each multiple that
    no smaller prime marked."""
    spf = [0] * (hi + 1 - lo)
    for p in primes_up_to(isqrt(hi)):
        for m in range(max(p * p, -(-lo // p) * p), hi + 1, p):
            if not spf[m - lo]:
                spf[m - lo] = p
    return spf


def integer_roots_by_divisors(c0: int, c1: int, c2: int) -> list[int]:
    """The integer roots of x^3 + c2 x^2 + c1 x + c0, each once, ascending:
    0 while the lowest coefficient vanishes, then every other root divides
    the lowest nonzero coefficient, so each divisor and its negative is
    tried exactly."""
    coeffs = [c0, c1, c2, 1]
    roots = set()
    while coeffs[0] == 0:
        roots.add(0)
        coeffs = coeffs[1:]
    a0 = abs(coeffs[0])
    for d in range(1, isqrt(a0) + 1):
        if a0 % d == 0:
            for x in (d, -d, a0 // d, -(a0 // d)):
                if sum(c * x ** i for i, c in enumerate(coeffs)) == 0:
                    roots.add(x)
    return sorted(roots)


def census_37b_by_pairs(max_conductor: int, height_bound: int) -> E37bCensus:
    """The slice-family survey built one full row per coprime parameter
    pair, with the same squarefree flags, new-field marks and distinctness
    check as kummer.census_37b."""
    rows = []
    seen: set[int] = set()
    products: dict[int, int] = {}
    params = [(1, 0)] + [(a, b) for b in range(1, height_bound + 1)
                         for a in range(-height_bound, height_bound + 1)
                         if gcd(a, b) == 1]
    lpf = _e37b_sieve(max(height_bound, 1))
    for a, b in params:
        row = _e37b_row(a, b, lpf)
        fac, conductor = row.h_factorization, row.conductor
        squarefree = all(e == 1 for p, e in fac.pairs if p not in (2, 3, 37))
        new = squarefree and conductor not in seen
        rows.append(CensusFieldRow(a, b, row.h1, row.h2, squarefree,
                                   conductor, new))
        if squarefree:
            seen.add(conductor)
        if fac.is_squarefree():
            value = row.h1 * row.h2
            prev = products.setdefault(conductor, value)
            if prev != value:
                raise SurfaceError(
                    f"distinct squarefree parameters {prev} and {value} "
                    f"constructed the same conductor {conductor}")
    conductors = tuple(sorted(c for c in seen if c <= max_conductor))
    return E37bCensus(height_bound, max_conductor, tuple(rows), conductors)


def an_table_by_loop(curve, limit: int) -> list:
    """a_n for n = 0..limit (a_0 = 0) as Python ints, one n at a time: a
    prime takes the a_p of curve._traces, a prime power p^e the Hecke
    recursion (its p a_{p^(e-2)} term at good p only), and any other n
    = q m, q the full power of its least prime, a_q a_m."""
    spf = [0, 0] + least_prime_factors(2, limit)
    traces = iter(curve._traces(np.array([n for n in range(2, limit + 1)
                                          if not spf[n]])).tolist())
    a = [0, 1]
    for n in range(2, limit + 1):
        p = spf[n] or n
        q, m = p, n // p
        while m % p == 0:
            q, m = q * p, m // p
        if m > 1:
            a.append(a[q] * a[m])
        elif q == p:
            a.append(next(traces))
        else:
            a.append(a[p] * a[q // p] - (p * a[q // (p * p)]
                                         if curve.conductor % p else 0))
    return a


def model_scale_holds(ai, h1: int, h2: int, model) -> bool:
    """h2^(3-i) c_i == m_i on the slice coefficients c_i at t = 0,
    u = h1 / h2, checked in ints on the curve rescaled by weight h2
    (a_i -> h2^i a_i), whose slice at u = h1 h2^2 has the coefficients
    h2^(2(3-i)) c_i."""
    weighted = [c * h2 ** w for c, w in zip(ai, (1, 2, 3, 4, 6))]
    scaled = _slice_coefficients(weighted, 0, h1 * h2 * h2)
    return all(s == h2 ** (3 - i) * m
               for i, (s, m) in enumerate(zip(scaled, model)))
