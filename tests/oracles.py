"""The tests' oracles: plain, slow computations of what the program computes
by a faster route.  The mpmath loops compute one term at a time what the
double-double kernels compute in vectorised form; the others enumerate, or
eliminate in sympy, what the program reads off a closed form.  No module of
the program imports this one.

- pointwise_gauss_sum: tau(chi) from its definition, one complex exponential
  per residue, chi evaluated pointwise.
- periods_gauss_sums: every tau(chi^j) of an orbit from the real Gaussian
  periods, one mpmath cosine per residue; the oracle of
  DirichletChar.gauss_sums.
- buckets: B_k(r), one mpf term at a time; the oracle of lvalue._dd_buckets.
- bucket_sums: each bucket's exact sum by math.fsum over its entries as a
  Python list; the oracle of the binned numcore._bucket_sums.
- oracle_value: L(E, 1, chi) from the per-character series, one complex term
  at a time, with chi and its Gauss sum evaluated pointwise.
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
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import fsum, isqrt

import mpmath
import numpy as np

from elltwists.dirichlet import DirichletChar, conductor_primes
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
    for c, k in enumerate(chi.exponent_table(f // 2).tolist()):
        if k >= 0:
            eta[k] += mpmath.cospi(mpmath.mpf(2 * c) / f)
    zeta = [mpmath.exp(2j * mpmath.pi * k / ell) for k in range(ell)]
    return {j: 2 * mpmath.fsum(zeta[j * k % ell] * e for k, e in enumerate(eta))
            for j in range(1, ell)}


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


def buckets(an: list[int], exps: np.ndarray, ell: int, r, M: int) -> list:
    """B_k(r) = sum_{n <= M, ind(n) = k} (a_n / n) r^n for k = 0..ell-1,
    one mpf term at a time: the double-double kernel's oracle."""
    out = [mpmath.mpf(0)] * ell
    p = mpmath.mpf(1)
    for n in range(1, M + 1):
        p *= r
        k = exps[n]
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
