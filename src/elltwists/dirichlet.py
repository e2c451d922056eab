"""Dirichlet characters of odd prime order ell.

A primitive character of order ell has conductor f = q_1 ... q_k or
ell^2 * q_1 ... q_k with the q_i distinct primes = 1 mod ell
(conductor_primes is the one copy of that rule).  Each prime piece is
cyclic, so the character is stored as one (q, e) pair per prime q | f,
sorted by prime, with e in {1, ..., ell-1} the exponent, and

    chi(a) = zeta_ell ^ sum_i e_i * ind_{g_i}(a mod m_i)   (mod ell),

with chi(a) = 0 whenever gcd(a, f) > 1.  The prime-power modulus m (q, or
ell^2 when q = ell) and the generator g = primitive_root(m) of (Z/m)^* are
derived from q, never stored, and nothing else is kept per modulus:
exponent_table, one period n < f read at n % f, and value_exponent compute
exponents per call, by two independent routes.  Characters of odd order are
automatically even, and f is odd, so c and f - c share an exponent: one pass
over the real Gaussian periods

    eta_k = 2 sum_{1 <= c < f/2, ind(c) = k} cos(2 pi c / f)

gives every Gauss sum of a Galois orbit as tau(chi^j) = sum_k zeta^(jk) eta_k.

gauss_sums(period, ell) is the one Gauss-sum kernel, a function of the
exponent period alone: it sums the periods in double-double with the helpers
of numcore and bounds every |d tau| by about 2^-100 f.  gauss_sum and the
L-value series (lvalue) read it at every working precision; its mpmath
oracles live in the tests.

galois_orbits is the one enumeration: the canonical member of each orbit of
conductor f, read straight off the exponent vectors with the first exponent
1.  Its oracle, the full list of characters of conductor f, lives in the
tests, and lvalue.served_orbits walks the admissible conductors.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd, prod

import mpmath
import numpy as np

from .numcore import (_DD_ROUNDOFF, _bucket_sums, _dd_mul, _dd_table,
                      _roots_of_unity, factor, is_prime, power_tables,
                      primes_up_to)


@lru_cache(maxsize=None)
def primitive_root(m: int) -> int:
    """Smallest generator of (Z/m)^* for m an odd prime or odd prime square."""
    f = factor(m)
    if len(f.pairs) != 1 or f.pairs[0][0] == 2 or f.pairs[0][1] > 2:
        raise ValueError(f"modulus {m} is not an odd prime or its square")
    p, k = f.pairs[0]
    phi = p - 1
    qs = factor(phi).primes
    g = 2
    while True:
        if all(pow(g, phi // q, p) != 1 for q in qs):
            break
        g += 1
    if k == 1:
        return g
    # lift to p^2: g works unless g^(p-1) = 1 mod p^2
    return g if pow(g, p - 1, p * p) != 1 else g + p


def _carries_order(q: int, ell: int) -> bool:
    """Whether some primitive order-ell character lives on the prime q:
    q is prime, and q = ell (modulus ell^2) or q = 1 mod ell."""
    return is_prime(q) and (q == ell or q % ell == 1)


def _unit_group(q: int, ell: int) -> tuple[int, int]:
    """(m, g) of the component at q: the prime-power modulus m, q or ell^2
    when q = ell, and the generator g = primitive_root(m) of (Z/m)^*."""
    m = q * q if q == ell else q
    return m, primitive_root(m)


def gauss_sums(period: np.ndarray, ell: int) -> tuple[dict, float]:
    """{j: tau(chi^j)} for j = 1..ell-1 from the real Gaussian periods
    eta_k = sum_{c < f/2, period[c] = k} cos(2 pi c / f), f = period.size,
    summed in double-double, tau(chi^j) = 2 sum_k zeta^(jk) eta_k at the
    current mpmath precision, and a bound on every |tau^dd - tau|, where
    period = chi.exponent_table() is the exponent table of the orbit of chi.

    e(c/f) = e(qB/f) e(s/f) with c = qB + s and B = isqrt(f // 2) + 1, so
    cos(2 pi c / f) is the difference of two Dekker products of anchors.
    The anchors are powers of the one Gaussian integer floor(e(1/f) 2^K)
    in K-bit fixed point, each within trunc = 4 (f + 2B) 2^-K of its
    power of e(1/f), so a residue's two products are within 5 trunc of
    theirs.  The (hi, lo) parts of both products, at most 2f entries,
    go to numcore._bucket_sums unchunked (it bins each in passes of
    2^20 entries once f passes 2^21), and each bucket is summed exactly
    and rounded once to (hi, lo), so

        |eta_k^dd - eta_k| <= _DD_ROUNDOFF sum_{ind(c) = k} |terms|
                              + 5 trunc #{c : ind(c) = k},

    and |tau^dd - tau| <= 2 sum_k |eta_k^dd - eta_k|."""
    f = period.size
    half = f // 2
    K = 160 + f.bit_length()
    with mpmath.workprec(K + 8):
        e1 = mpmath.expjpi(mpmath.mpf(2) / f)
        z = (int(mpmath.ldexp(e1.real, K)), int(mpmath.ldexp(e1.imag, K)))
    # Gaussian integers (x, y) = x + iy, each coordinate truncated
    B, small, big = power_tables(
        z, (1 << K, 0), lambda a, b: ((a[0] * b[0] - a[1] * b[1]) >> K,
                                      (a[0] * b[1] + a[1] * b[0]) >> K),
        half)
    (ch, cl), (sh, sl), (Ch, Cl), (Sh, Sl) = (
        _dd_table([v[i] for v in table], K)
        for table in (small, big) for i in (0, 1))
    exps = period[:half + 1]
    c = np.flatnonzero(exps >= 0)
    exps = exps[c]
    q, s = np.divmod(c, B)
    # cos(2 pi c / f) = cos_q cos_s - sin_q sin_s, both exact as (hi, lo)
    ph, pl = _dd_mul(Ch[q], Cl[q], ch[s], cl[s])
    mh, ml = _dd_mul(Sh[q], Sl[q], sh[s], sl[s])
    size = float(np.abs(ph).sum() + np.abs(mh).sum())
    eta = [mpmath.mpf(hi) + lo
           for hi, lo in _bucket_sums(exps, ell, ph, pl, -mh, -ml)]
    zeta = _roots_of_unity(ell, mpmath.mp.prec)
    taus = {j: 2 * mpmath.fsum(zeta[j * k % ell] * e for k, e in enumerate(eta))
            for j in range(1, ell)}
    trunc = math.ldexp(4 * (f + 2 * B), -K)
    return taus, 2 * (_DD_ROUNDOFF * size + 5 * trunc * len(c))


@dataclass(frozen=True)
class DirichletChar:
    """Primitive Dirichlet character of order exactly ell (odd prime)."""

    ell: int
    # one (prime, exponent) pair per prime dividing the conductor, by prime
    components: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not is_prime(self.ell) or self.ell == 2:
            raise ValueError("order must be an odd prime")
        if not self.components:
            raise ValueError("the trivial character is excluded")
        primes = [q for q, _ in self.components]
        if any(a >= b for a, b in zip(primes, primes[1:])):
            raise ValueError("component primes must strictly increase")
        for q, e in self.components:
            if not _carries_order(q, self.ell):
                raise ValueError(f"{q} is not a prime carrying order {self.ell}")
            if not 1 <= e < self.ell:
                raise ValueError("component exponents lie in 1..ell-1")

    # -- construction ------------------------------------------------------

    @property
    def conductor(self) -> int:
        return prod(_unit_group(q, self.ell)[0] for q, _ in self.components)

    # -- evaluation --------------------------------------------------------

    def value_exponent(self, a: int) -> int | None:
        """k with chi(a) = zeta^k, or None when chi(a) = 0: with
        h = phi(m) / ell, a^h is the power (g^h)^(ind(a) mod ell) of g^h."""
        total = 0
        for q, e in self.components:
            if a % q == 0:
                return None
            m, g = _unit_group(q, self.ell)
            h = (m - m // q) // self.ell
            powers = [pow(g, h * j, m) for j in range(self.ell)]
            total += e * powers.index(pow(a, h, m))
        return total % self.ell

    def exponent_table(self) -> np.ndarray:
        """value_exponent(n) for n in 0..f-1, one period, as an int64 array,
        with -1 for chi(n) = 0; callers read n as table[n % f].

        The series' hot path: each component walks g^i = g^(jB) g^s for i
        from 0 past m and scatters i mod ell, which ell | phi(m) makes one
        value per unit, over the residues mod m (-1 off the units).  That
        array is read for the whole period at once and then dropped."""
        n = np.arange(self.conductor, dtype=np.int64)
        total = np.zeros(len(n), dtype=np.int64)
        for q, e in self.components:
            m, g = _unit_group(q, self.ell)
            _, small, big = power_tables(g, 1, lambda a, b: a * b % m, m)
            units = np.multiply.outer(np.array(big), np.array(small)).ravel() % m
            ind = np.full(m, -1, dtype=np.int64)
            ind[units] = np.arange(units.size) % self.ell
            v = ind[n % m]
            total = np.where((total < 0) | (v < 0), -1, total + e * v)
        return np.where(total >= 0, total % self.ell, -1)

    def __call__(self, a: int) -> complex:
        k = self.value_exponent(a)
        if k is None:
            return 0j
        return cmath.exp(2j * cmath.pi * k / self.ell)

    def gauss_sum(self):
        """tau(chi) from gauss_sums, at the current mpmath precision and
        within that kernel's bound of about 2^-100 f."""
        return gauss_sums(self.exponent_table(), self.ell)[0][1]

    # -- structure ---------------------------------------------------------

    def power(self, j: int) -> "DirichletChar":
        """chi^j for j not divisible by ell (stays primitive of order ell)."""
        j %= self.ell
        if j == 0:
            raise ValueError("chi^0 is the trivial character")
        return DirichletChar(
            self.ell, tuple((q, e * j % self.ell) for q, e in self.components))

    def __mul__(self, other: "DirichletChar") -> "DirichletChar":
        """Product of characters of coprime conductors (stays primitive)."""
        if not isinstance(other, DirichletChar):
            return NotImplemented
        if self.ell != other.ell:
            raise ValueError("mixed orders")
        if gcd(self.conductor, other.conductor) != 1:
            raise ValueError("character product needs coprime conductors")
        return DirichletChar(self.ell, tuple(sorted(self.components + other.components)))

    def orbit(self) -> list["DirichletChar"]:
        """The Galois orbit {chi^j : 1 <= j < ell}, all sharing one L-packet."""
        return [self.power(j) for j in range(1, self.ell)]

    def canonical(self) -> "DirichletChar":
        """Lex-smallest exponent vector in the orbit; orbit's stable name.
        chi^j runs the first exponent e_1 over all of 1..ell-1, so the
        least member is the one with e_1 = 1, chi^(1/e_1 mod ell)."""
        return self.power(pow(self.components[0][1], -1, self.ell))

    def label(self) -> str:
        inner = ", ".join(f"{q}:{e}" for q, e in self.components)
        return f"({self.conductor}; {inner})"

    @classmethod
    def from_label(cls, ell: int, label: str) -> "DirichletChar":
        body = label.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError(f"bad character label {label!r}")
        cond_part, _, exps_part = body[1:-1].partition(";")
        exps = dict(map(int, piece.split(":"))
                    for piece in exps_part.split(",") if piece.strip())
        chi = cls(ell, tuple((q, exps[q] % ell) for q in sorted(exps)))
        if chi.conductor != int(cond_part.strip()):
            raise ValueError(f"label conductor mismatch in {label!r}")
        return chi


# ---------------------------------------------------------------------------
# enumeration

def admissible_conductors(ell: int, bound: int) -> list[int]:
    """Conductors <= bound carrying a primitive order-ell character:
    squarefree products of primes = 1 mod ell, optionally times ell^2."""
    qs = [p for p in primes_up_to(bound) if p % ell == 1]
    out = []

    def rec(i: int, acc: int):
        out.append(acc)
        for j in range(i, len(qs)):
            nxt = acc * qs[j]
            if nxt > bound:
                break
            rec(j + 1, nxt)

    rec(0, 1)
    if ell * ell <= bound:
        base = [f for f in out if f * ell * ell <= bound]
        out.extend(f * ell * ell for f in base)
    return sorted(f for f in set(out) if f > 1)


def conductor_primes(f: int, ell: int) -> tuple[int, ...]:
    """The primes of f when f is the conductor of a primitive order-ell
    character: q = ell needs exponent 2; any other q needs exponent 1 and
    q = 1 mod ell."""
    pairs = factor(f).pairs
    if not pairs or any(not _carries_order(q, ell) or k != 1 + (q == ell)
                        for q, k in pairs):
        raise ValueError(f"{f} is not an admissible conductor for order {ell}")
    return tuple(q for q, _ in pairs)


def galois_orbits(f: int, ell: int) -> list[DirichletChar]:
    """Canonical representatives of the (ell-1)^(k-1) orbits of conductor f:
    the characters with first exponent 1, in exponent-vector order."""
    first, *rest = conductor_primes(f, ell)
    return [DirichletChar(ell, ((first, 1), *zip(rest, exps)))
            for exps in product(range(1, ell), repeat=len(rest))]
