"""Number fields, and cyclic cubic fields in particular.

NumberField is Q[x]/(m) for a monic m irreducible over Q, and FieldElt is
its one exact element type in any degree: coefficients in the power basis
of the generator, products and inverses computed in Q[x] modulo m, the norm
as a resultant.  The cubic fields below and the quadratic field of the
slice family's marked section (in kummer) both run on it.

A monic integral cubic that is irreducible with square discriminant cuts
out a degree-3 Galois extension K of Q.  This module computes the exact
field discriminant of K (again a square), its conductor (the square root),
how rational primes decompose, the order-3 Galois action in closed form,
and the conjugate pair of cubic Dirichlet characters that corresponds to K.

The field discriminant comes from a per-prime ramification test rather than
a general maximal-order algorithm: for a cubic, p ramifies exactly when the
polynomial has a triple root mod p whose Newton polygon (after recentering
and rescaling as needed) is a single segment of non-integral slope; the one
candidate triple root has a closed form, so the test is O(1) per prime.
field_invariants applies it to a factored discriminant, for CubicField and
for the integer survey rows of the slice family in kummer alike.
Prime splitting is decided by counting p-adic roots exactly: the roots mod
p are found by trying every residue, a root where the derivative is a unit
lifts uniquely, and any other is recentered and counted again, which also
settles the primes dividing the index; no heuristic fallback is needed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .dirichlet import DirichletChar, galois_orbits
from .numcore import (Factorization, PolyQ, TheoryViolation, _fp_eval,
                      _fp_roots, cubic_discriminant, factor, is_perfect_square,
                      primes_up_to)


class ReducibleCubicError(ValueError):
    """The cubic has a rational root: the would-be field splits over Q."""

    def __init__(self, message: str, roots=()):
        super().__init__(message)
        self.roots = tuple(roots)


class NonCyclicCubicError(ValueError):
    """Irreducible but non-square discriminant: the Galois closure is S3."""


class FieldConsistencyError(TheoryViolation):
    """An exact invariant of cyclic cubic arithmetic failed."""


# the good primes up to this bound tell the character pairs of a conductor
# apart; all 537 conductors of census_37b(2 * 10**6, 30) separate at p <= 37
_MATCH_BOUND = 200


# ---------------------------------------------------------------------------
# exact p-adic root counting and ramification for cubics

def _compose_shift_scale(coeffs: list[int], r: int, p: int) -> list[int]:
    """Integer coefficients of f(r + p*x), by Horner in (r + p*x)."""
    out = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        new = [r * out[0] + c]
        new.extend(r * out[i] + p * out[i - 1] for i in range(1, len(out)))
        new.append(p * out[-1])
        out = new
    return out


def _primitive(coeffs: list[int], p: int) -> list[int]:
    v = min(_val(c, p) for c in coeffs if c)
    return [c // p ** v for c in coeffs]


def _val(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _zp_root_count(coeffs: list[int], p: int, depth: int = 0) -> int:
    """Exact number of roots in the p-adic integers of an integer polynomial
    with no repeated roots over Q.  A root r mod p with f'(r) != 0 mod p
    lifts uniquely; at any other root the disc r + p*Z_p is recentered,
    f(r + p*x), and counted again."""
    if depth > 64:
        raise FieldConsistencyError("p-adic root isolation failed to terminate")
    f = _primitive(coeffs, p)
    if not any(c % p for c in f):
        raise FieldConsistencyError("reduction collapsed after content removal")
    df = [i * c for i, c in enumerate(f)][1:]
    count = 0
    for r in _fp_roots(f, p):
        if _fp_eval(df, r, p):
            count += 1
        else:
            count += _zp_root_count(_compose_shift_scale(f, r, p), p, depth + 1)
    return count


def _is_ramified(c0: int, c1: int, c2: int, p: int, depth: int = 0) -> bool:
    """Does p ramify in Q[x]/(x^3 + c2 x^2 + c1 x + c0)?  Assumes the cubic
    is irreducible with square discriminant, so the only decomposition types
    are totally split, inert, and totally ramified."""
    if depth > 64:
        raise FieldConsistencyError("ramification analysis failed to terminate")
    # the only candidate triple root mod p: x^3 + c2 x^2 + ... = (x - r)^3
    # forces c2 = -3r, or c0 = -r^3 = -r at p = 3
    if p == 3:
        r = -c0 % 3
    else:
        r = -c2 * pow(3, -1, p) % p if c2 % p else 0
    # Taylor coefficients at r: the cubic recentered at r
    d2 = c2 + 3 * r
    d1 = c1 + 2 * c2 * r + 3 * r * r
    d0 = c0 + c1 * r + c2 * r * r + r ** 3
    if d2 % p or d1 % p or d0 % p:
        # separable, or a double root next to a simple one: the simple root
        # lifts, forcing a degree-1 factor over Q_p, hence total splitting
        return False
    if d0 == 0:
        raise FieldConsistencyError("rational root slipped past irreducibility")
    v0 = _val(d0, p)
    v1 = _val(d1, p) if d1 else None
    v2 = _val(d2, p) if d2 else None
    if v0 == 1 or (v0 == 2 and (v1 is None or v1 >= 2)):
        return True          # one Newton segment, slope v0/3 with 3 not | v0
    if v0 >= 3 and (v1 is None or v1 >= 2) and (v2 is None or v2 >= 1):
        # slope >= 1 throughout: pull a factor of p out of the root
        return _is_ramified(d0 // p ** 3, d1 // p ** 2, d2 // p, p, depth + 1)
    raise FieldConsistencyError(
        f"Newton polygon at {p} splits 1+2: discriminant cannot be square")


def field_invariants(c0: int, c1: int, c2: int, disc: int,
                     fac: Factorization) -> tuple[int, int, int]:
    """Field discriminant, conductor and index of the cyclic cubic field
    Q[x]/(x^3 + c2 x^2 + c1 x + c0), for an irreducible integral cubic with
    square discriminant disc whose factorization is fac.  Each prime of fac
    is tested by _is_ramified: the conductor is the product of 9 for a
    ramified 3 (wild, so its valuation in disc is >= 4) and of each ramified
    p = 1 mod 3, a ramified p = 2 mod 3 is impossible, and the field
    discriminant is the conductor squared.  It must divide disc by a square
    index; any failure raises FieldConsistencyError."""
    conductor = 1
    for p, e in fac.pairs:
        if e % 2 != 0:
            raise FieldConsistencyError(
                f"square discriminant has odd valuation {e} at {p}")
        if _is_ramified(c0, c1, c2, p):
            if p == 3:
                if e < 4:
                    raise FieldConsistencyError(
                        "wild ramification at 3 needs valuation >= 4")
                conductor *= 9
            elif p % 3 == 1:
                conductor *= p
            else:
                raise FieldConsistencyError(
                    f"prime {p} = 2 mod 3 cannot ramify in a cyclic cubic")
    field_disc = conductor * conductor
    index = isqrt(disc // field_disc)
    if index ** 2 * field_disc != disc:
        raise FieldConsistencyError("index^2 does not divide the discriminant cleanly")
    return field_disc, conductor, index


# ---------------------------------------------------------------------------
# number fields and their elements

def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"cannot coerce {v!r} into the field")


@dataclass(frozen=True)
class FieldElt:
    """Element c0 + c1*xi + ... + c(n-1)*xi^(n-1) of a number field of
    degree n with fixed generator xi.  Full exact field arithmetic,
    including division."""

    field: "NumberField"
    coeffs: tuple[Fraction, ...]

    def _wrap(self, cs) -> "FieldElt":
        return FieldElt(self.field, tuple(cs))

    def _reduce(self, g: PolyQ) -> "FieldElt":
        """The element g(xi): g reduced modulo the defining polynomial."""
        r = g % self.field.poly
        return self._wrap(r.coeff(i) for i in range(len(self.coeffs)))

    def _match(self, other):
        if isinstance(other, FieldElt):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field(other)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        other = self._match(other)
        return self._wrap(a + b for a, b in zip(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(-a for a in self.coeffs)

    def __sub__(self, other):
        return self + (-self._match(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            v = _as_fraction(other)
            return self._wrap(v * a for a in self.coeffs)
        return self._reduce(PolyQ.of(*self.coeffs)
                            * PolyQ.of(*self._match(other).coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElt":
        if self.is_zero():
            raise ZeroDivisionError("field element is zero")
        g = PolyQ.of(*self.coeffs)
        # extended Euclid in Q[x] against the defining polynomial
        r0, r1 = self.field.poly, g
        t0, t1 = PolyQ.of(), PolyQ.of(1)
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            t0, t1 = t1, t0 - q * t1
        if r0.degree != 0:
            raise FieldConsistencyError("defining polynomial is not irreducible")
        return self._reduce(t0 * PolyQ.const(1 / r0.coeff(0)))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, other)
        return self * self._match(other).inverse()

    def __rtruediv__(self, other):
        return self._match(other) * self.inverse()

    def __pow__(self, n: int) -> "FieldElt":
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        try:
            other = self._match(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.poly, self.coeffs))

    def trace(self) -> Fraction:
        """Trace of multiplication by self: the sum over i of the xi^i
        coefficient of self * xi^i."""
        xi = self.field.gen()
        return sum((self * xi ** i).coeffs[i] for i in range(len(self.coeffs)))

    def norm(self) -> Fraction:
        g = PolyQ.of(*self.coeffs)
        if g.is_zero():
            return Fraction(0)
        return self.field.poly.resultant(g)

    def __repr__(self):
        terms = " + ".join(f"{c}*xi^{i}" if i else str(c)
                           for i, c in enumerate(self.coeffs))
        return f"FieldElt({terms})"


class NumberField:
    """Q[x]/(poly), poly monic and irreducible over Q; its elements are
    written in the power basis of the generator xi, the class of x."""

    def __init__(self, poly: PolyQ):
        if poly.degree < 2 or poly.lc() != 1:
            raise ValueError("expected a monic polynomial of degree >= 2")
        self.poly = poly

    def __call__(self, *coeffs) -> FieldElt:
        n = self.poly.degree
        if len(coeffs) > n:
            raise ValueError(f"a degree-{n} field element has {n} coefficients")
        return FieldElt(self, tuple(_as_fraction(c) for c in coeffs)
                        + (Fraction(0),) * (n - len(coeffs)))

    def gen(self) -> FieldElt:
        return self(0, 1)

    def zero(self) -> FieldElt:
        return self(0)

    def one(self) -> FieldElt:
        return self(1)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        return f"NumberField({self.poly})"


# ---------------------------------------------------------------------------
# the cyclic cubic field itself

class CubicField(NumberField):
    """A cyclic cubic field Q[x]/(f), f monic integral irreducible with
    square discriminant.  Build with from_cubic, which normalizes the model
    and rejects reducible cubics before the constructor rejects a
    discriminant that is not a positive square, or one that differs from
    a supplied factorization.  The constructor itself does not look for
    rational roots."""

    def __init__(self, poly: PolyQ, disc_factorization: Factorization | None = None):
        super().__init__(poly)
        self._c = [int(poly.coeff(i)) for i in range(4)]
        c0, c1, c2 = self._c[:3]
        d = cubic_discriminant(c0, c1, c2)
        if d <= 0 or not is_perfect_square(d):
            raise NonCyclicCubicError(
                f"discriminant {d} is not a positive square: Galois group S3")
        self.poly_disc = d
        self.sqrt_poly_disc = isqrt(d)
        if disc_factorization is not None and disc_factorization.n != self.poly_disc:
            raise ValueError("supplied factorization does not match the discriminant")
        fac = disc_factorization if disc_factorization is not None \
            else factor(self.poly_disc)
        self.field_disc, self.conductor, self.index = field_invariants(
            c0, c1, c2, self.poly_disc, fac)
        self._sigma_xi: FieldElt | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_cubic(cls, poly, disc_factorization: Factorization | None = None
                   ) -> "CubicField":
        """Validate and normalize a monic cubic.  Rational coefficients are
        rescaled (x -> x/d) to an integral model of the same field."""
        if not isinstance(poly, PolyQ):
            poly = PolyQ.of(*poly)
        if poly.degree != 3 or poly.lc() != 1:
            raise ValueError("expected a monic cubic")
        dens = [poly.coeff(i).denominator for i in range(3)]
        if any(q != 1 for q in dens):
            # smallest d with d^(3-i) clearing the denominator of coeff i
            d = 1
            for q in factor(lcm(*dens)).primes:
                need = max(-(-factor(dens[i]).valuation(q) // (3 - i)) for i in range(3))
                d *= q ** need
            poly = PolyQ.of(poly.coeff(0) * d ** 3, poly.coeff(1) * d ** 2,
                            poly.coeff(2) * d, 1)
            disc_factorization = None
        roots = poly.rational_roots()
        if roots:
            raise ReducibleCubicError(
                f"cubic splits off rational roots {roots}", roots)
        return cls(poly, disc_factorization)

    def __repr__(self):
        return f"CubicField({self.poly}, conductor={self.conductor})"

    # -- Galois action -------------------------------------------------------

    def galois_action(self, e: FieldElt) -> FieldElt:
        """Image of e under the fixed generator sigma of Gal(K/Q).

        sigma(xi) is the second root of the defining cubic: dividing by
        (x - xi) leaves a quadratic whose discriminant is (root spread)^2,
        so its square root is +-sqrt(disc)/f'(xi), an element of K.  The
        positive branch of the integer square root of the discriminant is
        fixed once, making sigma deterministic."""
        if self._sigma_xi is None:
            xi = self.gen()
            c2 = self._c[2]
            fprime = 3 * xi * xi + 2 * c2 * xi + self._c[1]
            root_spread = self(self.sqrt_poly_disc) / fprime
            self._sigma_xi = (-xi - c2 + root_spread) / 2
            check = self._sigma_xi
            if self.poly(check) != self.zero():
                raise FieldConsistencyError("sigma(xi) is not a root")
        s = self._sigma_xi
        return e.coeffs[0] + e.coeffs[1] * s + e.coeffs[2] * s * s

    sigma = galois_action

    # -- arithmetic of primes --------------------------------------------------

    def splitting(self, p: int) -> str:
        """How p decomposes: 'split', 'inert' or 'ramified'.

        Ramified iff p divides the conductor.  Otherwise the exact count of
        p-adic roots of the defining cubic is 3 (split) or 0 (inert); primes
        dividing the index are handled by the recursive recentering in the
        root counter, not by reading the factorization mod p naively."""
        if self.conductor % p == 0:
            return "ramified"
        n = _zp_root_count(self._c, p)
        if n == 3:
            return "split"
        if n == 0:
            return "inert"
        raise FieldConsistencyError(
            f"{n} p-adic roots at {p}: impossible for a Galois cubic")

    def matching_character(self) -> DirichletChar:
        """The canonical representative of the conjugate character pair cut
        out by this field: chi(p) = 1 exactly at split primes.  Each good
        prime up to _MATCH_BOUND is split or not, decided once, and exactly
        one candidate's exponent table must agree at all of them."""
        f = self.conductor
        split = [(p, self.splitting(p) == "split")
                 for p in primes_up_to(_MATCH_BOUND) if f % p]
        survivors = []
        for chi in galois_orbits(f, 3):
            table = chi.exponent_table()
            if all((table[p % f] == 0) == s for p, s in split):
                survivors.append(chi)
        if len(survivors) != 1:
            raise FieldConsistencyError(
                f"{len(survivors)} order-3 character pairs mod {f} match the "
                f"splitting data at the primes up to {_MATCH_BOUND}")
        return survivors[0]

    def as_dict(self) -> dict:
        return {
            "cubic": [int(c) for c in self._c],
            "poly_disc": self.poly_disc,
            "field_disc": self.field_disc,
            "conductor": self.conductor,
            "index": self.index,
        }
