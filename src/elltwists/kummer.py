"""Line slices of a Weierstrass curve and the surfaces they sweep out.

Substituting the pencil of lines y = t x + u into a Weierstrass equation
leaves a monic cubic in x whose discriminant is a quartic in u.  Parameters
(t0, u) where that quartic is a rational square cut the curve in a
Galois-stable triple of points, so each such slice hands us a cyclic cubic
field together with a trace-zero point.  This module builds the slice
discriminant one fiber t0 at a time, as a quartic over Q in u, and searches
those fibers for square values, walking u by height and testing the
quartic for a rational square.  It decides whether a fiber is smooth by the
closed-form bad locus of the short model, tracks the associated jacobian
family with its marked section over Q(sqrt(-3)), decides the solvability of
the fiber conic by the norm criterion, carries the two torsion pencils with
their infinite-order certificates, and sweeps the parameter grid of the
conductor-37 slice family into a conductor census, one row of Python ints
per parameter pair.
Q(sqrt(-3)), where the marked section and the nodal fiber's certificate
live, is a cubicfield.NumberField: this module does no field arithmetic of
its own.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

from .cubicfield import CubicField, FieldElt, NumberField, field_invariants
from .elliptic import Curve, is_nontorsion, on_curve
from .numcore import (Factorization, PolyQ, TheoryViolation,
                      _monic_cubic_integer_roots, cubic_discriminant,
                      cubic_double_root, factor, is_perfect_square,
                      least_prime_factors)


class SurfaceError(TheoryViolation):
    """An exact identity that the slice geometry guarantees failed."""


def _sqrt_fraction(x: Fraction) -> Fraction | None:
    """Exact rational square root; numerator and denominator are tested
    separately, never through floats."""
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        return None
    return Fraction(rn, rd)


# Q(sqrt(-3)) = Q[x]/(x^2 + 3), whose generator is sqrt(-3): the field of
# the jacobian family's marked section and of the conjugate node tangents
Q_SQRT_MINUS_3 = NumberField(PolyQ.of(3, 0, 1))


# ---------------------------------------------------------------------------
# the slice discriminant


def _slice_coefficients(ai, t, u) -> tuple:
    """(r, q, p) of the slice cubic x^3 + p x^2 + q x + r cut out by the
    line y = t x + u from the curve with a-invariants ai = (a1, a2, a3, a4,
    a6), over any ring that holds t, u and the a-invariants."""
    a1, a2, a3, a4, a6 = ai
    p = a2 - t * t - a1 * t
    q = a4 - 2 * t * u - a1 * u - a3 * t
    r = a6 - u * u - a3 * u
    return r, q, p


def fiber_quartic(curve: Curve, t0) -> PolyQ:
    """Discriminant in x of the line slice y = t0 x + u, as a polynomial in
    u.  Always a quartic with top coefficient -27."""
    quartic = cubic_discriminant(*_slice_coefficients(
        curve.a_invariants, Fraction(t0), PolyQ.x()))
    if quartic.degree != 4 or quartic.lc() != -27:
        raise SurfaceError("slice discriminant is not a (-27)-quartic in u")
    return quartic


def _slice_cubic(curve: Curve, t0, u) -> tuple[PolyQ, str]:
    """The monic cubic in x cut out by the line y = t0 x + u, with the
    splitting type that fiber_search reports.  On a square-discriminant
    slice the Galois group is cyclic, so one rational root forces all
    three; a lone rational root cannot occur."""
    r, q, p = _slice_coefficients(curve.a_invariants, Fraction(t0),
                                  Fraction(u))
    cubic = PolyQ.of(r, q, p, 1)
    disc = cubic.discriminant()
    # dual route: resultant-based discriminant against the closed form
    if disc != cubic_discriminant(r, q, p):
        raise SurfaceError("discriminant routes disagree on a slice cubic")
    if disc == 0:
        return cubic, "degenerate"
    roots = cubic.rational_roots()
    if len(roots) == 3:
        return cubic, "split-over-Q"
    if roots:
        raise SurfaceError("lone rational root on a square-discriminant slice")
    if _sqrt_fraction(disc) is None:
        raise SurfaceError("slice discriminant is not a square")
    return cubic, "cyclic-cubic"


@dataclass(frozen=True)
class FiberPoint:
    t0: Fraction
    u: Fraction
    delta: Fraction
    cubic: PolyQ
    classification: str
    good_fiber: bool


def _farey(bound: int):
    """Ascending reduced fractions in (0, 1] with denominator <= bound."""
    a, b, c, d = 0, 1, 1, bound
    while c <= bound:
        k = (bound + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        yield Fraction(a, b)


def _rational_heights(bound: int):
    """All reduced a/b with max(|a|, b) <= bound, walked out of the Farey
    sequence of [0, 1] by sign flips and inversion."""
    yield Fraction(0)
    for f in _farey(bound):
        yield f
        yield -f
        if f != 1:
            yield 1 / f
            yield -1 / f


def good_fiber(curve: Curve, t0) -> bool:
    """Whether the surface fiber over t0 is smooth.  The criterion lives on
    the short model y^2 = x^3 + A x + B, where the slope parameter picks up
    a shift of a1/2: the fiber degenerates exactly over slope zero and over
    the roots of the eighth-degree bad locus."""
    A = -Fraction(curve.c4, 48)
    B = -Fraction(curve.c6, 864)
    tau = Fraction(t0) + Fraction(curve.a1, 2)
    return tau != 0 and bad_locus(A, B)(tau) != 0


def fiber_search(curve: Curve, t0, height_bound: int) -> list[FiberPoint]:
    """All slice points (t0, u, delta) with u of height at most height_bound
    and delta^2 equal to the slice discriminant.  Both square roots are
    reported; points on degenerate fibers are kept but flagged."""
    t0 = Fraction(t0)
    quartic = fiber_quartic(curve, t0)
    good = good_fiber(curve, t0)
    out = []
    for u in _rational_heights(height_bound):
        val = quartic(u)
        root = _sqrt_fraction(val) if val >= 0 else None
        if root is None:
            continue
        cubic, kind = _slice_cubic(curve, t0, u)
        for d in sorted({root, -root}):
            out.append(FiberPoint(t0, u, d, cubic, kind, good))
    out.sort(key=lambda fp: (fp.u, fp.delta))
    return out


# ---------------------------------------------------------------------------
# the jacobian family of the slice fibration and its marked section


def jacobian_curve(A, B) -> tuple[PolyQ, PolyQ]:
    """Coefficients (a(t), b(t)) of the family y^2 = x^3 + a(t) x + b(t)
    whose fiber over t0 is the jacobian of the slice fiber of
    y^2 = x^3 + A x + B there."""
    A, B = Fraction(A), Fraction(B)
    if A == 0 and B == 0:
        raise ValueError("the base curve y^2 = x^3 is singular")
    a = PolyQ.of(-27 * (A ** 3 + 9 * B * B), 0, -54 * A * B, 0,
                 -18 * A * A, 0, 18 * B, 0, A)
    b = PolyQ.of(-243 * B * (A ** 3 + 6 * B * B), 0,
                 -54 * A * (2 * A ** 3 + 9 * B * B), 0, 135 * A * A * B, 0,
                 -270 * B * B, 0, -45 * A * B, 0, -4 * A * A, 0, B)
    return a, b


def gamma1(A, B) -> tuple[PolyQ, PolyQ]:
    """Marked section (X(t), sqrt(-3) Y(t)) of the jacobian family.  The
    second component is returned as the polynomial Y(t); the point identity
    -3 Y^2 = X^3 + a X + b is asserted exactly before returning."""
    A, B = Fraction(A), Fraction(B)
    aj, bj = jacobian_curve(A, B)
    X = PolyQ.of(-9 * B, 0, 5 * A, 0, 0, 0, Fraction(-1, 27))
    Y = PolyQ.of(0, -9 * A * A, 0, -12 * B, 0, Fraction(2, 3) * A, 0, 0, 0,
                 Fraction(1, 243))
    if -3 * Y * Y != X ** 3 + aj * X + bj:
        raise SurfaceError("marked section left the jacobian family")
    return X, Y


def bad_locus(A, B) -> PolyQ:
    """Parameters t over which the slice fibration of y^2 = x^3 + A x + B
    degenerates."""
    A, B = Fraction(A), Fraction(B)
    return PolyQ.of(-27 * A * A, 0, 108 * B, 0, 18 * A, 0, 0, 0, 1)


# ---------------------------------------------------------------------------
# solvability of the fiber conic by the norm criterion


def _cornacchia_3(p: int) -> tuple[int, int]:
    """x, y with x^2 + 3 y^2 = p for a prime p = 1 mod 3.  Cornacchia starts
    from sqrt(-3) = 2w + 1 mod p, w a cube root of unity other than 1:
    (2w + 1)^2 = 4(w^2 + w) + 1 = -3."""
    g = 2
    while (w := pow(g, (p - 1) // 3, p)) == 1:
        g += 1
    r = (2 * w + 1) % p
    r = max(r, p - r)
    a, b = p, r
    while b * b > p:
        a, b = b, a % b
    y2, rem = divmod(p - b * b, 3)
    y = isqrt(y2)
    if rem or y * y != y2:
        raise SurfaceError(f"descent failed to represent {p} by x^2 + 3 y^2")
    return b, y


def _represent_3(m: int) -> tuple[int, int]:
    """x, y with x^2 + 3 y^2 = m, assuming every prime p = 2 mod 3 divides m
    to an even power.  Prime representations are composed multiplicatively."""
    x, y = 1, 0
    for p, e in factor(m).pairs:
        if p % 3 == 2:
            if e % 2:
                raise ValueError(f"{p} divides {m} to an odd power")
            x, y = x * p ** (e // 2), y * p ** (e // 2)
            continue
        px, py = (0, 1) if p == 3 else _cornacchia_3(p)
        for _ in range(e):
            x, y = x * px - 3 * y * py, x * py + y * px
    return abs(x), abs(y)


@dataclass(frozen=True)
class ConicSolution:
    U: Fraction
    T: Fraction
    q: Fraction
    solvable: bool
    witness: tuple[Fraction, Fraction] | None

    def point(self, m) -> tuple[Fraction, Fraction]:
        """Chord through the witness with slope m, hitting the conic in one
        further rational point."""
        if not self.solvable:
            raise ValueError("the conic has no rational points")
        z0, w0 = self.witness
        m = Fraction(m)
        den = 1 + 3 * m * m
        return ((z0 * (3 * m * m - 1) - 6 * m * w0) / den,
                (w0 * (1 - 3 * m * m) - 2 * m * z0) / den)

    def u_value(self, m) -> Fraction:
        """Slice parameter carried by the pencil point at slope m."""
        return self.point(m)[1] + 2 * self.U ** 3 - self.T

    def u_parameter(self, u) -> Fraction | None:
        """A pencil slope whose point carries the slice parameter u, if one
        exists.  Both chord intersections share their u, so no rational u is
        ever missed."""
        if not self.solvable:
            return None
        z0, w0 = self.witness
        c = Fraction(u) - 2 * self.U ** 3 + self.T
        lead = 3 * (c + w0)
        if lead == 0:
            if z0 == 0:
                return Fraction(0) if c == w0 else None
            return (w0 - c) / (2 * z0)
        s = _sqrt_fraction(self.q - 3 * c * c) if self.q >= 3 * c * c else None
        if s is None:
            return None
        return (-z0 + s) / lead


def conic_norm_test(U, T) -> ConicSolution:
    """Decide z^2 + 3 w^2 = 12 U^3 (U^3 - T) over Q and produce a witness.
    Positivity plus even valuation at every prime p = 2 mod 3 is the whole
    criterion: the prime 3 takes care of itself by the product formula, and
    the form x^2 + 3 y^2 is alone in its genus, so local solvability
    everywhere already yields a rational point."""
    U, T = Fraction(U), Fraction(T)
    if 27 * T ** 3 * (U ** 3 - T) == 0:
        raise ValueError("slice family is singular at these parameters")
    q = 12 * U ** 3 * (U ** 3 - T)
    if q <= 0:
        return ConicSolution(U, T, q, False, None)
    for n in (q.numerator, q.denominator):
        for p, e in factor(n).pairs:
            if p % 3 == 2 and e % 2:
                return ConicSolution(U, T, q, False, None)
    x, y = _represent_3(q.numerator * q.denominator)
    z0 = Fraction(x, q.denominator)
    w0 = Fraction(y, q.denominator)
    if z0 * z0 + 3 * w0 * w0 != q:
        raise SurfaceError("witness composition drifted off the conic")
    return ConicSolution(U, T, q, True, (z0, w0))


# ---------------------------------------------------------------------------
# the two torsion pencils


@dataclass(frozen=True)
class FamilyFiber:
    kind: str
    lam: Fraction
    t0: Fraction
    a_invariants: tuple[Fraction, ...]
    point: tuple[Fraction, Fraction]
    curve: Curve | None
    nodal: bool
    infinite_order: bool


def _on_cubic(ai, P) -> bool:
    a1, a2, a3, a4, a6 = ai
    x, y = P
    return (y * y + a1 * x * y + a3 * y
            == x ** 3 + a2 * x * x + a4 * x + a6)


# the six units (a + b sqrt(-3)) / 2
_NORM_ONE_UNITS = tuple(
    Q_SQRT_MINUS_3(Fraction(a, 2), Fraction(b, 2))
    for a, b in ((2, 0), (-2, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)))


def _nodal_infinite_order(ai, P) -> bool:
    """Infinite-order test on the smooth locus of a nodal cubic: push the
    point through the multiplicative uniformization at the node and ask
    whether it lands on a root of unity.  Rational tangents land in Q*,
    where torsion is {1, -1}; conjugate tangents over Q(sqrt(-3)) land in
    its norm-one group, where torsion is the six units."""
    a1, a2, a3, a4, a6 = ai
    if not _on_cubic(ai, P):
        raise SurfaceError("marked point fell off the nodal fiber")
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    c0, c1, c2 = Fraction(b6, 4), Fraction(b4, 2), Fraction(b2, 4)
    if cubic_discriminant(c0, c1, c2) != 0:
        raise SurfaceError("fiber is not nodal")
    x0 = cubic_double_root(c0, c1, c2)
    d = 3 * x0 + c2  # the double root less the simple root -c2 - 2 x0
    if d == 0:
        raise SurfaceError("cusp, not a node")
    x, y = P
    dx = x - x0
    y0 = y + (a1 * x + a3) / 2
    if dx == 0 and y0 == 0:
        raise ValueError("the marked point is the node itself")
    s = _sqrt_fraction(d)
    if s is not None:
        eta = (y0 - s * dx) / (y0 + s * dx)
        return eta not in (1, -1)
    c = _sqrt_fraction(-d / 3)
    if c is None:
        raise SurfaceError("node tangents lie outside Q and Q(sqrt(-3))")
    root = Q_SQRT_MINUS_3(0, c)
    eta = (y0 - root * dx) / (y0 + root * dx)
    return eta not in _NORM_ONE_UNITS


def torsion_family(kind: str, lam) -> FamilyFiber:
    """Marked fiber of one of the two torsion pencils, with an exact
    infinite-order certificate for the marked point.  Kind "six-torsion"
    carries a rational point of order six away from its excluded parameters
    and sits over t0 = lam; kind "four-two-torsion" carries Z/4 x Z/2 and
    sits over t0 = 1.  The six-torsion pencil degenerates to a nodal cubic
    at lam = -1/2; that fiber is still returned, certified through the node
    instead of the curve."""
    lam = Fraction(lam)
    if kind == "six-torsion":
        ai = (2 * lam * lam + 8 * lam + 2,
              -2 * lam * (lam + 1) * (2 * lam * lam - lam - 4),
              -4 * lam * (7 * lam + 1) * (lam - 2) * (lam + 1) ** 2,
              108 * lam ** 4 * (lam + 1) ** 2,
              -216 * lam ** 5 * (2 * lam * lam - lam - 4) * (lam + 1) ** 3)
        P = (2 * lam * (lam + 1) * (2 * lam * lam - lam - 4), Fraction(0))
        if lam == Fraction(-1, 2):
            return FamilyFiber(kind, lam, lam, ai, P, None, True,
                               _nodal_infinite_order(ai, P))
        if lam * (1 + 9 * lam) * (2 * lam + 1) * (lam + 1) \
                * (lam ** 4 + 3 * lam ** 3 + 4 * lam ** 2 + 1) == 0:
            raise ValueError(f"excluded parameter {lam} for the six-torsion pencil")
        curve = Curve(ai)
        if not on_curve(curve, P):
            raise SurfaceError("marked point fell off the six-torsion pencil")
        return FamilyFiber(kind, lam, lam, ai, P, curve, False,
                           is_nontorsion(curve, P))
    if kind == "four-two-torsion":
        if lam in (0, 1, -1):
            raise ValueError(
                f"excluded parameter {lam} for the four-two-torsion pencil")
        s = lam * lam
        ai = (Fraction(0), Fraction(0), Fraction(0),
              27 * s * (-s ** 3 + 7 * s ** 2 + 5 * s - 27),
              27 * s * (2 * s ** 5 - 21 * s ** 4 + 204 * s ** 3
                        - 826 * s ** 2 + 1242 * s - 729))
        P = (3 * (s * s + 16 * s + 3), 27 * (7 * s * s + 10 * s - 1))
        curve = Curve(ai)
        if not on_curve(curve, P):
            raise SurfaceError("marked point fell off the four-two-torsion pencil")
        return FamilyFiber(kind, lam, Fraction(1), ai, P, curve, False,
                           is_nontorsion(curve, P))
    raise ValueError(f"unknown pencil kind: {kind!r}")


def torsion_base_curve(kind: str, lam) -> Curve:
    """Base curve whose slice surface carries the given torsion pencil.

    Kind "six-torsion" gives the universal curve with a rational point of
    order six at (0, 0); its slice surface is split over Q at (t0, u) =
    (lam, 0), where the pencil fiber lives.  Kind "four-two-torsion" gives
    y^2 = x(x + 1)(x + lam^2) with full rational two-torsion, split at
    (t0, u) = (1, lam^2)."""
    lam = Fraction(lam)
    if kind == "six-torsion":
        if lam * (lam + 1) * (9 * lam + 1) == 0:
            raise ValueError(
                f"excluded parameter {lam} for the six-torsion base")
        b = lam * (lam + 1)
        return Curve((1 - lam, -b, -b, Fraction(0), Fraction(0)))
    if kind == "four-two-torsion":
        if lam in (0, 1, -1):
            raise ValueError(
                f"excluded parameter {lam} for the four-two-torsion base")
        s = lam * lam
        return Curve((Fraction(0), 1 + s, Fraction(0), s, Fraction(0)))
    raise ValueError(f"unknown pencil kind: {kind!r}")


# ---------------------------------------------------------------------------
# the conductor-37 slice family and its conductor census

# y^2 + 4xy + y = x^3: the conductor-37 curve presented so that its t = 0
# fiber carries the rational slice points
E37B_SLICE = (4, 0, 1, 0, 0)
_E37B_CURVE = Curve(E37B_SLICE, label="37b-slice")


@dataclass(frozen=True)
class E37bFiber:
    r: Fraction | None
    u: Fraction
    delta: Fraction
    h1: int
    h2: int
    h_factorization: Factorization      # of h1 h2
    poly: PolyQ
    cubic: PolyQ
    field: CubicField
    curve: Curve

    @property
    def point(self) -> tuple[FieldElt, FieldElt]:
        """The trace-zero slice point (xi / h2, u), xi the generator of the
        integral model; built on access, since the census never reads it."""
        return self.field.gen() / self.h2, self.field(self.u)


class E37bRow(NamedTuple):
    """The integer data of one slice-family pair, from which _e37b_pair
    builds its exact fiber."""
    h1: int
    h2: int
    g: int
    h_factorization: Factorization      # of h1 h2
    disc_factorization: Factorization   # of the model's 2^10 (h1 h2 g)^2
    model: tuple[int, int, int]         # (c0, c1, c2) of the integral model
    conductor: int


def _check_model_scale(ai, h1: int, h2: int, model) -> None:
    """Check that xi / h2 is a root of the slice cubic at t = 0, u = h1 / h2
    of the curve with a-invariants ai, for the root xi of the integral
    model x^3 + m2 x^2 + m1 x + m0, by the identity h2^(3-i) c_i == m_i on
    the slice coefficients c_i.  At t = 0 they are c0 = a6 - u^2 - a3 u,
    c1 = a4 - a1 u and c2 = a2 (_slice_coefficients), so the identity reads,
    in ints, m0 = (a6 h2^2 - h1^2 - a3 h1 h2) h2, m1 = (a4 h2 - a1 h1) h2
    and m2 = a2 h2.  Both sides of the identity are monic cubics and the
    left one vanishes at xi exactly when the slice cubic vanishes at
    xi / h2; their difference has degree at most 2, so it vanishes at a
    root of the irreducible model only when it is 0."""
    a1, a2, a3, a4, a6 = ai
    m0, m1, m2 = model
    if (m0 != (a6 * h2 * h2 - h1 * h1 - a3 * h1 * h2) * h2
            or m1 != (a4 * h2 - a1 * h1) * h2 or m2 != a2 * h2):
        raise SurfaceError("integral model root does not satisfy the slice cubic")


def _e37b_sieve(height: int) -> Sequence[int]:
    """The least-prime-factor table of 0 ... 28 height^2, which bounds h1,
    h2 and |g| of every pair with |a|, |b| <= height."""
    return least_prime_factors(0, 28 * height * height)


def _add_exponents(n: int, lpf: Sequence[int], exps: dict[int, int]) -> None:
    """Add the prime exponents of n to exps, read off the table lpf."""
    while n > 1:
        p = lpf[n] or n
        exps[p] = exps.get(p, 0) + 1
        n //= p


def _e37b_forms(a: int, b: int) -> tuple[int, int, int, tuple[int, int, int]]:
    """The pair part of the survey row of the coprime parameter pair (a, b):
    the forms h1, h2 and g and the integral model
    x^3 - 4 h1 h2 x - 16 (a^2 + b^2) h1 h2, whose roots are h2 times the
    slice cubic's.  The model-scale identity reads h1 and h2 separately, so
    it is checked here, once for every pair."""
    if gcd(a, b) != 1:
        raise ValueError("parameter pair must be coprime")
    h1 = 7 * a * a + 12 * a * b + 9 * b * b
    h2 = 9 * a * a - 12 * a * b + 7 * b * b
    g = 3 * a * a + a * b - 3 * b * b
    model = (-16 * (a * a + b * b) * h1 * h2, -4 * h1 * h2, 0)
    _check_model_scale(E37B_SLICE, h1, h2, model)
    return h1, h2, g, model


def _e37b_model(a: int, b: int, h1: int, h2: int, g: int, model,
                lpf: Sequence[int]
                ) -> tuple[Factorization, Factorization, int]:
    """The model part of the survey row of (a, b), from its _e37b_forms:
    the factorizations of h1 h2 and of the discriminant, and the conductor.
    The model must have no rational root and the discriminant
    2^10 (h1 h2 g)^2 = delta^2 h2^6, which is then factored from h1, h2
    and g, each read off lpf, the _e37b_sieve table of the pair's height or
    of a larger one.  The conductor comes from the ramification rule of
    cubicfield.field_invariants.  Every value here depends on the model
    alone, so the partner pair (-b, a) gets the same one.  A failed
    identity raises SurfaceError, a failed field invariant
    FieldConsistencyError."""
    c0, c1, c2 = model
    if _monic_cubic_integer_roots(c0, c1, c2):
        raise SurfaceError(f"parameter pair ({a}, {b}): the integral model "
                           f"has a rational root")
    disc = cubic_discriminant(c0, c1, c2)
    if disc <= 0 or not is_perfect_square(disc):
        raise SurfaceError(f"parameter pair ({a}, {b}): discriminant {disc} "
                           f"is not a positive square")
    if (32 * h1 * g) ** 2 * h2 * h2 != disc:
        raise SurfaceError("slice point left the discriminant quartic")
    exps: dict[int, int] = {}
    _add_exponents(h1, lpf, exps)
    _add_exponents(h2, lpf, exps)
    hh = Factorization(tuple(sorted(exps.items())))
    _add_exponents(abs(g), lpf, exps)
    exps[2] = exps.get(2, 0) + 5    # 2^10 (h1 h2 g)^2 = (2^5 h1 h2 g)^2
    hint = Factorization(tuple(sorted((p, 2 * e) for p, e in exps.items())))
    if hint.n != disc:
        raise SurfaceError(f"parameter pair ({a}, {b}): the factored "
                           f"discriminant does not match the model's")
    _, conductor, _ = field_invariants(c0, c1, c2, disc, hint)
    return hh, hint, conductor


def _e37b_row(a: int, b: int, lpf: Sequence[int]) -> E37bRow:
    """The survey row of the coprime parameter pair (a, b), in Python ints;
    b = 0 is the point at infinity of the parameter line.  It joins the
    pair part, _e37b_forms, to the model part, _e37b_model.  The rotation
    (a, b) -> (-b, a) swaps h1 and h2, negates g and fixes a^2 + b^2, so
    a pair and its rotation share the integral model and the model part;
    census_37b classifies each model once for the two of them, while
    coprimality and the model-scale identity run for every pair."""
    h1, h2, g, model = _e37b_forms(a, b)
    hh, hint, conductor = _e37b_model(a, b, h1, h2, g, model, lpf)
    return E37bRow(h1, h2, g, hh, hint, model, conductor)


def _e37b_pair(a: int, b: int) -> E37bFiber:
    """Slice data for the coprime parameter pair (a, b): its survey row,
    then the exact fiber built from it.  The field is classified by
    from_cubic on the integral model with the row's factored discriminant,
    and must report the row's conductor; a failure raises SurfaceError."""
    row = _e37b_row(a, b, _e37b_sieve(max(abs(a), abs(b))))
    h1, h2 = row.h1, row.h2
    u = Fraction(h1, h2)
    cubic = PolyQ.of(*_slice_coefficients(E37B_SLICE, 0, u), 1)
    poly = PolyQ.of(*row.model, 1)
    try:
        field = CubicField.from_cubic(poly, row.disc_factorization)
    except ValueError as exc:
        raise SurfaceError(f"parameter pair ({a}, {b}): {exc}") from exc
    if field.conductor != row.conductor:
        raise SurfaceError(
            f"parameter pair ({a}, {b}): the field has conductor "
            f"{field.conductor}, the survey row {row.conductor}")
    return E37bFiber(Fraction(a, b) if b else None, u,
                     Fraction(32 * h1 * row.g, h2 * h2), h1, h2,
                     row.h_factorization, poly, cubic, field, _E37B_CURVE)


@dataclass(frozen=True)
class CensusFieldRow:
    a: int
    b: int
    h1: int
    h2: int
    squarefree: bool
    conductor: int
    new_field: bool


@dataclass(frozen=True)
class E37bCensus:
    height_bound: int
    max_conductor: int
    rows: tuple[CensusFieldRow, ...]
    conductors: tuple[int, ...]

    def csv(self) -> str:
        lines = ["a, b, H1, H2, squarefree-flag, conductor, new-field-flag"]
        for r in self.rows:
            lines.append(f"{r.a}, {r.b}, {r.h1}, {r.h2}, {int(r.squarefree)},"
                         f" {r.conductor}, {int(r.new_field)}")
        return "\n".join(lines) + "\n"


def _e37b_parameters(height: int) -> list[tuple[int, int]]:
    """The coprime parameter pairs of height up to height, each up to sign
    once: (1, 0), then (a, b) with 1 <= b <= height, |a| <= height, b by
    b.  Up to sign, the rotation (a, b) -> (-b, a) maps this list to itself
    and fixes no pair; (1, 0) goes with (0, 1)."""
    return [(1, 0)] + [(a, b) for b in range(1, height + 1)
                       for a in range(-height, height + 1) if gcd(a, b) == 1]


def census_37b(max_conductor: int, height_bound: int) -> E37bCensus:
    """Sweep the coprime parameter pairs of height up to height_bound,
    build the integer row of every slice field, and collect the distinct
    conductors up to max_conductor.  One least-prime-factor table of the
    height bound factors every row.

    The rotation (a, b) -> (-b, a) swaps h1 and h2, negates g and fixes
    a^2 + b^2, so each integral model comes up exactly twice, for a pair
    and its partner.  Every pair runs its own pair part, _e37b_forms:
    coprimality and the model-scale identity.  The model part,
    _e37b_model, with the rational-root certificate, the discriminant and
    quartic identities, the factored hint and the conductor, runs once per
    model, for the first of its pairs, whose row waits in a table until
    the partner pops it.  The partner copies the row's conductor and
    squarefree flag; its conductor is already seen, so it is never a new
    field, and its h1 h2 is the first pair's, so the distinctness check has
    nothing to add.  A model left in the table was met only once, which
    the rotation rules out: SurfaceError.

    Both squarefree rules read the one factorization of h1 h2 that each
    model carries.  The squarefree flag records whether h1 h2 is squarefree
    away from 2, 3 and 37; only flagged pairs feed the conductor count and
    the new-field marks, though every pair is kept as a row.  Pairs whose
    h1 h2 is squarefree outright must build distinct fields: two different
    such products with the same conductor contradict the family's
    distinctness statement and raise SurfaceError."""
    rows = []
    seen: set[int] = set()
    # conductor -> the strictly squarefree h1 h2 that built it
    products: dict[int, int] = {}
    # model -> the row of the first of its two pairs, popped by the second
    firsts: dict[tuple[int, int, int], CensusFieldRow] = {}
    lpf = _e37b_sieve(max(height_bound, 1))
    for a, b in _e37b_parameters(height_bound):
        h1, h2, g, model = _e37b_forms(a, b)
        first = firsts.pop(model, None)
        if first is not None:
            # the first pair saw the conductor and checked the product
            rows.append(CensusFieldRow(a, b, h1, h2, first.squarefree,
                                       first.conductor, False))
            continue
        fac, _, conductor = _e37b_model(a, b, h1, h2, g, model, lpf)
        squarefree = all(e == 1 for p, e in fac.pairs if p not in (2, 3, 37))
        new = squarefree and conductor not in seen
        firsts[model] = row = CensusFieldRow(a, b, h1, h2, squarefree,
                                             conductor, new)
        rows.append(row)
        if squarefree:
            seen.add(conductor)
        if fac.is_squarefree():
            value = h1 * h2
            prev = products.setdefault(conductor, value)
            if prev != value:
                raise SurfaceError(
                    f"distinct squarefree parameters {prev} and {value} "
                    f"constructed the same conductor {conductor}")
    if firsts:
        first = next(iter(firsts.values()))
        raise SurfaceError(
            f"{len(firsts)} integral model(s) met once, the first by "
            f"parameter pair ({first.a}, {first.b}): the rotation "
            f"(a, b) -> (-b, a) gives every model to two parameter pairs")
    conductors = tuple(sorted(c for c in seen if c <= max_conductor))
    return E37bCensus(height_bound, max_conductor, tuple(rows), conductors)
