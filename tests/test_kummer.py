"""Slice-surface geometry tests.

The slice discriminant is checked coefficient-by-coefficient against a
hardcoded expansion on the short model, the jacobian family against the
exact factorization of its discriminant through the bad locus, the
closed-form fiber verdict against the sympy genus-3 oracle, and the conic
criterion against a bounded brute-force point search.
"""
import hashlib
import random
import sys
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elltwists.cli import main
from elltwists.cubicfield import CubicField
from elltwists.elliptic import Curve, is_nontorsion, on_curve, trace_point
from elltwists.kummer import (
    E37B_SLICE,
    Q_SQRT_MINUS_3 as K,
    SurfaceError,
    _check_model_scale,
    _cornacchia_3,
    _e37b_forms,
    _e37b_pair,
    _e37b_parameters,
    _e37b_row,
    _e37b_sieve,
    _nodal_infinite_order,
    bad_locus,
    census_37b,
    conic_norm_test,
    fiber_quartic,
    fiber_search,
    gamma1,
    good_fiber,
    jacobian_curve,
    torsion_base_curve,
    torsion_family,
)
from elltwists.numcore import PolyQ, factor, primes_up_to
from oracles import census_37b_by_pairs, genus3_curve, model_scale_holds

F = Fraction


def gamma1_at(A, B, t0):
    """The jacobian fiber over t0 with the marked point specialized, the
    y-coordinate landing in Q(sqrt(-3))."""
    aj, bj = jacobian_curve(A, B)
    X, Y = gamma1(A, B)
    t0 = Fraction(t0)
    curve = Curve((0, 0, 0, aj(t0), bj(t0)))
    return curve, (X(t0), K(0, Y(t0)))


def short_model_quartic(A, B) -> dict:
    # independent expansion of the slice discriminant of y^2 = x^3 + Ax + B,
    # keyed by (degree in u, degree in t)
    A, B = F(A), F(B)
    return {
        (4, 0): F(-27),
        (3, 3): F(-4),
        (2, 2): -30 * A,
        (2, 0): 54 * B,
        (1, 5): -4 * A,
        (1, 3): 36 * B,
        (1, 1): 24 * A * A,
        (0, 6): 4 * B,
        (0, 4): A * A,
        (0, 2): -18 * A * B,
        (0, 0): -4 * A ** 3 - 27 * B * B,
    }


def specialise(table: dict, t0) -> PolyQ:
    """The polynomial in u that a (u, t) coefficient table gives at t0."""
    coeffs = [F(0)] * 5
    for (i, j), c in table.items():
        coeffs[i] += c * F(t0) ** j
    return PolyQ.of(*coeffs)


class TestSliceDiscriminant:
    def test_short_model_oracle(self):
        rng = random.Random(2)
        for _ in range(20):
            A, B = rng.randint(-10, 10), rng.randint(-10, 10)
            curve, table = Curve((0, 0, 0, A, B)), short_model_quartic(A, B)
            # both sides have degree <= 6 in t, so seven fibers agreeing
            # prove the identity in (u, t)
            for t0 in range(-3, 4):
                assert fiber_quartic(curve, t0) == specialise(table, t0)

    def test_t0_zero_is_cubic_discriminant(self):
        # over t = 0 the slice is x^3 + Ax + (B - u^2)
        rng = random.Random(3)
        for _ in range(10):
            A, B = rng.randint(-9, 9), rng.randint(-9, 9)
            quartic = fiber_quartic(Curve((0, 0, 0, A, B)), 0)
            for u in (F(0), F(1), F(-2), F(3, 5)):
                assert quartic(u) == -4 * F(A) ** 3 - 27 * (F(B) - u * u) ** 2

    def test_37b_slice_fiber(self):
        # -u^2 (27u^2 - 202u + 27)
        assert fiber_quartic(Curve(E37B_SLICE), 0) == \
            PolyQ.of(0, 0, -27, 202, -27)

    def test_full_model_matches_cubic_discriminant(self):
        rng = random.Random(4)
        for _ in range(12):
            ai = tuple(rng.randint(-4, 4) for _ in range(5))
            curve = Curve(ai)
            t0 = F(rng.randint(-3, 3), rng.randint(1, 3))
            u = F(rng.randint(-3, 3), rng.randint(1, 3))
            p = curve.a2 - t0 * t0 - curve.a1 * t0
            q = curve.a4 - 2 * t0 * u - curve.a1 * u - curve.a3 * t0
            r = curve.a6 - u * u - curve.a3 * u
            cubic = PolyQ.of(r, q, p, 1)
            want = 0 if cubic.degree < 1 else cubic.discriminant()
            assert fiber_quartic(curve, t0)(u) == want

    def test_quartic_shape_enforced(self, monkeypatch):
        import elltwists.kummer as kummer
        curve = Curve((1, -2, 3, 0, 5))
        for t0 in (F(0), F(1), F(-2), F(3, 5), F(-7, 4)):
            quartic = fiber_quartic(curve, t0)
            assert quartic.degree == 4 and quartic.lc() == -27
        # a discriminant of any other shape is refused, fiber by fiber
        monkeypatch.setattr(kummer, "cubic_discriminant", lambda r, q, p: r)
        with pytest.raises(SurfaceError, match="quartic"):
            fiber_quartic(curve, 1)


class TestFiberSearch:
    def test_37b_catalogue(self):
        pts = fiber_search(Curve(E37B_SLICE), 0, 10)
        table = {(p.u, p.delta): p.classification for p in pts}
        assert table[(F(7, 9), F(224, 27))] == "cyclic-cubic"
        assert table[(F(7, 9), F(-224, 27))] == "cyclic-cubic"
        assert table[(F(7), F(56))] == "cyclic-cubic"
        assert table[(F(1, 7), F(8, 49))] == "cyclic-cubic"
        assert table[(F(9, 7), F(864, 49))] == "cyclic-cubic"
        assert table[(F(0), F(0))] == "degenerate"
        assert {u for u, _ in table} == {F(0), F(1, 7), F(7, 9), F(9, 7), F(7)}

    def test_37b_fiber_is_flagged(self):
        # the t = 0 fiber of this presentation sits over a bad-locus root
        curve = Curve(E37B_SLICE)
        assert not good_fiber(curve, 0)
        assert all(not p.good_fiber for p in fiber_search(curve, 0, 4))

    def test_height_window(self):
        curve = Curve(E37B_SLICE)
        pts = fiber_search(curve, 0, 8)
        assert all(max(abs(p.u.numerator), p.u.denominator) <= 8 for p in pts)
        assert {p.u for p in pts} == {F(0), F(1, 7), F(7)}  # 7/9 has height 9
        assert F(7, 9) in {p.u for p in fiber_search(curve, 0, 9)}

    def test_negative_quartic_is_empty(self):
        assert fiber_search(Curve((0, 0, 0, 0, -2)), 1, 10) == []

    def test_split_slice(self):
        # y = 0 meets y^2 = x^3 - x in three rational points
        pts = fiber_search(Curve((0, 0, 0, -1, 0)), 0, 1)
        flat = {(p.u, p.delta, p.classification) for p in pts}
        assert (F(0), F(2), "split-over-Q") in flat
        assert (F(0), F(-2), "split-over-Q") in flat
        cubic = next(p.cubic for p in pts if p.u == 0)
        assert cubic.rational_roots() == [F(-1), F(0), F(1)]

    def test_good_fiber_criterion(self):
        assert good_fiber(Curve((0, 0, 0, 1, 1)), 1)
        assert not good_fiber(Curve((0, 0, 0, 1, 1)), 0)
        # rational bad-locus root built to order: 108 B = 27 A^2 - 18 A - 1
        A = 3
        B = F(27 * A * A - 18 * A - 1, 108)
        assert bad_locus(A, B)(1) == 0
        assert not good_fiber(Curve((0, 0, 0, A, B)), 1)


# the stdout of three slice-family commands, byte for byte
KUMMER_FIBER_37A = (
    "fiber points of 37a over t0 = 2, height <= 30: 2\n"
    "  u = -2, delta = 0: degenerate [good fiber]\n"
    "  u = 2, delta = 0: degenerate [good fiber]\n"
)

SIX_TORSION = (
    "torsion pencil six-torsion, fiber search height <= 6\n"
    "  lambda = 1: point (-12, 0) on the fiber with a-invariants "
    "(12, 12, 128, 432, 5184) [infinite order]\n"
    "    cyclic cubic fiber at u = 1: (1) x^3 + (-3) x^2 + (0) x^1 "
    "+ (1) = 0, conductor 9\n"
    "  lambda = 2: point (24, 0) on the fiber with a-invariants "
    "(26, -24, 0, 15552, -373248) [infinite order]\n"
    "    cyclic cubic fiber at u = -1: (1) x^3 + (-8) x^2 + (15) "
    "x^1 + (-7) = 0, conductor 19\n"
    "  lambda = -1/2: point (3/2, 0) on the fiber with "
    "a-invariants (-3/2, -3/2, 25/8, 27/16, -81/32) [nodal, "
    "certified through the node]\n"
)

FOUR_TWO_TORSION = (
    "torsion pencil four-two-torsion, fiber search height <= 8\n"
    "  lambda = 2: point (249, 4077) on the fiber with "
    "a-invariants (0, 0, 0, 4428, 81108) [infinite order]\n"
    "    cyclic cubic fiber at u = 8/7: (1) x^3 + (4) x^2 + (12/7) "
    "x^1 + (-64/49) = 0, conductor 133\n"
    "  lambda = 3: point (684, 17712) on the fiber with "
    "a-invariants (0, 0, 0, -34992, 17635968) [infinite order]\n"
    "  lambda = 5/2: point (6819/16, 144693/16) on the fiber with "
    "a-invariants (0, 0, 0, 1449225/256, 4009855725/2048) "
    "[infinite order]\n"
)


class TestSliceCommands:
    @pytest.mark.parametrize("argv, want", [
        (["kummer-fiber", "--curve", "curves/37a.cfg", "2",
          "--height-bound", "30"], KUMMER_FIBER_37A),
        (["family", "six-torsion", "--", "1", "2", "-1/2"], SIX_TORSION),
        (["family", "four-two-torsion", "2", "3", "5/2",
          "--height-bound", "8"], FOUR_TWO_TORSION),
    ], ids=["kummer-fiber", "six-torsion", "four-two-torsion"])
    def test_output_is_pinned(self, argv, want, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == want


class TestJacobianFamily:
    def test_discriminant_factors_through_bad_locus(self):
        # disc(J_t) = disc(base curve) * (bad locus)^3
        rng = random.Random(5)
        for _ in range(10):
            A = F(rng.randint(-8, 8), rng.randint(1, 3))
            B = F(rng.randint(-8, 8), rng.randint(1, 3))
            if 4 * A ** 3 + 27 * B * B == 0:
                continue
            aj, bj = jacobian_curve(A, B)
            disc = -16 * (4 * aj ** 3 + 27 * bj ** 2)
            scale = -16 * (4 * A ** 3 + 27 * B * B)
            assert disc == scale * bad_locus(A, B) ** 3

    def test_bad_locus_at_a_zero(self):
        for B in (F(1), F(-3), F(2, 7)):
            assert bad_locus(0, B) == PolyQ.of(0, 0, 108 * B, 0, 0, 0, 0, 0, 1)

    def test_bad_locus_squarefree_sample(self):
        assert bad_locus(1, 1).discriminant() != 0

    def test_marked_section_identity(self):
        rng = random.Random(6)
        for _ in range(10):
            A = F(rng.randint(-10, 10))
            B = F(rng.randint(-10, 10))
            if A == 0 and B == 0:
                continue
            X, Y = gamma1(A, B)
            # independent spelling of the section
            assert X == PolyQ.of(-9 * B, 0, 5 * A, 0, 0, 0, F(-1, 27))
            assert Y == F(1, 243) * PolyQ.of(0, -2187 * A * A, 0, -2916 * B,
                                             0, 162 * A, 0, 0, 0, 1)
            aj, bj = jacobian_curve(A, B)
            assert -3 * Y * Y == X ** 3 + aj * X + bj

    def test_marked_section_at_zero(self):
        curve, P = gamma1_at(2, 5, 0)
        assert P == (F(-9 * 5), K(0, 0))
        assert on_curve(curve, (P[0], K(0, 0)))

    def test_marked_point_nontorsion_on_a_fiber(self):
        curve, P = gamma1_at(0, 1, 1)
        assert on_curve(curve, P)
        assert is_nontorsion(curve, P, field_degree=2)

    def test_singular_base_rejected(self):
        with pytest.raises(ValueError):
            jacobian_curve(0, 0)


class TestGenus3:
    def test_smoothness_matches_base_criterion(self):
        # smooth exactly over nonzero t0 off the bad locus
        cases = [
            (1, 1, F(1), True),
            (1, 1, F(0), False),
            (2, -3, F(2), True),
            (F(1, 2), F(1, 3), F(-1), True),
            (3, F(27 * 9 - 18 * 3 - 1, 108), F(1), False),  # bad-locus root
        ]
        for A, B, t0, want in cases:
            fiber = genus3_curve(A, B, t0)
            assert fiber.smooth is want
            assert fiber.method in ("resultant", "groebner")
            assert (t0 != 0 and bad_locus(A, B)(t0) != 0) is want
            # the closed form that kummer-fiber prints agrees with sympy
            assert good_fiber(Curve((0, 0, 0, A, B)), t0) == fiber.smooth

    def test_equation_shape(self):
        import sympy
        xi1, xi2 = sympy.symbols("xi1 xi2")
        eq = sympy.Poly(genus3_curve(1, 1, 1).equation, xi1, xi2)
        assert eq.degree(xi1) == 4 and eq.degree(xi2) == 4
        assert eq.coeff_monomial(xi2 ** 4) == 1
        assert eq.coeff_monomial(xi1 ** 4) == 1
        # symmetric under swapping the two roots
        terms = dict(eq.terms())
        assert all(terms.get((j, i)) == c for (i, j), c in terms.items())


def brute_conic_points(q: Fraction, max_den: int):
    """All (z, w) with z^2 + 3w^2 = q and common denominator <= max_den."""
    hits = []
    for d in range(1, max_den + 1):
        qd2 = q * d * d
        if qd2.denominator != 1 or qd2 < 0:
            continue
        n = int(qd2)
        for x in range(isqrt(n) + 1):
            y2, rem = divmod(n - x * x, 3)
            if rem:
                continue
            y = isqrt(y2)
            if y * y == y2:
                hits.append((F(x, d), F(y, d)))
    return hits


class TestConicCriterion:
    def test_37b_conic(self):
        sol = conic_norm_test(F(4, 3), 1)
        assert sol.solvable
        assert sol.q == F(9472, 243)
        z0, w0 = sol.witness
        assert z0 * z0 + 3 * w0 * w0 == sol.q
        m = sol.u_parameter(F(7, 9))
        assert m == F(5, 6)
        assert sol.u_value(m) == F(7, 9)

    def test_pencil_points_stay_on_conic(self):
        sol = conic_norm_test(F(4, 3), 1)
        for m in (F(0), F(1), F(-2), F(5, 6), F(-7, 3)):
            z, w = sol.point(m)
            assert z * z + 3 * w * w == sol.q

    def test_unsolvable_even_prime_obstruction(self):
        # q = 2: odd power of 2 = 2 mod 3
        sol = conic_norm_test(1, F(5, 6))
        assert sol.q == 2 and not sol.solvable and sol.witness is None
        assert brute_conic_points(F(2), 30) == []

    def test_unsolvable_negative(self):
        assert not conic_norm_test(1, 2).solvable

    def test_singular_parameters_rejected(self):
        for U, T in ((1, 1), (2, 0)):
            with pytest.raises(ValueError):
                conic_norm_test(U, T)
        # U = 0 is not singular, just an empty conic
        assert not conic_norm_test(0, 3).solvable

    def test_against_brute_search(self):
        rng = random.Random(7)
        checked = 0
        while checked < 60:
            U = F(rng.randint(-6, 6), rng.randint(1, 3))
            T = F(rng.randint(-6, 6), rng.randint(1, 3))
            if U == 0 or T == 0 or U ** 3 == T:
                continue
            checked += 1
            sol = conic_norm_test(U, T)
            brute = brute_conic_points(sol.q, 12) if sol.q > 0 else []
            if sol.solvable:
                z0, w0 = sol.witness
                assert z0 * z0 + 3 * w0 * w0 == sol.q
            else:
                assert brute == []
            if brute:
                assert sol.solvable

    def test_parameter_covers_all_rational_u(self):
        sol = conic_norm_test(F(4, 3), 1)
        for m in (F(0), F(2), F(-1, 3), F(9, 4)):
            u = sol.u_value(m)
            m2 = sol.u_parameter(u)
            assert m2 is not None and sol.u_value(m2) == u
        assert sol.u_parameter(10 ** 6) is None  # out of the conic's reach


def test_cornacchia_3_represents_every_prime():
    # every prime p = 1 mod 3 is x^2 + 3 y^2 with x, y > 0
    for p in primes_up_to(10 ** 4):
        if p % 3 == 1:
            x, y = _cornacchia_3(p)
            assert x * x + 3 * y * y == p and x > 0 and y > 0


def six_torsion_display(lam):
    lam = F(lam)
    return (2 * lam * lam + 8 * lam + 2,
            -2 * lam * (lam + 1) * (2 * lam * lam - lam - 4),
            -4 * lam * (7 * lam + 1) * (lam - 2) * (lam + 1) ** 2,
            108 * lam ** 4 * (lam + 1) ** 2,
            -216 * lam ** 5 * (2 * lam * lam - lam - 4) * (lam + 1) ** 3)


class TestTorsionPencils:
    def test_six_torsion_members(self):
        for lam in (1, 2, 3, 5, -3):
            fiber = torsion_family("six-torsion", lam)
            assert fiber.a_invariants == six_torsion_display(lam)
            assert fiber.t0 == lam and not fiber.nodal
            assert on_curve(fiber.curve, fiber.point)
            assert fiber.infinite_order

    def test_six_torsion_degenerates_at_half(self):
        # the lam = -1/2 member really is singular
        a1, a2, a3, a4, a6 = six_torsion_display(F(-1, 2))
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3
              - a4 * a4)
        disc = (-b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6
                + 9 * b2 * b4 * b6)
        assert disc == 0

    def test_nodal_member(self):
        fiber = torsion_family("six-torsion", F(-1, 2))
        assert fiber.nodal and fiber.curve is None
        assert fiber.point == (F(3, 2), F(0))
        assert fiber.infinite_order

    def test_node_certificate_refuses_cusps_and_smooth_fibers(self):
        # y^2 = x^3 has a triple root at its singular point, a cusp
        with pytest.raises(SurfaceError, match="cusp"):
            _nodal_infinite_order((0, 0, 0, 0, 0), (F(1), F(1)))
        with pytest.raises(SurfaceError, match="cusp"):
            _nodal_infinite_order((0, 0, 0, 0, 0), (F(4), F(-8)))
        # y^2 = x^3 - x is smooth: its discriminant does not vanish
        with pytest.raises(SurfaceError, match="not nodal"):
            _nodal_infinite_order((0, 0, 0, -1, 0), (F(0), F(0)))

    def test_node_certificate_outcomes(self):
        # y^2 = x^3 - 3x^2: conjugate node tangents over Q(sqrt(-3)); eta is
        # -1 at (3, 0) and a primitive cube root of unity at (4, 4)
        assert not _nodal_infinite_order((0, -3, 0, 0, 0), (F(3), F(0)))
        assert not _nodal_infinite_order((0, -3, 0, 0, 0), (F(4), F(4)))
        # y^2 = x^3 + x^2: rational tangents; eta = -1 at (-1, 0), while
        # (3, 6) has infinite order
        assert not _nodal_infinite_order((0, 1, 0, 0, 0), (F(-1), F(0)))
        assert _nodal_infinite_order((0, 1, 0, 0, 0), (F(3), F(6)))

    def test_six_torsion_exclusions(self):
        for lam in (0, -1, F(-1, 9)):
            with pytest.raises(ValueError):
                torsion_family("six-torsion", lam)

    def test_four_two_members(self):
        want_points = {2: (F(249), F(4077)), 3: (F(684), F(17712)),
                       4: (F(1545), F(52677))}
        for lam in (2, 3, 4):
            fiber = torsion_family("four-two-torsion", lam)
            s = F(lam) ** 2
            assert fiber.point == (3 * (s * s + 16 * s + 3),
                                   27 * (7 * s * s + 10 * s - 1))
            assert fiber.point == want_points[lam]
            assert fiber.t0 == 1 and not fiber.nodal
            assert on_curve(fiber.curve, fiber.point)
            assert fiber.infinite_order

    def test_four_two_discriminant_display(self):
        for lam in (2, 3, 4, F(1, 2)):
            fiber = torsion_family("four-two-torsion", lam)
            lam = F(lam)
            assert fiber.curve.disc == (-2 ** 4 * 3 ** 12 * lam ** 4
                                        * (lam - 1) ** 2 * (lam + 1) ** 2
                                        * (3 * lam ** 4 - 14 * lam ** 2
                                           + 27) ** 3)

    @pytest.mark.parametrize("kind", ["six-torsion", "four-two-torsion"])
    def test_every_accepted_parameter_has_a_base_curve(self, kind):
        # the base discriminants vanish only at parameters the pencil
        # excludes, so run_family builds a base curve for every fiber
        disc = {"six-torsion":
                lambda lam: lam ** 6 * (lam + 1) ** 3 * (9 * lam + 1),
                "four-two-torsion":
                lambda lam: 16 * lam ** 4 * (lam - 1) ** 2 * (lam + 1) ** 2}
        accepted = 0
        for a in range(-12, 13):
            for b in range(1, 13):
                if gcd(a, b) != 1:
                    continue
                try:
                    torsion_family(kind, F(a, b))
                except ValueError:
                    continue
                assert torsion_base_curve(kind, F(a, b)).disc == \
                    disc[kind](F(a, b))
                accepted += 1
        assert accepted > 150

    def test_four_two_exclusions(self):
        for lam in (0, 1, -1):
            with pytest.raises(ValueError):
                torsion_family("four-two-torsion", lam)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            torsion_family("five-torsion", 2)


class TestSliceFamily37b:
    def test_unit_parameter(self):
        fiber = _e37b_pair(1, 1)
        assert (fiber.h1, fiber.h2) == (28, 4)
        assert fiber.u == 7 and fiber.delta == 56
        assert fiber.poly == PolyQ.of(-3584, -448, 0, 1)
        assert fiber.field.conductor == 7

    def test_minus_one_sixth_hits_7_9(self):
        fiber = _e37b_pair(-1, 6)
        assert fiber.u == F(7, 9)
        assert fiber.delta == F(-224, 27)
        assert fiber.field.conductor == 63

    def test_random_parameters(self):
        rng = random.Random(8)
        seen = 0
        while seen < 12:
            a, b = rng.randint(-20, 20), rng.randint(1, 20)
            if gcd(a, b) != 1:
                continue
            seen += 1
            fiber = _e37b_pair(a, b)
            u, d = fiber.u, fiber.delta
            assert d * d == -u * u * (27 * u * u - 202 * u + 27)
            assert fiber.h1 + fiber.h2 == 16 * (a * a + b * b)
            g2 = fiber.h1 * fiber.h2 - 27 * (a * a + b * b) ** 2
            assert g2 >= 0 and isqrt(g2 // 4) ** 2 * 4 == g2
            assert (2 ** 10 * fiber.h1 * fiber.h2) % fiber.field.conductor == 0
            assert fiber.poly.discriminant() == (2 ** 10 * fiber.h1 ** 2
                                                 * fiber.h2 ** 2 * g2 // 4)

    def test_trace_zero_points(self):
        rng = random.Random(9)
        seen = 0
        while seen < 6:
            a, b = rng.randint(-9, 9), rng.randint(1, 9)
            if gcd(a, b) != 1:
                continue
            seen += 1
            fiber = _e37b_pair(a, b)
            assert on_curve(fiber.curve, fiber.point)
            t = trace_point(fiber.curve, fiber.point,
                            fiber.field.galois_action)
            assert t is None

    def test_form_resultants_support(self):
        h1 = PolyQ.of(9, 12, 7)
        h2 = PolyQ.of(7, -12, 9)
        g = PolyQ.of(1, 0, 1)
        assert h1.resultant(h2) == 2 ** 10 * 37
        assert h1.resultant(g) == 4 * 37
        assert h2.resultant(g) == 4 * 37

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            _e37b_pair(2, 4)


class TestCensus37b:
    def test_height_eight_catalogue(self):
        census = census_37b(2000, 8)
        assert census.conductors == (7, 13, 63, 279, 871, 981, 1159, 1629)
        assert len(census.rows) == 88
        squarefree = {r.conductor for r in census.rows if r.squarefree}
        assert sum(r.new_field for r in census.rows) == len(squarefree)
        first = census.rows[0]
        assert (first.a, first.b, first.conductor) == (1, 0, 63)

    def test_each_pair_built_once(self, monkeypatch):
        # per pair: one integer row, with no field object, no resultant and
        # no PolyQ root search, and one model-scale check; per integral
        # model, shared by a pair and its rotation, one integer root search,
        # and h1, h2 and g factored by lookup in the one least-prime-factor
        # sieve of the census, with no factor() call
        import elltwists.kummer as kummer
        import elltwists.numcore as numcore
        calls = {"discriminant": 0, "roots": 0, "from_cubic": 0, "factor": 0,
                 "integer_roots": 0, "sieve": 0, "model_scale": 0}
        real_sieve = kummer.least_prime_factors
        real_disc, real_factor = PolyQ.discriminant, numcore.factor
        real_roots = PolyQ.rational_roots
        real_from_cubic = CubicField.from_cubic
        real_integer_roots = kummer._monic_cubic_integer_roots

        def disc(self):
            calls["discriminant"] += 1
            return real_disc(self)

        def roots(self):
            calls["roots"] += 1
            return real_roots(self)

        def from_cubic(poly, disc_factorization=None):
            calls["from_cubic"] += 1
            return real_from_cubic(poly, disc_factorization)

        def counted_factor(n):
            calls["factor"] += 1
            return real_factor(n)

        def integer_roots(c0, c1, c2):
            calls["integer_roots"] += 1
            return real_integer_roots(c0, c1, c2)

        def sieve(lo, hi):
            calls["sieve"] += 1
            return real_sieve(lo, hi)

        real_model_scale = kummer._check_model_scale

        def model_scale(ai, h1, h2, model):
            calls["model_scale"] += 1
            return real_model_scale(ai, h1, h2, model)

        monkeypatch.setattr(PolyQ, "discriminant", disc)
        monkeypatch.setattr(PolyQ, "rational_roots", roots)
        monkeypatch.setattr(CubicField, "from_cubic", from_cubic)
        monkeypatch.setattr(kummer, "_monic_cubic_integer_roots", integer_roots)
        monkeypatch.setattr(kummer, "least_prime_factors", sieve)
        monkeypatch.setattr(kummer, "_check_model_scale", model_scale)
        for name, module in list(sys.modules.items()):
            if name.startswith("elltwists") and \
                    getattr(module, "factor", None) is real_factor:
                monkeypatch.setattr(module, "factor", counted_factor)
        census = census_37b(2000, 8)
        assert len(census.rows) == 88
        assert calls["discriminant"] == 0
        assert calls["roots"] == 0
        assert calls["from_cubic"] == 0
        assert calls["integer_roots"] == 44
        assert calls["model_scale"] == 88
        assert calls["factor"] == 0
        assert calls["sieve"] == 1
        census_37b(100, 2)
        assert calls["sieve"] == 2

    @pytest.mark.parametrize(
        "fault", ["hint", "rational-root", "quartic", "model-scale"])
    def test_identity_failure_exits_two(self, monkeypatch, fault, capsys):
        # each identity the survey row checks raises SurfaceError when
        # broken, both for the exact fiber and for the survey, which then
        # ends with the theory-violation exit code
        import elltwists.kummer as kummer
        message = {"hint": "factored discriminant",
                   "rational-root": "rational root",
                   "quartic": "discriminant quartic",
                   "model-scale": "integral model"}[fault]
        if fault == "hint":
            # |g| = 3 at the first pair (1, 0); h1 = 7 and h2 = 9 there.  A
            # sieve whose entry at 3 names the wrong factor 5 makes 3 read
            # as 5, so the factored discriminant misses the model's
            real_sieve = kummer.least_prime_factors

            def wrong_at_three(lo, hi):
                lpf = real_sieve(lo, hi)
                lpf[3 - lo] = 5
                return lpf

            monkeypatch.setattr(kummer, "least_prime_factors", wrong_at_three)
        elif fault == "rational-root":
            monkeypatch.setattr(kummer, "_monic_cubic_integer_roots",
                                lambda c0, c1, c2: [1])
        elif fault == "quartic":
            # still a positive square, but not the slice point's
            real_disc = kummer.cubic_discriminant
            monkeypatch.setattr(kummer, "cubic_discriminant",
                                lambda c0, c1, c2: 4 * real_disc(c0, c1, c2))
        else:
            # a wrong a4: the model no longer scales the slice cubic
            monkeypatch.setattr(kummer, "E37B_SLICE", (4, 0, 1, 1, 0))
        with pytest.raises(SurfaceError, match=message):
            _e37b_pair(1, 0)
        assert main(["e37b", "--max-conductor", "100",
                     "--height-bound", "1"]) == 2
        assert message in capsys.readouterr().err

    def test_field_conductor_cross_check(self, monkeypatch, capsys):
        # the exact fiber's field must report its survey row's conductor
        real_from_cubic = CubicField.from_cubic

        def skewed(poly, disc_factorization=None):
            field = real_from_cubic(poly, disc_factorization)
            field.conductor += 1
            return field

        monkeypatch.setattr(CubicField, "from_cubic", skewed)
        with pytest.raises(SurfaceError, match="conductor"):
            _e37b_pair(1, 0)
        # the survey builds no field, but its sampled fibers do
        assert census_37b(100, 1).conductors == (7, 63)
        assert main(["e37b", "--max-conductor", "100",
                     "--height-bound", "1"]) == 2
        assert "SurfaceError" in capsys.readouterr().err

    def test_rows_match_the_exact_route(self):
        # every pair up to height 12: the integer row, factored in the
        # sieve of height 12, against the exact fiber, factored in the sieve
        # of its own height, and against a field classified from the model
        # alone, with its own factorization of the discriminant
        pairs = [(1, 0)] + [(a, b) for b in range(1, 13)
                            for a in range(-12, 13) if gcd(a, b) == 1]
        lpf = _e37b_sieve(12)
        for a, b in pairs:
            row = _e37b_row(a, b, lpf)
            fiber = _e37b_pair(a, b)
            alone = CubicField.from_cubic(PolyQ.of(*row.model, 1))
            assert (row.h1, row.h2) == (fiber.h1, fiber.h2)
            assert F(row.h1, row.h2) == fiber.u
            assert row.h_factorization == fiber.h_factorization \
                == factor(row.h1 * row.h2)
            assert row.disc_factorization == factor(alone.poly_disc)
            assert row.conductor == fiber.field.conductor == alone.conductor
            assert alone.poly == fiber.poly

    def test_survey_csv_is_pinned(self):
        # sha256 of census_37b(10**7, 40).csv() from the Fraction, PolyQ
        # and CubicField route that the integer rows replaced
        csv = census_37b(10 ** 7, 40).csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == \
            "a28d2a2b888f6237981f20c08a78bfc3645af5627e3b23721c46c1cdf8b900b0"

    def test_survey_csv_is_pinned_at_the_benchmark_scale(self):
        # sha256 of census_37b(29781782, 55).csv(), the survey behind
        # perfbench's slice-e37b workload, from the rows factored by
        # factor() one integer at a time, before the shared sieve
        csv = census_37b(29781782, 55).csv()
        assert csv.count("\n") == 3761
        assert hashlib.sha256(csv.encode()).hexdigest() == \
            "b729024bb0ad7f34b379c180df9d151d0c620429858b9247ebf3d3262deac945"

    def test_survey_csv_is_pinned_at_height_120(self):
        # sha256 of census_37b(10**6, 120).csv() from the survey that built
        # one full row per pair; at this height a pair and its rotation lie
        # far apart in the parameter list, so the table of first rows fills and
        # drains
        csv = census_37b(10 ** 6, 120).csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == \
            "e4b1a054ce9101a68f148f143d7b1af25a334882ed27609600115bef09a0dd9c"

    @pytest.mark.parametrize("max_conductor,height",
                             [(2000, 8), (10 ** 7, 40), (10 ** 6, 120)])
    def test_survey_matches_the_per_pair_oracle(self, max_conductor, height):
        assert census_37b(max_conductor, height).csv() == \
            census_37b_by_pairs(max_conductor, height).csv()

    def test_each_model_comes_from_a_pair_and_its_rotation(self):
        # the rotation (a, b) -> (-b, a), up to sign, maps the parameter
        # list of each height to itself, fixes no pair and keeps the
        # integral model, so the 3760 pairs of height 55 give 1880 models
        model = {(a, b): _e37b_forms(a, b)[3] for a, b in _e37b_parameters(55)}
        assert len(model) == 3760
        for (a, b), m in model.items():
            partner = (-b, a) if a > 0 else (b, -a)
            assert partner != (a, b) and partner in model
            assert model[partner] == m
        assert len(set(model.values())) == 1880

    def test_model_scale_checked_on_the_second_pair(self, monkeypatch,
                                                    capsys):
        # at height 1 the model of (1, 0) is classified there and reused by
        # (0, 1), the third pair; a model-scale identity broken only at
        # (0, 1), where h1 = 9 and h2 = 7, still raises
        import elltwists.kummer as kummer
        real = kummer._check_model_scale
        checked = []

        def broken_at_zero_one(ai, h1, h2, model):
            checked.append((h1, h2))
            if (h1, h2) == (9, 7):
                ai = (4, 0, 1, 1, 0)
            real(ai, h1, h2, model)

        monkeypatch.setattr(kummer, "_check_model_scale", broken_at_zero_one)
        with pytest.raises(SurfaceError, match="integral model"):
            census_37b(100, 1)
        assert checked == [(7, 9), (4, 28), (9, 7)]
        assert main(["e37b", "--max-conductor", "100",
                     "--height-bound", "1"]) == 2
        assert "integral model" in capsys.readouterr().err

    def test_model_met_once_exits_two(self, monkeypatch, capsys):
        # a parameter list without (1, 1), the partner of (-1, 1), leaves
        # one model in the table of first rows
        import elltwists.kummer as kummer
        real = kummer._e37b_parameters
        monkeypatch.setattr(kummer, "_e37b_parameters",
                            lambda height: real(height)[:-1])
        assert real(1)[-1] == (1, 1)
        with pytest.raises(SurfaceError, match="met once"):
            census_37b(100, 1)
        assert main(["e37b", "--max-conductor", "100",
                     "--height-bound", "1"]) == 2
        assert "met once" in capsys.readouterr().err

    def test_integral_model_root_oracle(self):
        # the field-arithmetic evaluation that the integer identity
        # replaced, kept as an independent check on every pair
        for row in census_37b(2000, 8).rows:
            fiber = _e37b_pair(row.a, row.b)
            assert fiber.cubic(fiber.field.gen() / fiber.h2) == fiber.field.zero()
            assert fiber.point[0] == fiber.field.gen() / fiber.h2

    def test_model_scale_matches_the_weighted_slice_oracle(self):
        # the closed form against the slice coefficients of the curve
        # rescaled by weight h2, on every pair to height 8, each also with
        # one a-invariant, one height or one model coefficient moved by one
        for a, b in _e37b_parameters(8):
            h1, h2, _, model = _e37b_forms(a, b)
            cases = [(E37B_SLICE, h1, h2, model)]
            for k in range(5):
                for d in (-1, 1):
                    ai = list(E37B_SLICE)
                    ai[k] += d
                    cases.append((ai, h1, h2, model))
            for d in (-1, 1):
                cases += [(E37B_SLICE, h1 + d, h2, model),
                          (E37B_SLICE, h1, h2 + d, model)]
                for k in range(3):
                    moved = list(model)
                    moved[k] += d
                    cases.append((E37B_SLICE, h1, h2, moved))
            for i, case in enumerate(cases):
                assert model_scale_holds(*case) == (i == 0), (a, b, i)
                if i == 0:
                    _check_model_scale(*case)
                else:
                    with pytest.raises(SurfaceError, match="integral model"):
                        _check_model_scale(*case)

    def test_wrongly_scaled_model_raises(self):
        for a, b in ((1, 0), (1, 1), (-1, 6), (5, 3)):
            fiber = _e37b_pair(a, b)
            h1, h2 = fiber.h1, fiber.h2
            model = fiber.poly.coeffs[:3]
            _check_model_scale(E37B_SLICE, h1, h2, model)
            # the slice cubic scaled by a wrong factor, h1 among them: the
            # model of the same field, but not of the slice point xi / h2
            for h in (h1, 2 * h2, -h2, h2 + 1):
                wrong = [c * h ** (3 - i)
                         for i, c in enumerate(fiber.cubic.coeffs[:3])]
                assert wrong != list(model)
                with pytest.raises(SurfaceError, match="integral model"):
                    _check_model_scale(E37B_SLICE, h1, h2, wrong)
            # the right model against another slice height or another curve
            with pytest.raises(SurfaceError, match="integral model"):
                _check_model_scale(E37B_SLICE, h1 + 1, h2, model)
            for k in range(5):
                ai = list(E37B_SLICE)
                ai[k] += 1
                with pytest.raises(SurfaceError, match="integral model"):
                    _check_model_scale(ai, h1, h2, model)

    def test_squarefree_collision_raises(self, monkeypatch):
        # hand every strictly squarefree model the conductor of the first
        # one: distinct squarefree products then share a conductor
        import elltwists.kummer as kummer
        real = kummer._e37b_model
        conductors = []

        def colliding(*args):
            hh, hint, conductor = real(*args)
            if hh.is_squarefree():
                conductors.append(conductor)
                conductor = conductors[0]
            return hh, hint, conductor

        monkeypatch.setattr(kummer, "_e37b_model", colliding)
        with pytest.raises(SurfaceError, match="same conductor"):
            census_37b(2000, 8)
        assert len(conductors) >= 2

    def test_csv_shape(self):
        census = census_37b(100, 2)
        lines = census.csv().strip().split("\n")
        assert lines[0] == "a, b, H1, H2, squarefree-flag, conductor, new-field-flag"
        assert len(lines) == len(census.rows) + 1
        assert all(len(line.split(", ")) == 7 for line in lines[1:])

    def test_divisor_bound(self):
        census = census_37b(10 ** 9, 6)
        for row in census.rows:
            assert (2 ** 10 * row.h1 * row.h2) % row.conductor == 0

    def test_counts_grow(self):
        census = census_37b(10 ** 6, 16)
        counts = [sum(1 for c in census.conductors if c <= 10 ** k)
                  for k in (4, 5, 6)]
        assert counts[0] < counts[1] < counts[2]


class TestQuadArithmetic:
    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40),
           st.integers(-40, 40))
    @settings(max_examples=60, deadline=None)
    def test_norm_is_multiplicative(self, a, b, c, d):
        x, y = K(a, b), K(c, d)
        assert (x * y).norm() == x.norm() * y.norm()

    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40),
           st.integers(-40, 40))
    @settings(max_examples=60, deadline=None)
    def test_division_round_trip(self, a, b, c, d):
        x, y = K(a, b), K(c, d)
        if y.norm() == 0:
            with pytest.raises(ZeroDivisionError):
                x / y
        else:
            assert (x / y) * y == x

    def test_scalar_mixing(self):
        x = K(F(1, 2), 3)
        assert 2 * x == K(1, 6)
        assert x + 1 == K(F(3, 2), 3)
        assert (1 / K(1, 1)) * K(1, 1) == 1
