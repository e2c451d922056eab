"""Curve arithmetic checks.  The Frobenius traces are recounted by a direct
point enumeration that sweeps the plane in the opposite order from the
production path, the baby-step giant-step count is held to the Legendre
count on every prime it serves up to 2 * 10^4, the real period is recomputed by direct numerical
integration, and the group law is exercised on the two conductor-37 curves.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elltwists.elliptic as elliptic
from elltwists.elliptic import (_BSGS_MIN_P, Curve, PointCountError,
                                curve_add, curve_mul, curve_neg,
                                is_nontorsion, on_curve, point_order,
                                trace_point)
from elltwists.numcore import primes_up_to

E37A = Curve((0, 0, 1, -1, 0), label="37a", conductor=37, root_number=-1)
E37B = Curve((0, 1, 1, -3, 1), label="37b", conductor=37, root_number=1)
# CM by Z[zeta_3] (j = 0) and by Z[i] (j = 1728): at inert p the group can
# be non-cyclic, and a point of E alone may leave several orders
E27A = Curve((0, 0, 1, 0, -7), label="27a", conductor=27)
E32A = Curve((0, 0, 0, 4, 0), label="32a", conductor=32)
GEN_A = (Fraction(0), Fraction(0))


def affine_count(curve: Curve, p: int) -> int:
    """Solutions of the curve equation mod p, y in the outer loop so the
    enumeration order shares nothing with the character-sum route."""
    a1, a2, a3, a4, a6 = (int(a) % p for a in curve.a_invariants)
    count = 0
    for y in range(p):
        lhs = (y * y + a3 * y) % p
        for x in range(p):
            rhs = ((x + a2) * x + a4) * x + a6
            if (lhs + a1 * x * y - rhs) % p == 0:
                count += 1
    return count


class TestTraceOfFrobenius:
    @pytest.mark.parametrize("curve", [E37A, E37B], ids=["37a", "37b"])
    def test_recount_by_enumeration(self, curve):
        # good p: the projective count is p + 1 - a_p, one point at infinity
        for p in primes_up_to(230):        # the first fifty primes
            if p == 37:
                continue
            assert curve.ap(p) == p - affine_count(curve, p)

    def test_bad_prime_classification(self):
        # conductor 37: multiplicative reduction, sign from the local square
        assert E37A.ap(37) == -1
        assert E37B.ap(37) == 1

    def test_additive_reduction_is_zero(self):
        curve = Curve((0, 0, 0, 2, 0), conductor=256)
        assert curve.ap(2) == 0

    def test_table_is_multiplicative(self):
        an = E37B.an_table(200)
        for m in range(1, 201):
            for n in range(1, 201 // m + 1):
                if Fraction(m).numerator and m * n <= 200 and \
                        __import__("math").gcd(m, n) == 1:
                    assert an[m * n] == an[m] * an[n]

    def test_prime_power_recurrence(self):
        an = E37B.an_table(200)
        for p in (2, 3, 5, 7, 11, 13):
            ap = E37B.ap(p)
            assert an[p] == ap
            if p * p <= 200:
                assert an[p * p] == ap * ap - p
            if p ** 3 <= 200:
                assert an[p ** 3] == ap * (ap * ap - p) - p * ap

    def test_table_extends_without_recounting(self, monkeypatch):
        # growing the limit one step at a time counts each a_p once, and
        # the grown table equals one built in a single call
        fresh = Curve((0, 1, 1, -3, 1), conductor=37).an_table(1100)
        curve = Curve((0, 1, 1, -3, 1), conductor=37)
        asked = []
        ap = Curve.ap
        monkeypatch.setattr(Curve, "ap",
                            lambda self, p: asked.append(p) or ap(self, p))
        for limit in range(1000, 1101):
            an = curve.an_table(limit)
            assert len(an) >= limit + 1
        assert sorted(asked) == list(primes_up_to(1100))
        assert an[:1101] == fresh[:1101]

    def test_nonintegral_model_rejected(self):
        curve = Curve((0, 0, 0, Fraction(1, 4), 0))
        with pytest.raises(ValueError):
            curve.ap(5)


class TestBabyStepGiantStep:
    P = 10007  # a prime above the cutoff

    @pytest.mark.parametrize("curve, top", [(E37A, 20000), (E37B, 20000),
                                            (E27A, 10000), (E32A, 10000)],
                             ids=["37a", "37b", "27a", "32a"])
    def test_matches_legendre_count(self, curve, top, monkeypatch):
        # every prime the search serves, against the O(p) count it replaced
        drawn = []
        search = elliptic._annihilators
        monkeypatch.setattr(elliptic, "_annihilators",
                            lambda P, *rest: drawn.append(P) or search(P, *rest))
        several = 0
        for p in primes_up_to(top):
            if p < _BSGS_MIN_P or 6 * int(curve.disc) % p == 0:
                continue
            drawn.clear()
            assert curve._ap_bsgs(p) == curve._ap_legendre(p), p
            several += len(drawn) > 1
        # the twist had to settle the order at some of these primes
        assert several

    def test_count_follows_prime_size(self, monkeypatch):
        used = []
        for name in ("_ap_legendre", "_ap_bsgs"):
            monkeypatch.setattr(Curve, name, lambda self, p, name=name:
                                used.append((name, p)) or 0)
        curve = Curve((0, 1, 1, -3, 1), conductor=37)
        curve.ap(4999)
        curve.ap(self.P)
        assert used == [("_ap_legendre", 4999), ("_ap_bsgs", self.P)]

    def test_wrong_order_is_refused(self, monkeypatch):
        order = self.P + 1 - E37B._ap_legendre(self.P)
        monkeypatch.setattr(elliptic, "_bsgs_order",
                            lambda a, b, p, points: order + 1)
        curve = Curve((0, 1, 1, -3, 1), conductor=37)
        with pytest.raises(PointCountError):
            curve.ap(self.P)
        assert self.P not in curve._ap_cache

    def test_check_point_off_the_curve_is_refused(self, monkeypatch):
        # the search runs on true points; the point drawn after it is moved
        # off the curve, and the true order must not pass it
        searched = []
        search, points = elliptic._bsgs_order, elliptic._fp_points
        monkeypatch.setattr(elliptic, "_bsgs_order",
                            lambda *args: searched.append(1) or search(*args))

        def shifted(a, b, p):
            for x, y in points(a, b, p):
                yield (x, y + 1) if searched else (x, y)

        monkeypatch.setattr(elliptic, "_fp_points", shifted)
        curve = Curve((0, 1, 1, -3, 1), conductor=37)
        with pytest.raises(PointCountError):
            curve.ap(self.P)
        assert searched and self.P not in curve._ap_cache

    def test_legendre_count_outside_hasse_is_refused(self, monkeypatch):
        # 21^2 > 4 * 101: an explicit raise, not an assert python -O strips
        monkeypatch.setattr(Curve, "_ap_legendre", lambda self, p: 21)
        curve = Curve((0, 1, 1, -3, 1), conductor=37)
        with pytest.raises(PointCountError):
            curve.ap(101)

    @pytest.mark.parametrize("found", [lambda lo, hi: set(),
                                       lambda lo, hi: set(range(lo, hi + 1))],
                             ids=["no-order", "never-single"])
    def test_search_never_guesses(self, found, monkeypatch):
        monkeypatch.setattr(elliptic, "_annihilators",
                            lambda P, a, p, lo, hi: found(lo, hi))
        curve = Curve((0, 1, 1, -3, 1), conductor=37)
        with pytest.raises(PointCountError):
            curve.ap(self.P)


class TestRealPeriod:
    def test_frozen_values(self):
        with mpmath.workdps(30):
            assert abs(E37A.real_period() -
                       mpmath.mpf("5.9869172924639192596640199589")) < 1e-25
            assert abs(E37B.real_period() -
                       mpmath.mpf("6.53112955742537504102584986924")) < 1e-25

    @pytest.mark.parametrize("curve", [E37A, E37B], ids=["37a", "37b"])
    def test_against_direct_integration(self, curve):
        # the period is 2 int_{e1}^{inf} dx / sqrt(h(x)) for the completed
        # cubic h; quadrature is wholly independent of the agm route.  The
        # substitution x = e1 + s^2 removes the branch-point singularity.
        with mpmath.workdps(25):
            c = [mpmath.mpf(1),
                 mpmath.mpf(curve.b2.numerator) / curve.b2.denominator / 4,
                 mpmath.mpf(curve.b4.numerator) / curve.b4.denominator / 2,
                 mpmath.mpf(curve.b6.numerator) / curve.b6.denominator / 4]
            e1 = max(r.real for r in mpmath.polyroots(c, maxsteps=100,
                                                      extraprec=60))
            # h(x) = (x - e1) q(x) by synthetic division
            q1 = c[1] + e1
            q0 = c[2] + e1 * q1

            def integrand(s):
                x = e1 + s * s
                return 2 / mpmath.sqrt((x + q1) * x + q0)

            quad = mpmath.quad(integrand, [0, mpmath.inf])
            assert abs(curve.real_period() - 2 * quad) < 1e-18


class TestGroupLaw:
    def test_known_multiples(self):
        want = {2: (1, 0), 3: (-1, -1), 4: (2, -3), 6: (6, 14)}
        for n, xy in want.items():
            P = curve_mul(E37A, n, GEN_A)
            assert P == (Fraction(xy[0]), Fraction(xy[1]))
            assert on_curve(E37A, P)

    def test_inverse_and_identity(self):
        assert curve_add(E37A, GEN_A, curve_neg(E37A, GEN_A)) is None
        assert curve_add(E37A, None, GEN_A) == GEN_A
        assert curve_add(E37A, GEN_A, None) == GEN_A
        assert curve_mul(E37A, 0, GEN_A) is None

    @given(st.integers(-8, 8), st.integers(-8, 8))
    @settings(max_examples=40, deadline=None)
    def test_mul_is_additive(self, m, n):
        lhs = curve_mul(E37A, m + n, GEN_A)
        rhs = curve_add(E37A, curve_mul(E37A, m, GEN_A),
                        curve_mul(E37A, n, GEN_A))
        assert lhs == rhs

    def test_membership_predicate(self):
        assert on_curve(E37A, GEN_A)
        assert not on_curve(E37A, (Fraction(5), Fraction(5)))
        assert on_curve(E37A, None)


class TestTorsion:
    def test_three_torsion_point(self):
        P = (Fraction(1), Fraction(0))
        assert on_curve(E37B, P)
        assert point_order(E37B, P) == 3
        assert not is_nontorsion(E37B, P)

    def test_generator_has_infinite_order(self):
        assert point_order(E37A, GEN_A) is None
        assert is_nontorsion(E37A, GEN_A)

    def test_trace_of_a_rational_point_triples_it(self):
        assert trace_point(E37A, GEN_A, lambda x: x) == \
            curve_mul(E37A, 3, GEN_A)


class TestValidation:
    def test_singular_curve_rejected(self):
        with pytest.raises(ValueError):
            Curve((0, 0, 0, 0, 0))

    def test_root_number_values(self):
        with pytest.raises(ValueError):
            Curve((0, 0, 1, -1, 0), root_number=2)

    def test_conductor_primes_must_divide_discriminant(self):
        with pytest.raises(ValueError):
            Curve((0, 0, 1, -1, 0), conductor=35)

    def test_delta_unit(self):
        assert E37B.delta_unit(7) == 1
        assert E37B.delta_unit(37) == 0
