"""Cyclic cubic fields: discriminants, splitting, Galois action, characters."""
import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, QQ
from sympy.abc import x as sym_x
from sympy.polys.numberfields.basis import round_two
from sympy.polys.numberfields.primes import prime_decomp

import elltwists.cubicfield as cubicfield
from elltwists.cubicfield import (CubicField, FieldConsistencyError, FieldElt,
                                  NonCyclicCubicError, NumberField,
                                  ReducibleCubicError, _zp_root_count)
from elltwists.numcore import PolyQ, factor, primes_up_to, recognize_integer


def census_cubic(a, b):
    h1 = 7 * a * a + 12 * a * b + 9 * b * b
    h2 = 9 * a * a - 12 * a * b + 7 * b * b
    g = a * a + b * b
    return [-16 * g * h1 * h2, -4 * h1 * h2, 0, 1]


def sympy_field_disc(coeffs):
    poly = sum(int(c) * sym_x ** i for i, c in enumerate(coeffs))
    return int(round_two(Poly(poly, sym_x, domain=QQ))[1])


KNOWN = [
    # (coeffs low-first, field disc, conductor)
    ([-1, -3, 0, 1], 81, 9),
    ([-1, -2, 1, 1], 49, 7),
    ([-3584, -448, 0, 1], 49, 7),
    ([-1008, -252, 0, 1], 3969, 63),
]


class TestFromCubic:
    @pytest.mark.parametrize("coeffs,disc,cond", KNOWN)
    def test_known_fields(self, coeffs, disc, cond):
        k = CubicField.from_cubic(coeffs)
        assert k.field_disc == disc
        assert k.conductor == cond
        assert k.conductor ** 2 == k.field_disc
        assert k.index ** 2 * k.field_disc == k.poly_disc

    def test_rejects_reducible(self):
        with pytest.raises(ReducibleCubicError) as exc:
            CubicField.from_cubic([0, -1, 0, 1])
        assert exc.value.roots

    def test_rejects_non_cyclic(self):
        with pytest.raises(NonCyclicCubicError):
            CubicField.from_cubic([-2, 0, 0, 1])
        with pytest.raises(NonCyclicCubicError):
            CubicField.from_cubic([1, 1, 0, 1])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            CubicField.from_cubic([1, 0, 1])
        with pytest.raises(ValueError):
            CubicField.from_cubic([0, 0, 0, 2])

    def test_rational_input_rescaled(self):
        # the line-slice cubic at (t0, u) = (0, 7/9) on the shifted model of
        # 37b; same field as the integral model above
        k = CubicField.from_cubic([Fraction(-112, 81), Fraction(-28, 9), 0, 1])
        assert k.conductor == 63
        assert all(c.denominator == 1 for c in k.poly.coeffs)
        assert k.poly.lc() == 1

    def test_conductor_primes_admissible(self):
        for coeffs, _, _ in KNOWN:
            k = CubicField.from_cubic(coeffs)
            for p, e in factor(k.conductor).pairs:
                assert (p % 3 == 1 and e == 1) or (p == 3 and e == 2)

    def test_factorization_hint_must_match(self):
        with pytest.raises(ValueError):
            CubicField.from_cubic([-1, -3, 0, 1], disc_factorization=factor(64))


class TestFieldDiscriminantOracle:
    def test_against_round_two_known(self):
        for coeffs, disc, _ in KNOWN:
            assert sympy_field_disc(coeffs) == disc

    def test_against_round_two_census(self):
        rng = random.Random(9)
        pairs = [(a, b) for a in range(-9, 10) for b in range(1, 10) if gcd(a, b) == 1]
        for a, b in rng.sample(pairs, 25):
            coeffs = census_cubic(a, b)
            k = CubicField.from_cubic(coeffs)
            assert k.field_disc == sympy_field_disc(coeffs), (a, b)

    def test_rescaled_model_same_field(self):
        # y = 3x turns x^3+c2x^2+c1x+c0 into a model with index multiplied
        # by 27; the field discriminant must not move
        for coeffs, disc, _ in KNOWN:
            c0, c1, c2, _one = coeffs
            scaled = [27 * c0, 9 * c1, 3 * c2, 1]
            k = CubicField.from_cubic(scaled)
            assert k.field_disc == disc
            assert k.index == 27 * CubicField.from_cubic(coeffs).index


class TestSplitting:
    def test_contract_examples(self):
        k7 = CubicField.from_cubic([-1, -2, 1, 1])
        k9 = CubicField.from_cubic([-1, -3, 0, 1])
        assert k7.splitting(13) == "split"
        assert k7.splitting(7) == "ramified"
        assert k9.splitting(2) == "inert"
        assert k9.splitting(3) == "ramified"

    def test_congruence_oracle_conductor_7(self):
        # splitting in the conductor-7 field is a pure congruence condition:
        # split exactly at p = +-1 mod 7
        k7 = CubicField.from_cubic([-1, -2, 1, 1])
        for p in primes_up_to(200):
            if p == 7:
                continue
            want = "split" if p % 7 in (1, 6) else "inert"
            assert k7.splitting(p) == want, p

    def test_congruence_oracle_conductor_9(self):
        k9 = CubicField.from_cubic([-1, -3, 0, 1])
        for p in primes_up_to(200):
            if p == 3:
                continue
            want = "split" if p % 9 in (1, 8) else "inert"
            assert k9.splitting(p) == want, p

    def test_index_primes_against_prime_decomp(self):
        # the index-512 model of the conductor-7 field exercises the p-adic
        # root counter where the naive mod-p factorization lies
        k = CubicField.from_cubic([-3584, -448, 0, 1])
        poly = Poly(sym_x ** 3 - 448 * sym_x - 3584, sym_x, domain=QQ)
        for p in primes_up_to(60):
            dec = prime_decomp(p, poly)
            if any(pr.e > 1 for pr in dec):
                want = "ramified"
            elif len(dec) == 3:
                want = "split"
            else:
                want = "inert"
            assert k.splitting(p) == want, p

    def test_same_field_same_splitting(self):
        k7 = CubicField.from_cubic([-1, -2, 1, 1])
        f1 = CubicField.from_cubic([-3584, -448, 0, 1])
        for p in primes_up_to(100):
            if p != 7:
                assert k7.splitting(p) == f1.splitting(p), p

    def test_cebotarev_proportion(self):
        for coeffs in ([-1, -2, 1, 1], [-1008, -252, 0, 1],
                       census_cubic(2, 1), census_cubic(1, -2)):
            k = CubicField.from_cubic(coeffs)
            ps = [p for p in primes_up_to(1000) if k.conductor % p != 0]
            frac = sum(1 for p in ps if k.splitting(p) == "split") / len(ps)
            assert abs(frac - 1 / 3) < 0.1, (coeffs, frac)

    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_shifted_generator_is_same_field(self, a, b, c):
        # Z[xi + c] = Z[xi]: shifting the generator changes nothing, not the
        # discriminant and not the splitting behaviour
        if gcd(a, b) != 1 or (a, b) == (0, 0):
            return
        coeffs = census_cubic(a, b)
        f = PolyQ.of(*coeffs)
        shifted = f(PolyQ.of(-c, 1))
        k1 = CubicField.from_cubic(f)
        k2 = CubicField.from_cubic(shifted)
        assert k1.field_disc == k2.field_disc
        for p in (2, 3, 7, 13):
            assert k1.splitting(p) == k2.splitting(p)

    def test_zp_root_count_brute_oracle(self):
        # brute oracle: for squarefree f with D = v_p(disc f), every solution
        # mod p^(3D+4) sits in the Hensel cluster of a genuine p-adic root,
        # clusters around distinct roots stay distinct mod p^(D+1), and roots
        # of non-rational p-adic factors cannot reach valuation 3D+4 at all
        # (conjugate roots are at distance <= D/2).  So the number of p-adic
        # roots equals the number of residues mod p^(D+1) hit by solutions
        # mod p^(3D+4).
        from sympy.ntheory import polynomial_congruence

        def check(c, primes):
            disc = PolyQ.of(*c).discriminant()
            expr = sum(int(ci) * sym_x ** i for i, ci in enumerate(c))
            for p in primes:
                d = 0
                t = int(disc)
                while t % p == 0:
                    t //= p
                    d += 1
                if d > 5:
                    continue
                roots = polynomial_congruence(expr, p ** (3 * d + 4))
                want = len({r % p ** (d + 1) for r in roots})
                assert _zp_root_count(c, p) == want, (c, p)

        rng = random.Random(4)
        checked = 0
        while checked < 40:
            c = [rng.randint(-8, 8) for _ in range(3)] + [1]
            if PolyQ.of(*c).discriminant() == 0:
                continue
            check(c, (2, 3, 5))
            checked += 1

        def inseparable(f, p):
            # nonconstant mod p, with derivative identically zero mod p
            return any(v % p for v in f[1:]) \
                and all(i * v % p == 0 for i, v in enumerate(f))

        # reductions whose derivative is identically zero: a cube mod 3 at
        # the top level (0, 1 and 3 roots over Z_3) ...
        for c in ([1, -3, 0, 1], [-1, 0, 0, 1], [-28, 39, -12, 1]):
            assert inseparable(c, 3)
            check(c, (3,))
        # ... and a square mod 2 met after one recentering at the double
        # root r mod 2 (1 and 3 roots over Z_2)
        for c, r in (([-4, 0, 1, 1], 0), ([-6, 1, 0, 1], 1), ([-2, 1, 0, 1], 1)):
            g = [int(v) for v in PolyQ.of(*c)(PolyQ.of(r, 2)).coeffs]
            while all(v % 2 == 0 for v in g):
                g = [v // 2 for v in g]
            assert inseparable(g, 2), (c, g)
            check(c, (2,))


class TestGaloisAction:
    def test_sigma_permutes_roots(self):
        for coeffs, _, _ in KNOWN:
            k = CubicField.from_cubic(coeffs)
            xi = k.gen()
            s = k.galois_action(xi)
            assert k.poly(s) == k.zero()
            assert s != xi
            assert k.galois_action(k.galois_action(s)) == xi

    def test_sigma_order_three_on_random_elements(self):
        rng = random.Random(11)
        k = CubicField.from_cubic([-1008, -252, 0, 1])
        for _ in range(20):
            e = k(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                  rng.randint(-9, 9), rng.randint(-9, 9))
            assert k.sigma(k.sigma(k.sigma(e))) == e

    def test_trace_identity(self):
        for coeffs, _, _ in KNOWN:
            k = CubicField.from_cubic(coeffs)
            xi = k.gen()
            total = xi + k.sigma(xi) + k.sigma(k.sigma(xi))
            assert total == k(-k.poly.coeff(2))
            assert xi.trace() == -k.poly.coeff(2)

    def test_sigma_is_field_automorphism(self):
        k = CubicField.from_cubic([-1, -2, 1, 1])
        a = k(2, 1, 0)
        b = k(Fraction(1, 2), 0, 3)
        assert k.sigma(a * b) == k.sigma(a) * k.sigma(b)
        assert k.sigma(a + b) == k.sigma(a) + k.sigma(b)
        assert k.sigma(a / b) == k.sigma(a) / k.sigma(b)

    def test_norm_and_trace_vs_sigma_orbit(self):
        k = CubicField.from_cubic([-1, -3, 0, 1])
        e = k(1, 2, Fraction(1, 3))
        orbit = [e, k.sigma(e), k.sigma(k.sigma(e))]
        total = orbit[0] + orbit[1] + orbit[2]
        prod = orbit[0] * orbit[1] * orbit[2]
        assert total == k(e.trace())
        assert prod == k(e.norm())


class TestFieldArithmetic:
    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
           st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
    @settings(max_examples=60, deadline=None)
    def test_division_inverts_multiplication(self, a0, a1, a2, b0, b1, b2):
        k = CubicField.from_cubic([-1, -2, 1, 1])
        a = k(a0, a1, a2)
        b = k(b0, b1, b2)
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a / b
        else:
            assert (a / b) * b == a

    def test_division_by_rational_scales(self, monkeypatch):
        # a rational divisor is a scalar: no extended Euclid in Q[x]
        k = CubicField.from_cubic([-1, -2, 1, 1])
        x = k(1, 2, 3)
        expected = x * Fraction(7, 3)

        def no_inverse(self):
            raise AssertionError("inverse() called for a rational divisor")

        monkeypatch.setattr(FieldElt, "inverse", no_inverse)
        assert k.gen() / 7 == k.gen() * Fraction(1, 7)
        assert x / Fraction(3, 7) == expected
        with pytest.raises(ZeroDivisionError):
            k.gen() / 0
        with pytest.raises(ZeroDivisionError):
            k.gen() / Fraction(0)

    def test_minimal_polynomial_satisfied(self):
        k = CubicField.from_cubic([-3584, -448, 0, 1])
        xi = k.gen()
        assert xi ** 3 - 448 * xi - 3584 == k.zero()
        assert xi ** 3 == 448 * xi + 3584


class TestNumberField:
    # one element type serves every degree
    def test_quadratic_field(self):
        k = NumberField(PolyQ.of(3, 0, 1))
        root = k.gen()
        assert root * root == -3
        e = k(Fraction(1, 2), 5)
        conj = k(Fraction(1, 2), -5)
        assert e.trace() == 1 and e + conj == 1
        assert e.norm() == Fraction(301, 4) and e * conj == e.norm()

    def test_quartic_field(self):
        # x^4 - 2: products reach xi^6, past the cubic's reduction rows
        k = NumberField(PolyQ.of(-2, 0, 0, 0, 1))
        xi = k.gen()
        assert xi ** 4 == 2 and xi ** 6 == k(0, 0, 2)
        assert [(xi ** i).trace() for i in range(5)] == [4, 0, 0, 0, 8]
        assert xi.norm() == -2 and k(3).norm() == 81
        e, f = k(1, -1, Fraction(2, 3), 5), k(0, 2, 0, -1)
        assert (e * f).norm() == e.norm() * f.norm()
        assert (e / f) * f == e and (1 / e) * e == 1

    def test_shape_checks(self):
        for poly in (PolyQ.of(1, 1), PolyQ.of(3, 0, 2)):
            with pytest.raises(ValueError):
                NumberField(poly)
        k = NumberField(PolyQ.of(3, 0, 1))
        with pytest.raises(ValueError):
            k(1, 2, 3)
        with pytest.raises(ValueError):
            k.gen() + CubicField.from_cubic([-1, -2, 1, 1]).gen()
        assert NumberField(PolyQ.of(3, 0, 1)) == k


class TestMatchingCharacter:
    def test_prime_conductors(self):
        k7 = CubicField.from_cubic([-1, -2, 1, 1])
        assert k7.matching_character().label() == "(7; 7:1)"
        k9 = CubicField.from_cubic([-1, -3, 0, 1])
        assert k9.matching_character().label() == "(9; 3:1)"

    def test_conductor_63_disambiguation(self):
        # two orbits exist mod 63; the splitting data must pick exactly one
        k = CubicField.from_cubic([-1008, -252, 0, 1])
        chi = k.matching_character()
        assert chi.conductor == 63
        for p in primes_up_to(200):
            if p in (3, 7):
                continue
            assert (chi.value_exponent(p) == 0) == (k.splitting(p) == "split")

    @pytest.mark.parametrize("coeffs", [[-1, -2, 1, 1], census_cubic(-4, 3)])
    def test_one_flipped_splitting_matches_nothing(self, coeffs, monkeypatch):
        # conductors 7 and 819 (four pairs); the first good prime's
        # splitting flipped leaves no pair that agrees at every prime
        k = CubicField.from_cubic(coeffs)
        assert k.matching_character().conductor == k.conductor
        splitting = CubicField.splitting
        flip = {"split": "inert", "inert": "split"}
        monkeypatch.setattr(CubicField, "splitting", lambda self, p: (
            flip[splitting(self, p)] if p == 2 else splitting(self, p)))
        with pytest.raises(FieldConsistencyError, match="^0 order-3"):
            k.matching_character()

    def test_each_prime_is_split_once(self, monkeypatch):
        # four candidate pairs mod 819 share one splitting per good prime
        k = CubicField.from_cubic(census_cubic(-4, 3))
        splitting, asked = CubicField.splitting, []
        monkeypatch.setattr(CubicField, "splitting", lambda self, p: (
            asked.append(p) or splitting(self, p)))
        assert k.matching_character().label() == "(819; 3:1, 7:2, 13:1)"
        assert asked == [p for p in primes_up_to(200) if 819 % p]

    def test_pairs_left_together_are_an_error(self, monkeypatch):
        # with no prime to tell them apart both pairs mod 63 survive, and
        # neither is picked
        monkeypatch.setattr(cubicfield, "_MATCH_BOUND", 1)
        k = CubicField.from_cubic([-1008, -252, 0, 1])
        with pytest.raises(FieldConsistencyError, match="^2 order-3"):
            k.matching_character()

    def test_same_field_same_orbit(self):
        a = CubicField.from_cubic([-1, -2, 1, 1]).matching_character()
        b = CubicField.from_cubic([-3584, -448, 0, 1]).matching_character()
        assert a == b

    def test_gaussian_period_round_trip(self):
        # rebuild the field of a character from its kernel via Gaussian
        # periods, then match back: must land on the orbit we started from
        from elltwists.dirichlet import galois_orbits
        for f in (7, 9, 13):
            chi = galois_orbits(f, 3)[0]
            with mpmath.workdps(40):
                zs = [mpmath.exp(2j * mpmath.pi * a / f) for a in range(f)]
                kernel = [a for a in range(1, f) if chi.value_exponent(a) == 0]
                cosets = {}
                for a in range(1, f):
                    e = chi.value_exponent(a)
                    if e is not None:
                        cosets.setdefault(e, []).append(a)
                periods = [sum(zs[a] for a in cosets[e]) for e in sorted(cosets)]
                coeffs = []
                # elementary symmetric functions of the three periods
                e1 = sum(periods)
                e2 = (periods[0] * periods[1] + periods[0] * periods[2]
                      + periods[1] * periods[2])
                e3 = periods[0] * periods[1] * periods[2]
                coeffs = [recognize_integer(float(mpmath.re(-e3)), tol=1e-6),
                          recognize_integer(float(mpmath.re(e2)), tol=1e-6),
                          recognize_integer(float(mpmath.re(-e1)), tol=1e-6), 1]
            k = CubicField.from_cubic(coeffs)
            assert k.conductor == f
            assert k.matching_character() == chi


class TestCensusFieldClaims:
    def pairs(self, n, seed=3):
        rng = random.Random(seed)
        out = []
        while len(out) < n:
            a = rng.randint(-30, 30)
            b = rng.randint(-30, 30)
            if b <= 0 or gcd(a, b) != 1:
                continue
            out.append((a, b))
        return out

    def test_eisenstein_ramification_on_100_pairs(self):
        for a, b in self.pairs(100):
            h1h2 = (7 * a * a + 12 * a * b + 9 * b * b) * \
                   (9 * a * a - 12 * a * b + 7 * b * b)
            k = CubicField.from_cubic(census_cubic(a, b))
            for p, e in factor(h1h2).pairs:
                if e == 1 and p not in (2, 3, 37):
                    # Eisenstein shape at p: totally ramified, so p divides
                    # the conductor
                    assert k.conductor % p == 0, (a, b, p)
                    assert k.splitting(p) == "ramified"

    def test_split_primes_on_100_pairs(self):
        for a, b in self.pairs(100, seed=8):
            gp = 3 * a * a + a * b - 3 * b * b
            k = CubicField.from_cubic(census_cubic(a, b))
            for p in factor(abs(gp)).primes:
                if p in (2, 3, 37) or k.conductor % p == 0:
                    continue
                assert k.splitting(p) == "split", (a, b, p)
