"""Exact-arithmetic kernel tests.

The resultant is checked against two independent oracles: the product
formula lc(p)^deg(q) * prod q(r_i) over the roots r_i of p, evaluated on
factored test polynomials where the roots are known exactly, and plain
Gaussian elimination of the Sylvester matrix over Fraction.  Rational
roots of monic cubics are checked against the rational root theorem and
against the known roots of products of linear factors; their integer roots,
the roots of a cubic mod p and the least-prime-factor tables against the
plain oracles of tests/oracles.py, and the binned bucket sums, bit for bit,
against the list-and-fsum oracle there.
"""
import math
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elltwists.lvalue as lvalue
import elltwists.numcore as numcore
import oracles
from elltwists.numcore import (
    PolyQ,
    RecognitionError,
    cubic_discriminant,
    factor,
    is_perfect_square,
    is_prime,
    primes_up_to,
    recognize_integer,
    _bareiss_det,
)

F = Fraction


# ---------------------------------------------------------------------------
# factorization

def test_factor_recombines_exhaustively():
    for n in range(1, 3000):
        f = factor(n)
        assert f.n == n
        assert all(is_prime(p) for p in f.primes)
        assert all(e >= 1 for _, e in f.pairs)
        assert list(f.primes) == sorted(f.primes)


def test_factor_known_values():
    assert factor(1).pairs == ()
    assert factor(37).pairs == ((37, 1),)
    assert factor(148).pairs == ((2, 2), (37, 1))
    assert factor(37888).pairs == ((2, 10), (37, 1))
    assert factor(600851475143).pairs == ((71, 1), (839, 1), (1471, 1), (6857, 1))


def test_factor_large_semiprime():
    p, q = 1000003, 1000033
    assert factor(p * q).pairs == ((p, 1), (q, 1))


def _trial_division(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by plain trial division: 2, then every odd d
    with d * d <= n."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(sorted(out.items()))


def test_factor_matches_trial_division_below_2e5():
    got = [factor(n).pairs for n in range(1, 2 * 10 ** 5)]
    want = [_trial_division(n) for n in range(1, 2 * 10 ** 5)]
    bad = [n for n, g, w in zip(range(1, 2 * 10 ** 5), got, want) if g != w]
    assert bad == []


def test_factor_matches_trial_division_below_2_64():
    # random n < 2^64 multiplied together from random primes of 4 to 32
    # bits, some of them repeated; trial division certifies every prime, so
    # the factorization is known by construction
    rng = random.Random(64)
    certified: set[int] = set()

    def random_prime(bits: int) -> int:
        p = rng.getrandbits(bits) | 1
        while not is_prime(p):
            p += 2
        if p not in certified:
            assert _trial_division(p) == ((p, 1),), p
            certified.add(p)
        return p

    for _ in range(40):
        n, want = 1, {}
        while True:
            p = random_prime(rng.choice((4, 10, 16, 24, 32)))
            k = rng.choice((1, 1, 2))
            if n * p ** k >= 2 ** 64:
                break
            n *= p ** k
            want[p] = want.get(p, 0) + k
        assert factor(n).pairs == tuple(sorted(want.items())), n


def test_factor_proves_small_cofactors_prime(monkeypatch):
    # a trial-division cofactor below _TRIAL_BOUND^2 = 10^6 is 1 or proven
    # prime, so Miller-Rabin never runs below 10^6.  Checked on every prime
    # (the longest trial division), every n past the square of the last
    # trial prime 997 (where the divisors run out before their square
    # passes the cofactor) and a seeded sample of the rest
    def refuse(n):
        raise AssertionError(f"is_prime({n}) called while factoring")

    assert numcore._TRIAL_BOUND ** 2 == 10 ** 6
    rng = random.Random(6)
    ns = set(primes_up_to(10 ** 6)) | set(range(997 ** 2, 10 ** 6)) \
        | {rng.randrange(1, 10 ** 6) for _ in range(50000)}
    monkeypatch.setattr(numcore, "is_prime", refuse)
    assert all(factor(n).n == n for n in ns)


def test_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        factor(0)
    with pytest.raises(ValueError):
        factor(-6)


@pytest.mark.parametrize("n,primes", [(0, ()), (1, ()), (2, (2,)),
                                      (3, (2, 3)), (4, (2, 3))])
def test_primes_up_to_small_bounds(n, primes):
    # the bounds below the sieve's first composite, uncached and cached
    assert primes_up_to.__wrapped__(n) == primes
    assert primes_up_to(n) == primes


def test_is_prime_agrees_with_sieve():
    sieve = set(primes_up_to(10000))
    for n in range(10000):
        assert is_prime(n) == (n in sieve)


def test_squarefree_and_square_detection():
    assert factor(1).is_squarefree() and factor(37 * 41).is_squarefree()
    assert not factor(12).is_squarefree() and not factor(49).is_squarefree()
    assert is_perfect_square(0) and is_perfect_square(12845056)
    assert not is_perfect_square(2) and not is_perfect_square(-4)


def test_factorization_accessors():
    f = factor(360)
    assert f.valuation(2) == 3 and f.valuation(7) == 0
    assert not f.is_squarefree()


@given(st.integers(min_value=2, max_value=10 ** 9))
@settings(max_examples=60, deadline=None)
def test_factor_recombines_property(n):
    f = factor(n)
    assert f.n == n
    assert all(is_prime(p) for p in f.primes)


# ---------------------------------------------------------------------------
# polynomials: resultant against the root-product oracle

def _poly_from_roots(roots):
    p = PolyQ.of(1)
    for r in roots:
        p = p * PolyQ.of(-r, 1)
    return p


def _resultant_oracle(p_roots, p_lc, q: PolyQ):
    # Res(p, q) = lc(p)^deg(q) * prod_i q(root_i), independent of Sylvester
    out = Fraction(p_lc) ** q.degree
    for r in p_roots:
        out *= q(Fraction(r))
    return out


def test_resultant_matches_root_product_oracle():
    rng = random.Random(2024)
    for _ in range(120):
        roots = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(rng.randrange(1, 5))]
        lc = rng.choice([1, 2, 3, -1])
        p = _poly_from_roots(roots) * lc
        q = PolyQ.of(*[rng.randrange(-5, 6) for _ in range(rng.randrange(2, 6))])
        if q.is_zero():
            continue
        assert p.resultant(q) == _resultant_oracle(roots, lc, q)


def _fraction_det(rows):
    # plain Gaussian elimination over Fraction, the resultant's former route
    rows = [[Fraction(v) for v in row] for row in rows]
    size = len(rows)
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                f = rows[r][col] * inv
                for c in range(col, size):
                    rows[r][c] -= f * rows[col][c]
    return det


def _sylvester(p: PolyQ, q: PolyQ):
    m, n = p.degree, q.degree
    pc, qc = list(reversed(p.coeffs)), list(reversed(q.coeffs))
    return ([[0] * i + pc + [0] * (n - 1 - i) for i in range(n)]
            + [[0] * i + qc + [0] * (m - 1 - i) for i in range(m)])


def _sylvester_det_oracle(p: PolyQ, q: PolyQ) -> Fraction:
    return _fraction_det(_sylvester(p, q))


def _random_fraction_poly(rng, degree, big):
    den = 10 ** 30 + 57 if big else 12
    coeffs = [Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, den))
              for _ in range(degree)]
    return PolyQ.of(*coeffs, Fraction(rng.choice([-1, 1]) * rng.randrange(1, 50),
                                      rng.randrange(1, den)))


def test_resultant_matches_sylvester_elimination():
    rng = random.Random(68)
    for trial in range(150):
        big = trial % 2 == 1
        p = _random_fraction_poly(rng, rng.randrange(1, 6), big)
        q = _random_fraction_poly(rng, rng.randrange(1, 6), big)
        assert p.resultant(q) == _sylvester_det_oracle(p, q)
        assert p.discriminant() * p.lc() == (
            (-1) ** (p.degree * (p.degree - 1) // 2)
            * _sylvester_det_oracle(p, p.derivative()))


def test_resultant_with_a_zero_pivot():
    # the leading 2x2 minor of this Sylvester matrix vanishes, so the
    # elimination must swap rows; Res(x^2 + x + 1, x + 1) = 1, and the
    # scales come out as (1/3)^1 (2/5)^2
    p = PolyQ.of(1, 1, 1) * Fraction(1, 3)
    q = PolyQ.of(2, 2) * Fraction(1, 5)
    rows = _sylvester(p, q)
    assert _fraction_det([row[:2] for row in rows[:2]]) == 0
    assert p.resultant(q) == _sylvester_det_oracle(p, q) == Fraction(4, 75)
    assert PolyQ.of(1, 1, 1).resultant(PolyQ.of(1, 1)) == 1


def test_bareiss_matches_fraction_elimination():
    rng = random.Random(31)
    for _ in range(200):
        size = rng.randrange(1, 7)
        rows = [[rng.choice([0, 0, rng.randrange(-10 ** 12, 10 ** 12)])
                 for _ in range(size)] for _ in range(size)]
        if rng.random() < 0.2 and size > 1:
            rows[-1] = [2 * v - w for v, w in zip(rows[0], rows[1])]
        expect = _fraction_det(rows)
        got = _bareiss_det([row[:] for row in rows])
        assert isinstance(got, int) and got == expect
    assert _bareiss_det([[0, 1], [1, 0]]) == -1
    assert _bareiss_det([[0, 1], [0, 1]]) == 0


def test_resultant_symmetry_sign():
    rng = random.Random(11)
    for _ in range(80):
        p = PolyQ.of(*[rng.randrange(-4, 5) for _ in range(rng.randrange(2, 6))])
        q = PolyQ.of(*[rng.randrange(-4, 5) for _ in range(rng.randrange(2, 6))])
        if p.is_zero() or q.is_zero() or p.degree < 1 or q.degree < 1:
            continue
        assert p.resultant(q) == (-1) ** (p.degree * q.degree) * q.resultant(p)


def test_discriminant_known_values():
    assert PolyQ.of(-1, 0, 0, 1).discriminant() == -27        # x^3 - 1
    assert PolyQ.of(0, -1, 0, 1).discriminant() == 4          # x^3 - x
    assert PolyQ.of(-2, 0, 0, 1).discriminant() == -108       # x^3 - 2
    assert PolyQ.of(1, 0, 0, 0, 1).discriminant() == 256      # x^4 + 1
    # general cubic x^3 + px + q: disc = -4p^3 - 27q^2
    for p_, q_ in [(-448, -3584), (1, 1), (-1, 3), (5, -2)]:
        assert PolyQ.of(q_, p_, 0, 1).discriminant() == -4 * p_ ** 3 - 27 * q_ ** 2
    # quadratic ax^2 + bx + c: disc = b^2 - 4ac
    for a, b, c in [(1, 3, 1), (2, -5, 3), (3, 0, -7)]:
        assert PolyQ.of(c, b, a).discriminant() == b * b - 4 * a * c


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=3, max_size=3),
       st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                min_size=3, max_size=3))
@settings(max_examples=80, deadline=None)
def test_cubic_discriminant_matches_resultant(ints, fracs):
    # the closed form agrees with the resultant route on integers and
    # fractions alike, and stays in the ring it was given
    for c0, c1, c2 in (ints, fracs):
        d = cubic_discriminant(c0, c1, c2)
        assert d == PolyQ.of(c0, c1, c2, 1).discriminant()
    assert isinstance(cubic_discriminant(*ints), int)


def test_discriminant_vanishes_iff_repeated_root():
    double = _poly_from_roots([2, 2, 5])
    simple = _poly_from_roots([1, 2, 5])
    assert double.discriminant() == 0
    assert simple.discriminant() != 0


@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=0, max_size=5),
       st.lists(st.integers(min_value=-8, max_value=8), min_size=0, max_size=5),
       st.lists(st.integers(min_value=-8, max_value=8), min_size=0, max_size=5))
@settings(max_examples=80, deadline=None)
def test_poly_ring_laws(a, b, c):
    p, q, r = PolyQ.of(*a), PolyQ.of(*b), PolyQ.of(*c)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p - p == PolyQ.of()


def test_poly_divmod_roundtrip():
    rng = random.Random(5)
    for _ in range(100):
        p = PolyQ.of(*[rng.randrange(-6, 7) for _ in range(rng.randrange(1, 7))])
        q = PolyQ.of(*[rng.randrange(-6, 7) for _ in range(rng.randrange(1, 5))])
        if q.is_zero():
            continue
        quo, rem = p.divmod(q)
        assert quo * q + rem == p
        assert rem.is_zero() or rem.degree < q.degree


def test_rational_roots_need_a_monic_cubic():
    # every caller hands over a monic cubic; anything else is refused
    for p in (PolyQ.of(), PolyQ.of(5), PolyQ.of(-6, 1), PolyQ.of(-6, 1, 1),
              _poly_from_roots([1, 2, 3, 4]), _poly_from_roots([1, 2, 3]) * 2,
              _poly_from_roots([F(1, 2), 0, 5]) * F(1, 3)):
        with pytest.raises(ValueError):
            p.rational_roots()


def test_separable_cubics_lift_from_a_prime_off_the_discriminant(monkeypatch):
    # a nonzero discriminant keeps the roots apart modulo the least odd
    # prime that does not divide it, so the closed form is never consulted
    def unused(*coeffs):
        raise AssertionError("closed form called on a separable cubic")

    monkeypatch.setattr(numcore, "cubic_double_root", unused)
    assert PolyQ.of(-3584, -448, 0, 1).rational_roots() == []
    assert _poly_from_roots([1, 2, -3]).rational_roots() == [-3, 1, 2]
    assert _poly_from_roots([F(1, 2), F(-4, 3), 5]).rational_roots() == \
        [F(-4, 3), F(1, 2), 5]
    assert numcore._monic_cubic_integer_roots(0, -1, 0) == [-1, 0, 1]
    # roots that collide modulo 3, 5, 7 and 11: the lift starts at 13
    assert cubic_discriminant(0, -1155 ** 2, 0) % (3 * 5 * 7 * 11) == 0
    assert numcore._monic_cubic_integer_roots(0, -1155 ** 2, 0) == \
        [-1155, 0, 1155]
    assert (PolyQ.of(3, 0, 1) * _poly_from_roots([F(-7, 4)])).rational_roots() \
        == [F(-7, 4)]


def test_repeated_roots_take_the_closed_form(monkeypatch):
    real = numcore.cubic_double_root
    # (x - r)^2 (x - s) and the triple root
    for r, s in ((2, 5), (5, 2), (F(-1, 3), F(7, 2)), (4, 4), (0, 0)):
        c0, c1, c2 = _poly_from_roots([r, r, s]).coeffs[:3]
        assert real(c0, c1, c2) == r
        assert -c2 - 2 * real(c0, c1, c2) == s
    calls = []

    def counted(*coeffs):
        calls.append(coeffs)
        return real(*coeffs)

    monkeypatch.setattr(numcore, "cubic_double_root", counted)
    assert _poly_from_roots([1, 1, -2]).rational_roots() == [-2, 1]
    assert _poly_from_roots([F(3, 2)] * 3).rational_roots() == [F(3, 2)]
    assert _poly_from_roots([0, 3, 3]).rational_roots() == [0, 3]
    assert numcore._monic_cubic_integer_roots(0, 0, 0) == [0]
    assert numcore._monic_cubic_integer_roots(0, 9, -6) == [0, 3]
    assert len(calls) == 5
    # a closed-form root that fails its exact check is an error, not a
    # missing root
    for wrong in (F(7), F(1, 2)):
        monkeypatch.setattr(numcore, "cubic_double_root", lambda *c: wrong)
        with pytest.raises(ArithmeticError):
            _poly_from_roots([1, 1, -2]).rational_roots()


def _roots_by_the_rational_root_theorem(coeffs):
    """Rational roots of the polynomial with these coefficients, low degree
    first, by trying every p/q with p dividing the constant and q the
    leading coefficient of its integer model; the root 0 is split off
    first."""
    roots = set()
    while coeffs[0] == 0:
        roots.add(F(0))
        coeffs = coeffs[1:]
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    a0, an = abs(ints[0]), abs(ints[-1])
    for p in (d for d in range(1, a0 + 1) if a0 % d == 0):
        for q in (d for d in range(1, an + 1) if an % d == 0):
            for x in (F(p, q), F(-p, q)):
                if sum(c * x ** i for i, c in enumerate(ints)) == 0:
                    roots.add(x)
    return sorted(roots)


_small_rational = st.one_of(st.just(F(0)), st.integers(-12, 12).map(F),
                            st.fractions(min_value=-12, max_value=12,
                                         max_denominator=6))


@given(st.tuples(_small_rational, _small_rational, _small_rational))
@settings(max_examples=150, deadline=None)
def test_rational_roots_match_the_rational_root_theorem(coeffs):
    c0, c1, c2 = coeffs
    assert PolyQ.of(c0, c1, c2, 1).rational_roots() == \
        _roots_by_the_rational_root_theorem([c0, c1, c2, F(1)])


@given(st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=9),
                min_size=1, max_size=3),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_rational_roots_of_products_of_linear_factors(roots, quadratic):
    # one, two or three rational factors; the first root is repeated up to
    # degree three (a double or triple root), or a lone factor takes
    # x^2 + 3, which has no rational root
    if quadratic and len(roots) == 1:
        p = _poly_from_roots(roots) * PolyQ.of(3, 0, 1)
    else:
        p = _poly_from_roots(roots + roots[:1] * (3 - len(roots)))
    assert p.rational_roots() == sorted(set(roots))


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=4, max_size=4),
       st.sampled_from(primes_up_to(200)))
@settings(max_examples=200, deadline=None)
def test_fp_roots_match_the_generic_oracle(c, p):
    # any leading coefficient, a multiple of p among them, so the cubic
    # may reduce to a lower degree or to zero
    assert numcore._fp_roots(c, p) == oracles.fp_roots(c, p)
    c[3] *= p
    assert numcore._fp_roots(c, p) == oracles.fp_roots(c, p)


def test_fp_roots_take_cubics_only():
    with pytest.raises(ValueError):
        numcore._fp_roots([1, 0, 1], 5)


@given(st.integers(3, 20000), st.integers(0, 3000))
@settings(max_examples=100, deadline=None)
def test_least_prime_factors_match_the_marking_oracle(lo, width):
    assert numcore.least_prime_factors(lo, lo + width).tolist() == \
        oracles.least_prime_factors(lo, lo + width)


def test_least_prime_factors_from_zero():
    # 0 and 1 read 0, like the primes; every composite its least prime
    lpf = numcore.least_prime_factors(0, 5000).tolist()
    assert lpf[:10] == [0, 0, 0, 0, 2, 0, 2, 0, 2, 3]
    assert lpf[2:] == oracles.least_prime_factors(2, 5000)
    for n in range(2, 5001):
        assert (lpf[n] or n) == factor(n).primes[0]


@given(st.integers(-3000, 3000), st.integers(-3000, 3000),
       st.integers(-300, 300))
@settings(max_examples=200, deadline=None)
def test_integer_roots_match_the_divisor_oracle(c0, c1, c2):
    assert numcore._monic_cubic_integer_roots(c0, c1, c2) == \
        oracles.integer_roots_by_divisors(c0, c1, c2)


@given(st.lists(st.integers(-60, 60), min_size=1, max_size=3),
       st.integers(-20, 20), st.integers(-20, 20))
@settings(max_examples=150, deadline=None)
def test_integer_roots_of_split_cubics_match_the_divisor_oracle(roots, b, c):
    # one to three integer roots with the first repeated up to degree
    # three, or a lone root times x^2 + b x + c
    if len(roots) == 1 and b * b < 4 * c:
        poly = _poly_from_roots(roots) * PolyQ.of(c, b, 1)
    else:
        poly = _poly_from_roots(roots + roots[:1] * (3 - len(roots)))
    c0, c1, c2 = (int(v) for v in poly.coeffs[:3])
    got = numcore._monic_cubic_integer_roots(c0, c1, c2)
    assert got == oracles.integer_roots_by_divisors(c0, c1, c2)
    assert set(roots) <= set(got)


def test_no_root_mod_the_second_good_prime_is_a_certificate(monkeypatch):
    # x^3 + x + 1 has discriminant -31: the root 1 mod 3 is never lifted,
    # since the cubic has no root mod 5
    real, calls = numcore._fp_roots, []

    def recorded(c, p):
        calls.append(p)
        return real(c, p)

    monkeypatch.setattr(numcore, "_fp_roots", recorded)
    assert real([1, 1, 0, 1], 3) == [1] and real([1, 1, 0, 1], 5) == []
    assert numcore._monic_cubic_integer_roots(1, 1, 0) == []
    assert calls == [3, 5]
    # every cubic x^3 + c1 x + c0 in a box that has a root modulo its
    # least good odd prime p: those with no root mod the next good prime
    # q stop there, the rest are lifted, and all agree with the oracle
    inert = lifted = 0
    for c0 in range(-60, 61):
        for c1 in range(-30, 31):
            disc = cubic_discriminant(c0, c1, 0)
            if disc == 0:
                continue
            p = numcore._next_good_prime(disc, 1)
            if not real([c0, c1, 0, 1], p):
                continue
            q = numcore._next_good_prime(disc, p)
            calls.clear()
            assert numcore._monic_cubic_integer_roots(c0, c1, 0) == \
                oracles.integer_roots_by_divisors(c0, c1, 0)
            assert calls == [p, q]
            if real([c0, c1, 0, 1], q):
                lifted += 1
            else:
                inert += 1
                assert not oracles.integer_roots_by_divisors(c0, c1, 0)
    assert inert > 100 and lifted > 100


def test_poly_evaluation_horner():
    p = PolyQ.of(1, -3, 0, 2)  # 2x^3 - 3x + 1
    assert p(Fraction(1, 2)) == Fraction(-1, 4)
    assert p(0) == 1
    assert p.derivative() == PolyQ.of(-3, 0, 6)


# ---------------------------------------------------------------------------
# recognition

def test_recognize_integer_snaps_and_refuses():
    assert recognize_integer(2.99999) == 3
    assert recognize_integer(-7.00002) == -7
    assert recognize_integer(0.0) == 0
    with pytest.raises(RecognitionError):
        recognize_integer(2.9)
    with pytest.raises(RecognitionError):
        recognize_integer(0.5, tol=1e-4)
    with pytest.raises(RecognitionError):
        recognize_integer(2.0 ** 60)


def test_recognize_integer_error_bound_guard():
    assert recognize_integer(4.0001, err=1e-3) == 4
    with pytest.raises(RecognitionError):
        recognize_integer(4.0, err=0.3)


# ---------------------------------------------------------------------------
# exactly summed buckets: the binned kernel against the fsum oracle

def _bits(pairs):
    """The pairs' exact bits, signed zeros apart."""
    return [(hi.hex(), lo.hex()) for hi, lo in pairs]


# 53-bit mantissas of either sign at magnitudes from 2^-200 to 2^10, or zero
_ENTRY = st.one_of(
    st.just(0.0),
    st.builds(lambda m, s, e: math.ldexp(s * m, e),
              st.integers(2 ** 52, 2 ** 53 - 1), st.sampled_from((1, -1)),
              st.integers(-252, -43)))


@st.composite
def _bucket_inputs(draw):
    ell = draw(st.sampled_from((3, 5, 7)))
    n = draw(st.integers(0, 40))
    k = np.array(draw(st.lists(st.integers(0, ell - 1), min_size=n,
                               max_size=n)), dtype=np.int64)
    parts = [np.array(draw(st.lists(_ENTRY, min_size=n, max_size=n)),
                      dtype=np.float64)
             for _ in range(draw(st.integers(1, 4)))]
    if len(parts) < 4 and draw(st.booleans()):
        parts.append(-parts[0])     # cancels part 0 exactly, bucket by bucket
    return k, ell, parts


@given(_bucket_inputs())
@settings(max_examples=150, deadline=None)
def test_bucket_sums_match_the_fsum_oracle(case):
    k, ell, parts = case
    assert _bits(numcore._bucket_sums(k, ell, *parts)) == \
        _bits(oracles.bucket_sums(k, ell, *parts))


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_bucket_sums_of_one_full_chunk(ell):
    # a chunk of the series kernel: double-double terms (a_n / n) r^n
    rng = np.random.default_rng(ell)
    size = lvalue._DD_CHUNK
    n = np.arange(1, size + 1)
    a = rng.integers(-200, 200, size).astype(np.float64)
    r = np.exp(-n / 3000.0)
    th, tl = numcore._dd_mul(a / n, np.full(size, 1e-17), r, r * 1e-17)
    k = rng.integers(0, ell, size)
    assert _bits(numcore._bucket_sums(k, ell, th, tl)) == \
        _bits(oracles.bucket_sums(k, ell, th, tl))


def test_bucket_sums_take_subnormals_and_wide_ranges():
    rng = np.random.default_rng(7)
    tiny = rng.integers(-2 ** 52, 2 ** 52, 4000) * 2.0 ** -1074
    wide = np.ldexp(rng.random(4000) - 0.5, rng.integers(-1074, 990, 4000))
    k = rng.integers(0, 5, 4000)
    for parts in ((tiny,), (wide, tiny), (wide, -wide, tiny)):
        assert _bits(numcore._bucket_sums(k, 5, *parts)) == \
            _bits(oracles.bucket_sums(k, 5, *parts))


def test_bucket_sums_split_a_long_input():
    # 2^33 - 2^7 units of 2^-26 each, and odd multiples of that unit first
    # and last, in one window and one bucket: past 2^20 entries a single
    # float64 bin would round, so the kernel takes them in two passes
    x = np.full(2 ** 20 + 2 ** 12, 2.0 ** 7 - 2.0 ** -19)
    x[0] = x[-2 ** 12::2] = 0.5 + 2.0 ** -26
    k = np.zeros(x.size, dtype=np.int64)
    want = oracles.bucket_sums(k, 3, x)
    assert _bits(numcore._bucket_sums(k, 3, x)) == _bits(want)
    # each part is binned on its own: added, two parts' bins of 2^20
    # entries, one odd in units and one even, would pass 2^53 units and round
    y = np.full(x.size, 2.0 ** 7 - 2.0 ** -19)
    assert _bits(numcore._bucket_sums(k, 3, x, y)) == \
        _bits(oracles.bucket_sums(k, 3, x, y))


def test_bucket_sums_in_short_passes(monkeypatch):
    monkeypatch.setattr(numcore, "_BIN_ENTRIES", 12)
    rng = np.random.default_rng(3)
    for parts in range(1, 5):
        for n in (0, 1, 5, 23, 100):
            xs = [np.ldexp(rng.random(n) - 0.5, rng.integers(-200, 10, n))
                  for _ in range(parts)]
            k = rng.integers(0, 7, n)
            assert _bits(numcore._bucket_sums(k, 7, *xs)) == \
                _bits(oracles.bucket_sums(k, 7, *xs))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 2.0 ** 1000,
                                 -1.7e308])
def test_bucket_sums_refuse_entries_they_cannot_split(bad):
    # a non-finite entry, or one whose split _SPLIT x overflows
    x = np.array([1.0, bad, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        numcore._bucket_sums(np.array([0, 1, 2]), 3, x)
    with pytest.raises(ValueError, match="non-finite"):
        numcore._bucket_sums(np.array([0, 1, 2]), 3, np.ones(3), x)


@pytest.mark.parametrize("k", [[0, 3, 1], [0, -1, 1]])
def test_bucket_sums_refuse_buckets_out_of_range(k):
    with pytest.raises(ValueError):
        numcore._bucket_sums(np.array(k), 3, np.ones(3))
