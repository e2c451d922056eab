"""Curve arithmetic checks.  The Frobenius traces are recounted by a direct
point enumeration that sweeps the plane in the opposite order from the
production path, the batched baby-step giant-step count is held to the
Legendre count on every prime from 230 to 2 * 10^4 and its annihilator sets
to a scalar affine group law, the numpy a_n sieve is held to the Python loop
of tests/oracles.py, the real period is recomputed by direct
numerical integration, and the group law is exercised on the two
conductor-37 curves."""

import pickle
import random
from fractions import Fraction
from math import isqrt

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elltwists.elliptic as elliptic
from elltwists.elliptic import (_BSGS_MIN_P, Curve, PointCountError,
                                curve_add, curve_mul, curve_neg,
                                is_nontorsion, on_curve, point_order,
                                trace_point)
from elltwists.numcore import factor, primes_up_to
from oracles import an_table_by_loop

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
        # growing the limit one step at a time counts each odd good prime
        # once, by the Legendre sum or in a batch of the step that reaches
        # it, and none past the limit; the grown table equals one built in
        # a single call.  A table reserved up front counts every prime from
        # _BSGS_MIN_P in one batch, and later limits below it count nothing
        fresh = Curve((0, 1, 1, -3, 1), conductor=37).an_table(1600).tolist()
        curve = Curve((0, 1, 1, -3, 1), conductor=37)
        summed, batches = [], []
        legendre, batch = Curve._ap_legendre, elliptic._frobenius_traces
        monkeypatch.setattr(Curve, "_ap_legendre", lambda self, p:
                            summed.append(p) or legendre(self, p))
        monkeypatch.setattr(elliptic, "_frobenius_traces", lambda a, b, ps:
                            batches.append(ps.tolist()) or batch(a, b, ps))
        for limit in range(1000, 1601):
            an = curve.an_table(limit)
            assert len(an) == limit + 1
        counted = summed + [p for ps in batches for p in ps]
        assert sorted(counted) == [p for p in primes_up_to(1600)
                                   if p not in (2, 37)]
        assert [len(ps) for ps in batches] == [1] * len(batches)
        assert an.tolist() == fresh
        assert curve.an_table(1600).tolist() == fresh
        summed.clear()
        batches.clear()
        reserved = Curve((0, 1, 1, -3, 1), conductor=37)
        assert reserved.an_table(1600).tolist() == fresh
        for limit in range(1000, 1601):
            assert reserved.an_table(limit).tolist() == fresh[:limit + 1]
        assert batches == [[p for p in primes_up_to(1600) if p >= 1000]]
        assert sorted(summed) == [p for p in primes_up_to(999)
                                  if p not in (2, 37)]

    @pytest.mark.parametrize("curve", [E37A, E37B, E27A, E32A],
                             ids=["37a", "37b", "27a", "32a"])
    def test_table_matches_the_loop_oracle(self, curve):
        # the numpy sieve against the Python loop, additive reduction at 3
        # (27a) and at 2 (32a) among them, built in one call and grown
        # through the tables the commands reserve
        want = an_table_by_loop(curve, 31134)
        fresh = Curve(curve.a_invariants, conductor=curve.conductor)
        assert fresh.an_table(31134).tolist() == want
        grown = Curve(curve.a_invariants, conductor=curve.conductor)
        for limit in (137, 1524, 10530, 31134):
            assert grown.an_table(limit).tolist() == want[:limit + 1]

    def test_table_is_read_only_and_survives_a_failed_extension(
            self, monkeypatch):
        # a view of the table refuses writes, also on a curve unpickled as
        # in a pool worker; a count that fails at 97, after 91..96 are
        # sieved, leaves the table as it was, and the next extension is
        # the one a fresh curve builds
        curve = Curve((0, 1, 1, -3, 1), conductor=37)
        before = curve.an_table(90).tolist()
        for c in (curve, pickle.loads(pickle.dumps(curve))):
            for limit in (50, 120):
                with pytest.raises(ValueError, match="read-only"):
                    c.an_table(limit)[1] = 0
        curve = Curve((0, 1, 1, -3, 1), conductor=37)
        curve.an_table(90)
        with monkeypatch.context() as patch:
            patch.setattr(Curve, "_ap_legendre", lambda self, p: 21)
            with pytest.raises(PointCountError, match="at 97"):
                curve.an_table(200)
        assert curve._an.size == 91
        assert curve._an.tolist() == before
        fresh = Curve((0, 1, 1, -3, 1), conductor=37).an_table(200)
        assert curve.an_table(200).tolist() == fresh.tolist()

    def test_nonintegral_model_rejected(self):
        curve = Curve((0, 0, 0, Fraction(1, 4), 0))
        with pytest.raises(ValueError):
            curve.ap(5)

    def test_table_answers_every_prime_it_reaches(self, monkeypatch):
        # the table is the one store of a_p: once it reaches a prime, ap
        # reads it and counts nothing, by either count
        curve = Curve((0, 1, 1, -3, 1), conductor=37)
        an = curve.an_table(1200)

        def refuse(self, p):
            raise AssertionError(f"counted {p} again")

        monkeypatch.setattr(Curve, "_ap_legendre", refuse)
        monkeypatch.setattr(elliptic, "_frobenius_traces",
                            lambda a, b, ps: refuse(None, ps))
        for p in primes_up_to(1200):
            assert curve.ap(p) == an[p]

    @pytest.mark.parametrize("p", [101, 10007], ids=["legendre", "batch"])
    def test_prime_past_the_table_is_counted_and_not_kept(self, p,
                                                          monkeypatch):
        # past the table's end ap counts p each time it is asked and leaves
        # the table as it was
        curve = Curve((0, 1, 1, -3, 1), conductor=37)
        before = curve.an_table(100).tolist()
        want = E37B._ap_legendre(p)
        counted = []
        legendre, batch = Curve._ap_legendre, elliptic._frobenius_traces
        monkeypatch.setattr(Curve, "_ap_legendre", lambda self, q:
                            counted.append(q) or legendre(self, q))
        monkeypatch.setattr(elliptic, "_frobenius_traces", lambda a, b, qs:
                            counted.extend(qs.tolist()) or batch(a, b, qs))
        assert curve.ap(p) == want and curve.ap(p) == want
        assert counted == [p, p]
        assert curve._an.tolist() == before

    def test_point_counts_need_the_conductor(self):
        # the conductor tells the bad primes; without it nothing is counted
        curve = Curve((0, 1, 1, -3, 1))
        for ask in (lambda: curve.ap(5), lambda: curve.ap(37),
                    lambda: curve.ap(10007), lambda: curve.an_table(10)):
            with pytest.raises(ValueError, match="conductor"):
                ask()
        assert curve._an.tolist() == [0, 1]


def _fp_add(P, Q, a: int, p: int):
    """The affine group law on y^2 = x^3 + a x + b over F_p, None the
    origin: the scalar oracle for the batched search."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def _fp_mul(n: int, P, a: int, p: int):
    R = None
    while n:
        if n & 1:
            R = _fp_add(R, P, a, p)
        P = _fp_add(P, P, a, p)
        n >>= 1
    return R


def _order(P, a: int, p: int, n: int) -> int:
    """The order of P in a group of order n."""
    d = n
    for q in factor(n).primes:
        while d % q == 0 and _fp_mul(d // q, P, a, p) is None:
            d //= q
    return d


def _short(curve: Curve):
    return -27 * int(curve.c4), -54 * int(curve.c6)


class TestBabyStepGiantStep:
    P = 10007  # a prime above the cutoff

    @pytest.mark.parametrize("curve", [E37A, E37B, E27A, E32A],
                             ids=["37a", "37b", "27a", "32a"])
    def test_matches_legendre_count(self, curve):
        # every good prime from 230 to 2 * 10^4 against the O(p) count, in
        # one batch and again in random batches of 1 to 40 primes
        primes = np.array([p for p in primes_up_to(20000)
                           if p > 229 and 6 * int(curve.disc) % p])
        want = [curve._ap_legendre(p) for p in primes.tolist()]
        assert elliptic._frobenius_traces(*_short(curve),
                                          primes).tolist() == want
        rng, got = random.Random(len(primes)), []
        while len(got) < len(primes):
            got += elliptic._frobenius_traces(
                *_short(curve),
                primes[len(got):len(got) + rng.randint(1, 40)]).tolist()
        assert got == want

    def test_batch_takes_and_returns_int64_arrays(self):
        # the table's primes reach the count and its a_p come back as int64
        # arrays, bad and small primes answered in place among them
        primes = np.array([2, 3, 37, 997, 1009, self.P, 20011])
        want = [E37B._ap_one(p) for p in primes.tolist()]
        traces = E37B._traces(primes)
        batch = elliptic._frobenius_traces(*_short(E37B), primes[3:])
        for got in (traces, batch, E37B._traces(primes[:0])):
            assert isinstance(got, np.ndarray) and got.dtype == np.int64
        assert traces.tolist() == want and batch.tolist() == want[3:]

    def test_matches_legendre_count_past_a_million(self):
        # m = 45 baby steps, where matching them weighs most: eight primes
        # just above 10^6 in one batch
        primes = [p for p in primes_up_to(1000200) if p > 10 ** 6][:8]
        assert len(primes) == 8
        assert elliptic._frobenius_traces(
            *_short(E37B), np.array(primes)).tolist() == \
            [E37B._ap_legendre(p) for p in primes]

    def test_unsettled_primes_settle_the_same_in_any_blocks(self,
                                                            monkeypatch):
        # one first-round block: some primes settle on their first point,
        # the rest go on to later rounds, and all of them match the
        # Legendre count.  Blocks of 8 lanes (4 primes a later block) carry
        # the candidates of many blocks from round to round, to the same
        # a_p and the same next x
        primes = [p for p in primes_up_to(4000) if p > 229
                  and 6 * int(E37B.disc) % p][:elliptic._BSGS_LANES]
        a, b = _short(E37B)
        p = np.array(primes)
        drawn = []
        points = elliptic._points

        def recorded(a, b, p, x):
            drawn.append(p.tolist())
            return points(a, b, p, x)

        monkeypatch.setattr(elliptic, "_points", recorded)
        ap, x = elliptic._search(a % p, b % p, p)
        assert drawn[0] == primes
        later = set().union(*drawn[1:])
        assert 0 < len(later) < len(primes)
        assert ap.tolist() == [E37B._ap_legendre(q) for q in primes]
        monkeypatch.setattr(elliptic, "_BSGS_LANES", 8)
        small_ap, small_x = elliptic._search(a % p, b % p, p)
        assert small_ap.tolist() == ap.tolist()
        assert small_x.tolist() == x.tolist()

    def test_annihilators_match_the_scalar_group_law(self):
        # each lane's N in the Hasse interval with N P = O, against the
        # multiples of its order found by the scalar group law: the points
        # of x = 1..20 at every prime from 230 to 1500, plus multiples of
        # them of order at most m and of order exactly 2m, where a baby step
        # lands on O or on a point with y = 0.  Primes that share m share
        # one call.
        a, b = _short(E37B)
        groups = {}
        for p in primes_up_to(1500):
            if p < 230 or 6 * int(E37B.disc) % p == 0:
                continue
            s = isqrt(4 * p)
            m = isqrt(s) + 1        # the search's isqrt(width // 2) + 1
            ap = E37B._ap_legendre(p)
            for x in range(1, 21):
                v = (x ** 3 + a * x + b) % p
                if not v:
                    continue
                chi = 1 if pow(v, (p - 1) // 2, p) == 1 else -1
                A, P = a * v * v % p, (v * x % p, v * v % p)
                d = _order(P, A, p, p + 1 - chi * ap)
                lanes = groups.setdefault(m, [])
                lanes.append((p, A, P, d))
                low = max((t for t in range(2, m + 1) if d % t == 0), default=0)
                for t in (low, 2 * m):
                    if t and d % t == 0:
                        lanes.append((p, A, _fp_mul(d // t, P, A, p), t))
        small = double = 0
        for m, lanes in groups.items():
            small += sum(d <= m for *_, d in lanes)
            double += sum(d == 2 * m for *_, d in lanes)
            p = np.array([q for q, *_ in lanes])
            s = np.array([isqrt(4 * q) for q in p.tolist()])
            i, N = elliptic._annihilators(
                p, np.array([A for _, A, _, _ in lanes]),
                (np.array([P[0] for *_, P, _ in lanes]),
                 np.array([P[1] for *_, P, _ in lanes]), np.ones_like(p)),
                p + 1 - s, 2 * s + 1)
            for k, (q, _, _, d) in enumerate(lanes):
                lo, hi = q + 1 - s[k], q + 1 + s[k]
                # each N once: the search's first round counts them
                assert sorted(N[i == k].tolist()) == \
                    list(range(-(-lo // d) * d, hi + 1, d)), (q, d)
        assert small and double

    def test_single_prime_matches_legendre_count(self):
        curve = Curve((0, 1, 1, -3, 1), conductor=37)
        assert curve.ap(self.P) == E37B._ap_legendre(self.P)

    def test_twist_settles_some_primes(self, monkeypatch):
        # x = 1 gives a point of E or of its twist: at some primes a first
        # point on the twist settles a_p alone, and some need more rounds.
        # The primes fit one block, so the first call is the first round
        # and the last one draws the check points.
        rounds = []
        points = elliptic._points

        def recorded(a, b, p, x):
            out = points(a, b, p, x)
            rounds.append(dict(zip(p.tolist(), out[3].tolist())))
            return out

        monkeypatch.setattr(elliptic, "_points", recorded)
        primes = [p for p in primes_up_to(3500) if p > 229]
        assert len(primes) <= elliptic._BSGS_LANES
        elliptic._frobenius_traces(*_short(E37B), np.array(primes))
        first, later = rounds[0], set().union(*rounds[1:-1])
        assert later and len(rounds) > 2
        assert any(chi == -1 and p not in later for p, chi in first.items())

    def test_count_follows_prime_size(self, monkeypatch):
        used = []
        monkeypatch.setattr(Curve, "_ap_legendre", lambda self, p:
                            used.append(("_ap_legendre", p)) or 0)
        monkeypatch.setattr(elliptic, "_frobenius_traces", lambda a, b, ps:
                            used.append(("_frobenius_traces", ps.tolist()))
                            or np.zeros_like(ps))
        below = max(primes_up_to(_BSGS_MIN_P - 1))
        curve = Curve((0, 1, 1, -3, 1), conductor=37)
        curve.ap(below)
        curve.ap(self.P)
        assert used == [("_ap_legendre", below),
                        ("_frobenius_traces", [self.P])]

    def test_wrong_order_is_refused(self, monkeypatch):
        # the settled a_p shifted by one: the check point refuses it
        search = elliptic._search
        monkeypatch.setattr(elliptic, "_search",
                            lambda *args: (lambda ap, x: (ap + 1, x))(*search(*args)))
        curve = Curve((0, 1, 1, -3, 1), conductor=37)
        before = curve._an.tolist()
        with pytest.raises(PointCountError, match=f"at {self.P}"):
            curve.ap(self.P)
        assert curve._an.tolist() == before

    def test_check_point_off_the_curve_is_refused(self, monkeypatch):
        # the search runs on true points; the point drawn after it is moved
        # off its curve, and the true a_p must not pass it
        searched = []
        search, points = elliptic._search, elliptic._points
        monkeypatch.setattr(elliptic, "_search",
                            lambda *args: searched.append(1) or search(*args))

        def shifted(a, b, p, x):
            (X, Y, Z), *rest = points(a, b, p, x)
            return ((X, Y + 1, Z) if searched else (X, Y, Z)), *rest

        monkeypatch.setattr(elliptic, "_points", shifted)
        curve = Curve((0, 1, 1, -3, 1), conductor=37)
        before = curve._an.tolist()
        with pytest.raises(PointCountError, match="check point"):
            curve.ap(self.P)
        assert searched and curve._an.tolist() == before

    def test_failed_batch_caches_nothing(self, monkeypatch):
        # one prime's check point fails: no a_p of the batch is kept, and
        # the table stays as it was
        points = elliptic._points
        searched = []
        search = elliptic._search
        monkeypatch.setattr(elliptic, "_search",
                            lambda *args: searched.append(1) or search(*args))

        def shifted(a, b, p, x):
            (X, Y, Z), *rest = points(a, b, p, x)
            return ((X, np.where(p == self.P, Y + 1, Y), Z) if searched
                    else (X, Y, Z)), *rest

        monkeypatch.setattr(elliptic, "_points", shifted)
        curve = Curve((0, 1, 1, -3, 1), conductor=37)
        before = curve.an_table(500).tolist()
        with pytest.raises(PointCountError, match=f"at {self.P}"):
            curve.an_table(self.P + 10)
        assert curve._an.tolist() == before

    def test_legendre_count_outside_hasse_is_refused(self, monkeypatch):
        # 21^2 > 4 * 101: an explicit raise, not an assert python -O strips
        monkeypatch.setattr(Curve, "_ap_legendre", lambda self, p: 21)
        curve = Curve((0, 1, 1, -3, 1), conductor=37)
        with pytest.raises(PointCountError):
            curve.ap(101)

    @pytest.mark.parametrize("found", [
        lambda lo, width: (np.zeros(0, np.int64), np.zeros(0, np.int64)),
        lambda lo, width: np.nonzero(np.arange(int(width.max()))
                                     < width[:, None])],
        ids=["no-order", "never-single"])
    def test_search_never_guesses(self, found, monkeypatch):
        def every(p, A, P, lo, width):
            i, k = found(lo, width)
            return i, lo[i] + k

        monkeypatch.setattr(elliptic, "_annihilators", every)
        curve = Curve((0, 1, 1, -3, 1), conductor=37)
        before = curve._an.tolist()
        with pytest.raises(PointCountError):
            curve.ap(self.P)
        assert curve._an.tolist() == before

    def test_prime_past_int64_products_is_refused(self):
        curve = Curve((0, 1, 1, -3, 1), conductor=37)
        before = curve._an.tolist()
        with pytest.raises(ValueError, match="p < 2147483648"):
            curve.ap(2 ** 31 + 11)
        assert curve._an.tolist() == before


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
