"""Central-value machinery.

The layout mirrors how the numbers are trusted: the series tail bound is
checked against a doubled truncation, the bucketed conjugates against a
per-character oracle series, the double-double buckets and Gauss sums
against the mpmath loops of the oracles module, the exact coset sums
against frozen lattice data and their seed identity, the faults of a wrong
sign, chi(N), Gauss sum, exponent table or eigenline against the
modular-symbol check, and the decision policy against synthetic records.
The congruence sweep gets a deliberate fault injection so a silent pass
cannot hide a broken multiplier.
"""

import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elltwists.dirichlet as dirichlet
import elltwists.lvalue as lvalue
from elltwists.dirichlet import DirichletChar, galois_orbits, gauss_sums
from elltwists.elliptic import Curve
from elltwists.modsym import PlusSymbols
from elltwists.lvalue import (CalibrationError, ConsistencyError, TwistRows,
                              calibrate, central_value, central_values,
                              hecke_factor, served_orbits, vanishing_decision)
from elltwists.numcore import RecognitionError, primes_up_to, recognize_integer
from oracles import (buckets, oracle_value, periods_gauss_sums,
                     series_residual)

E37A = Curve((0, 0, 1, -1, 0), label="37a", conductor=37, root_number=-1)
E37B = Curve((0, 1, 1, -3, 1), label="37b", conductor=37, root_number=1)

CHI7 = galois_orbits(7, 3)[0]
CHI9 = galois_orbits(9, 3)[0]
CHI13 = galois_orbits(13, 3)[0]
TABLE13 = CHI13.exponent_table()


def skewed_twist_rows(curve, chi, period):
    """The twist rows with the first conjugate turned by 1e-3 radians, so
    that the rows of the orbit no longer agree with one another."""
    out = REAL_TWIST_ROWS(curve, chi, period)
    out.rows[1] *= 1 + 1e-3j
    return out


def dead_value_rows(curve, chi, period):
    """The twist rows with the representative's central value set to 0: its
    series sums still match r M_t, but |L| no longer clears its bound."""
    out = REAL_TWIST_ROWS(curve, chi, period)
    return TwistRows(out.rows, 0j, out.l_err)


REAL_TWIST_ROWS = lvalue._twist_rows


@pytest.fixture(scope="module")
def cal_b():
    return calibrate(E37B, 3)


@pytest.fixture(scope="module")
def cal_a():
    return calibrate(E37A, 3)


class TestCentralValue:
    def test_frozen_untwisted_values(self):
        # the even-sign curve has a nonzero value, the odd-sign curve a
        # forced zero; both reproduce published leading digits
        lb = central_value(E37B, err=1e-15)
        assert abs(lb - 0.725681061936153) < 1e-12
        assert abs(lb.imag) < 1e-14
        assert abs(central_value(E37A, err=1e-15)) < 1e-10

    def test_tail_bound_sound(self, monkeypatch):
        # doubling the truncation moves the value by less than the claimed
        # error, for the untwisted series and twisted ones on both curves
        cases = [(E37B, None), (E37B, CHI7), (E37A, CHI7), (E37B, CHI9)]
        v1 = [central_value(curve, chi, err=1e-13) for curve, chi in cases]
        terms_needed = lvalue._terms_needed
        monkeypatch.setattr(lvalue, "_terms_needed",
                            lambda c, eps: 2 * terms_needed(c, eps))
        for v, (curve, chi) in zip(v1, cases):
            assert abs(v - central_value(curve, chi, err=1e-13)) < 1e-13

    @pytest.mark.parametrize("curve", [E37A, E37B], ids=["37a", "37b"])
    @pytest.mark.parametrize("ell,f", [(3, 7), (3, 63), (5, 11), (5, 25),
                                       (7, 29), (7, 49)])
    def test_conjugates_match_oracle(self, curve, ell, f):
        # every conjugate of one bucketed pass agrees with the per-character
        # series, tame and wild conductors alike
        chi = galois_orbits(f, ell)[0]
        with mpmath.workdps(30):
            period = chi.exponent_table()
            taus, tau_err = gauss_sums(period, ell)
            values = central_values(curve, chi, period, taus, err=1e-12,
                                    tau_err=tau_err)
            for j in range(1, ell):
                oracle = oracle_value(curve, chi.power(j), 1e-12)
                assert abs(values[j] - oracle) < 1e-12

    def test_conductor_sharing_level_rejected(self):
        chi37 = galois_orbits(37, 3)[0]
        with pytest.raises(ValueError):
            central_value(E37B, chi37)

    def test_missing_metadata_rejected(self):
        bare = Curve((0, 1, 1, -3, 1))
        with pytest.raises(ValueError):
            central_value(bare)


def probe_orbits(ell, level=37):
    """The orbits calibrate probes at order ell for a curve of this level."""
    return [chi for chi in served_orbits(1, ell, lvalue._PROBE_BOUND)[0]
            if chi.conductor % level][:lvalue._PROBE_ORBITS]


def fresh_calibration(cal, curve=E37B, dps=50):
    """cal's scale, L0 and symbol ratio on a new calibrated curve, so that
    no cached sums answer for a fault."""
    return lvalue.CalibratedCurve(curve, cal.ell, cal.scale, cal.lalg0, cal.r,
                                  base_dps=dps)


class TestTDriftAlarm:
    """The faults that a second series pass at t = 6/5 used to catch, each
    now caught by the exact check S_t = r M_t of the orbit's coset sums."""

    def test_wrong_root_number_raises(self, cal_b):
        # the wrong sign flips eps, so the rows leave the symbols' lattice
        flipped = Curve((0, 1, 1, -3, 1), conductor=37, root_number=-1)
        cal = fresh_calibration(cal_b, flipped)
        for chi in (CHI7, CHI9, CHI13):
            with pytest.raises(ConsistencyError):
                cal.coset_sums(chi)

    def test_wrong_gauss_sum_raises(self, cal_b, monkeypatch):
        # conjugated Gauss sums turn eps by a phase on a nonzero twist; at
        # 50 digits they come from the double-double kernel
        kernel = lvalue.gauss_sums

        def conjugated(period, ell):
            taus, bound = kernel(period, ell)
            return {j: mpmath.conj(tau) for j, tau in taus.items()}, bound
        monkeypatch.setattr(lvalue, "gauss_sums", conjugated)
        with pytest.raises(ConsistencyError):
            fresh_calibration(cal_b).coset_sums(CHI9)

    def test_wrong_gauss_sum_raises_at_80_digits(self, cal_b, monkeypatch):
        # the same fault at 80 digits, where the same kernel serves
        kernel = lvalue.gauss_sums

        def conjugated(period, ell):
            taus, bound = kernel(period, ell)
            return {j: mpmath.conj(tau) for j, tau in taus.items()}, bound
        monkeypatch.setattr(lvalue, "gauss_sums", conjugated)
        with pytest.raises(ConsistencyError):
            fresh_calibration(cal_b, dps=80).coset_sums(CHI9)

    def test_wrong_chi_of_level_raises(self, cal_b, monkeypatch):
        # chi(N) one exponent off turns eps by a root of unity
        value_exponent = DirichletChar.value_exponent
        monkeypatch.setattr(DirichletChar, "value_exponent", lambda chi, a: (
            (value_exponent(chi, a) + 1) % chi.ell if a == 37
            else value_exponent(chi, a)))
        cal = fresh_calibration(cal_b)
        for chi in (CHI7, CHI9, CHI13):
            with pytest.raises(ConsistencyError):
                cal.coset_sums(chi)

    def test_shifted_exponent_table(self, cal_b, monkeypatch):
        # every exponent one too high turns L(chi^j) and tau(chi^j) by the
        # same zeta^j, so the rows and the solved sums do not move and no
        # choice of t could see it; the symbol sums M_t do move, and every
        # nonvanishing orbit alarms.  A constant vector is unmoved
        # by the shift, so the vanishing orbits keep their decision.
        orbits = [chi for chi in served_orbits(1, 3, 73)[0]
                  if chi.conductor != 37]
        truth = {chi: cal_b.coset_sums(chi) for chi in orbits}
        table = DirichletChar.exponent_table
        monkeypatch.setattr(DirichletChar, "exponent_table", lambda chi: (
            np.where(table(chi) >= 0, (table(chi) + 1) % chi.ell, -1)))
        cal = fresh_calibration(cal_b)
        alarms = 0
        for chi in orbits:
            try:
                record = cal.coset_sums(chi)
            except ConsistencyError as exc:
                assert "differ from r M_t" in str(exc)
                assert truth[chi].decision == "nonzero"
                alarms += 1
                continue
            assert record.decision == truth[chi].decision == "vanishes"
            assert record.sums == truth[chi].sums
            assert abs(abs(record.L_value) - abs(truth[chi].L_value)) <= \
                record.error_bound
        assert (len(orbits), alarms) == (11, 8)

    def test_wrong_eigenline_fails_calibration(self, monkeypatch):
        # 37a's a_2 = -2 on 37b cuts out 37a's plus line, which no rational
        # multiple of 37b's coset sums can match
        curve = Curve(E37B.a_invariants, label="37b", conductor=37,
                      root_number=1)
        monkeypatch.setattr(curve, "symbols", PlusSymbols(
            37, lambda q: -2 if q == 2 else curve.ap(q)))
        with pytest.raises(CalibrationError, match="plus modular symbols"):
            calibrate(curve, 3)

    def test_one_gauss_sum_pass_per_orbit(self, monkeypatch):
        # all conjugates come from one kernel call: no chi^j is built and
        # chi is evaluated pointwise only for chi(N), in the one series pass
        chi = galois_orbits(31, 5)[0]
        calls = {"gauss_sums": 0, "power": 0, "value_exponent": 0}

        def counted(name, owner):
            real = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(lvalue, "gauss_sums",
                            counted("gauss_sums", lvalue))
        for name in ("power", "value_exponent"):
            monkeypatch.setattr(DirichletChar, name,
                                counted(name, DirichletChar))
        with mpmath.workdps(50):
            lvalue._twist_rows(E37B, chi, chi.exponent_table())
        assert calls["gauss_sums"] == 1
        assert calls["power"] == 0
        assert calls["value_exponent"] == 1


# orbits prime to the level 37 of both curves, conductor <= 600
DD_ORBITS = {ell: [chi for chi in served_orbits(1, ell, 600)[0]
                   if chi.conductor % 37] for ell in (3, 5, 7)}


def dd_bucket_error(curve, chi, t, err=1e-9):
    """Worst |B_k^dd - B_k^mpmath| / sum_{ind(n) = k} |(a_n / n) r^n| over the
    buckets of the two radii r = e^(-c), c = 2 pi t^(+-1) / (f sqrt(N)), each
    run to the M terms that bring its tail under err / 2, at 50 digits."""
    worst = 0.0
    with mpmath.workdps(50):
        t = mpmath.mpf(t.numerator) / t.denominator
        base = 2 * mpmath.pi / (chi.conductor * mpmath.sqrt(curve.conductor))
        radii = [(mpmath.exp(-c), lvalue._terms_needed(c, err / 2))
                 for c in (base * t, base / t)]
        top = max(M for _, M in radii)
        an, period = curve.an_table(top), chi.exponent_table()
        exps = period[np.arange(top + 1) % chi.conductor]
        for r, M in radii:
            dd, _ = lvalue._dd_buckets(curve, period, chi.ell, r, M)
            mp = buckets(an.tolist(), period, chi.ell, r, M)
            n = np.arange(M + 1)
            size = np.abs(an[:M + 1]) / np.maximum(n, 1) * \
                float(r) ** n.astype(float)
            for k in range(chi.ell):
                scale = size[exps[:M + 1] == k].sum()
                if scale:
                    worst = max(worst, float(abs(dd[k] - mp[k])) / scale)
    return worst


class TestDoubleDoubleRung:
    @given(data=st.data(), ell=st.sampled_from((3, 5, 7)),
           curve=st.sampled_from((E37A, E37B)),
           t=st.sampled_from((Fraction(1), Fraction(6, 5), Fraction(3, 4))))
    @settings(max_examples=8, deadline=None)
    def test_buckets_match_mpmath_loop(self, data, ell, curve, t):
        # about 31 digits of every bucket, relative to the size of its terms
        chi = data.draw(st.sampled_from(DD_ORBITS[ell]))
        assert dd_bucket_error(curve, chi, t) <= 1e-28

    def test_plain_float64_fails_the_tolerance(self, monkeypatch):
        # the same kernel with every low word dropped is float64 arithmetic;
        # the comparison above must reject it
        chi = galois_orbits(409, 3)[0]
        assert dd_bucket_error(E37B, chi, Fraction(1)) <= 1e-28
        monkeypatch.setattr(lvalue, "_dd_quotient",
                            lambda a, n: (a / n, 0 * a))
        monkeypatch.setattr(lvalue, "_dd_mul",
                            lambda ah, al, bh, bl: (ah * bh, 0 * ah))
        table = lvalue._dd_table

        def high_words(values, K):
            hi, lo = table(values, K)
            return hi, 0 * lo
        monkeypatch.setattr(lvalue, "_dd_table", high_words)
        assert dd_bucket_error(E37B, chi, Fraction(1)) > 1e-28

    def test_rung_follows_working_precision(self, monkeypatch):
        # one series pass per orbit, in double-double at 15, 50 and 80
        # digits alike, and the values agree within their tail bounds
        kernel, calls = lvalue._dd_buckets, []
        monkeypatch.setattr(lvalue, "_dd_buckets",
                            lambda *args: calls.append(args) or kernel(*args))
        rows = []
        for n, dps in enumerate((15, 50, 80), 1):
            with mpmath.workdps(dps):
                rows.append(lvalue._twist_rows(E37B, CHI13, TABLE13))
            assert len(calls) == n, dps
        for a in rows:
            for b in rows:
                assert abs(a.l_value - b.l_value) <= a.l_err + b.l_err

    @pytest.mark.parametrize("dps", (15, 50, 80))
    def test_production_paths_never_call_the_oracles(self, cal_b, dps):
        # calibrate, coset_sums and congruence_check at every working
        # precision, on orbits past the probes (73, 79 and the product
        # 7 * 73 = 511), give cal_b's answers from the double-double kernels
        # alone: the mpmath oracles live in the tests, out of their reach
        cal = calibrate(E37B, 3, dps=dps)
        chi73, chi79 = (galois_orbits(f, 3)[0] for f in (73, 79))
        record = cal.coset_sums(chi79)
        assert (record.decision, record.precision_used) == \
            (cal_b.coset_sums(chi79).decision, dps)
        assert cal.coset_sums(chi73).sums == cal_b.coset_sums(chi73).sums
        assert cal.congruence_check(CHI7, chi73) == \
            cal_b.congruence_check(CHI7, chi73)
        assert cal.congruence_check(None, chi79).holds

    def test_one_pass_holds_under_12_bytes_a_term(self):
        # beyond the reserved a_n table, a pass keeps the 8-byte indices of
        # its contributing terms and chunk-sized work: no full-length
        # exponent, a_n or float array
        curve = Curve(E37B.a_invariants, conductor=37, root_number=1)
        chi = galois_orbits(10009, 3)[0]
        with mpmath.workdps(lvalue.WORKING_DPS):
            M = lvalue.series_terms(curve, chi.conductor)
            curve.an_table(M)
            r = mpmath.exp(-lvalue._decay(curve, chi.conductor))
            tracemalloc.start()
            try:
                lvalue._dd_buckets(curve, chi.exponent_table(), chi.ell, r,
                                   M)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert 2.5e5 < M < 3.5e5
        assert peak < 12 * M

    def test_roundoff_bound_over_budget_raises(self, monkeypatch):
        # the kernel's stated roundoff bound is checked against err / 100
        central_value(E37B, CHI7, err=1e-10)
        monkeypatch.setattr(lvalue, "_DD_ROUNDOFF", 1e-12)
        with pytest.raises(ConsistencyError, match="double-double roundoff"):
            central_value(E37B, CHI7, err=1e-10)


# every orbit of conductor <= 3000, split into tame conductors and wild ones
# (ell^2 q and ell^2): the Gauss sums do not see the level
GAUSS_ORBITS = {(ell, wild): [chi for chi in served_orbits(1, ell, 3000)[0]
                              if (chi.conductor % (ell * ell) == 0) == wild]
                for ell in (3, 5, 7) for wild in (False, True)}


def dd_gauss_error(chi):
    """Worst |tau^dd(chi^j) - tau(chi^j)| / sqrt(f) against the mpmath
    periods at 50 digits, and the kernel's stated bound over sqrt(f)."""
    with mpmath.workdps(50):
        taus, bound = gauss_sums(chi.exponent_table(), chi.ell)
        oracle = periods_gauss_sums(chi)
        assert sorted(taus) == sorted(oracle)
        worst = max(abs(taus[j] - oracle[j]) for j in oracle)
        root_f = mpmath.sqrt(chi.conductor)
        return float(worst / root_f), bound / float(root_f)


class TestDoubleDoubleGaussSums:
    @given(data=st.data(), ell=st.sampled_from((3, 5, 7)),
           wild=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_match_mpmath_periods(self, data, ell, wild):
        # about 31 digits of every conjugate, within the stated bound
        chi = data.draw(st.sampled_from(GAUSS_ORBITS[ell, wild]))
        error, bound = dd_gauss_error(chi)
        assert error <= 1e-30
        assert error <= bound

    def test_wild_and_largest_conductors(self):
        # the draws above may miss the edges: the largest wild conductor of
        # each order and the largest tame one of order 3
        for chi in [GAUSS_ORBITS[ell, True][-1] for ell in (3, 5, 7)] + \
                [GAUSS_ORBITS[3, False][-1]]:
            assert dd_gauss_error(chi)[0] <= 1e-30, chi.label()

    def test_plain_float64_fails_the_tolerance(self, monkeypatch):
        # the same kernel with every low word dropped is float64 arithmetic;
        # the comparison above must reject it
        chi = galois_orbits(409, 3)[0]
        assert dd_gauss_error(chi)[0] <= 1e-30
        monkeypatch.setattr(dirichlet, "_dd_mul",
                            lambda ah, al, bh, bl: (ah * bh, 0 * ah))
        table = dirichlet._dd_table

        def high_words(values, K):
            hi, lo = table(values, K)
            return hi, 0 * lo
        monkeypatch.setattr(dirichlet, "_dd_table", high_words)
        assert dd_gauss_error(chi)[0] > 1e-30

    def test_rung_follows_working_precision(self, monkeypatch):
        # one kernel call per orbit at 15, 50 and 80 digits alike, and the
        # L values agree within their tail bounds
        kernel, calls = lvalue.gauss_sums, []
        monkeypatch.setattr(lvalue, "gauss_sums", lambda period, ell: (
            calls.append(period) or kernel(period, ell)))
        rows = []
        for n, dps in enumerate((15, 50, 80), 1):
            with mpmath.workdps(dps):
                rows.append(lvalue._twist_rows(E37B, CHI13, TABLE13))
            assert len(calls) == n and all(p is TABLE13 for p in calls), dps
        for a in rows:
            for b in rows:
                assert abs(a.l_value - b.l_value) <= a.l_err + b.l_err

    def test_gauss_sum_and_series_share_the_kernel(self, monkeypatch):
        # gauss_sum, which acceptance criterion 01 calls, and the series
        # rows both reach the one production kernel, on the period of chi
        kernel, calls = dirichlet.gauss_sums, []
        assert lvalue.gauss_sums is kernel

        def counted(period, ell):
            calls.append((period.tolist(), ell))
            return kernel(period, ell)
        for module in (dirichlet, lvalue):
            monkeypatch.setattr(module, "gauss_sums", counted)
        call = (TABLE13.tolist(), 3)
        with mpmath.workdps(50):
            assert CHI13.gauss_sum() == kernel(TABLE13, 3)[0][1]
        assert calls == [call]
        with mpmath.workdps(50):
            lvalue._twist_rows(E37B, CHI13, TABLE13)
        assert calls == [call] * 2

    def test_roundoff_bound_over_budget_raises(self, monkeypatch):
        # the Gauss-sum kernel's bound, carried into L through eps, is
        # checked against err / 100 like the series' own bound
        with mpmath.workdps(50):
            lvalue._twist_rows(E37B, CHI13, TABLE13)
            monkeypatch.setattr(dirichlet, "_DD_ROUNDOFF", 1e-6)
            with pytest.raises(ConsistencyError, match="Gauss-sum roundoff"):
                lvalue._twist_rows(E37B, CHI13, TABLE13)

    def test_gauss_bound_alone_is_checked(self, monkeypatch):
        # with the series' roundoff in budget, an inflated Gauss-sum bound
        # still raises
        kernel = lvalue.gauss_sums
        monkeypatch.setattr(lvalue, "gauss_sums",
                            lambda period, ell: (kernel(period, ell)[0], 1e-6))
        with mpmath.workdps(50), \
                pytest.raises(ConsistencyError, match="Gauss-sum roundoff"):
            lvalue._twist_rows(E37B, CHI13, TABLE13)


class TestCalibration:
    def test_frozen_scales_and_trivial_parts(self, cal_a, cal_b):
        assert cal_b.scale == Fraction(1, 9)
        assert cal_b.lalg0 == 2
        assert cal_a.scale == Fraction(2)
        assert cal_a.lalg0 == 0

    def test_probe_window_widens_until_it_holds_the_probes(self,
                                                            monkeypatch):
        # three orbits below 13 cannot fill the ten probes, so the window
        # doubles until it holds them and freezes the same scale, r and L0
        probes = set(probe_orbits(3))
        monkeypatch.setattr(lvalue, "_PROBE_BOUND", 13)
        cal = calibrate(E37B, 3)
        assert set(cal._records) == probes
        assert (cal.scale, cal.r, cal.lalg0) == (Fraction(1, 9), 1, 2)

    @pytest.mark.parametrize("ell,tenth", [(11, 463), (13, 599)])
    def test_large_orders_find_ten_probes(self, ell, tenth):
        # 400 holds only 8 orbits of order 11 and 6 of order 13 prime to 37;
        # the doubled window finds ten and the same lattice as ell = 3
        cal = calibrate(E37B, ell)
        assert len(cal._records) == 10
        assert max(chi.conductor for chi in cal._records) == tenth
        assert (cal.scale, cal.r, cal.lalg0) == (Fraction(1, 9), 1, 2)

    def test_root_number_is_part_of_the_calibration(self, cal_b):
        # the same model with the wrong sign admits no period scale, after
        # the true curve's calibration as before it: each calibration is
        # built from its own curve's root number
        flipped = Curve((0, 1, 1, -3, 1), conductor=37, root_number=-1)
        assert flipped != E37B
        with pytest.raises(CalibrationError):
            calibrate(flipped, 3)

    def test_untwisted_value_is_checked(self, monkeypatch):
        # L0 = r phi((1:0)) holds by construction, so the untwisted series
        # is its independent check: one percent off fails calibration
        real = lvalue.central_value
        monkeypatch.setattr(lvalue, "central_value",
                            lambda *args, **kw: 1.01 * real(*args, **kw))
        with pytest.raises(CalibrationError, match="untwisted part"):
            calibrate(E37B, 3)

    def test_vanishing_probe_rows_fail_calibration(self, monkeypatch):
        # rows shrunk a millionfold round to r = 0 at the largest scale;
        # on 37a (L0 = 0) that r would pass every probe and make every
        # orbit vanish, so the symbols' nonzero transform refuses it
        def tiny(curve, chi, period):
            out = REAL_TWIST_ROWS(curve, chi, period)
            return TwistRows({j: 1e-6 * row for j, row in out.rows.items()},
                             out.l_value, out.l_err)
        monkeypatch.setattr(lvalue, "_twist_rows", tiny)
        with pytest.raises(CalibrationError, match="probe rows vanish"):
            calibrate(E37A, 3)

    def test_constant_probe_symbols_fail_calibration(self, monkeypatch):
        # constant M_t have a zero transform, so no probe row gives c r
        monkeypatch.setattr(PlusSymbols, "orbit_sums",
                            lambda sym, period, ell: (2,) * ell)
        with pytest.raises(CalibrationError, match="constant"):
            calibrate(E37B, 3)


class TestRecognition:
    def test_snaps_and_faults(self):
        assert recognize_integer(2.0000000001) == 2
        assert recognize_integer(-7 + 1e-9) == -7
        with pytest.raises(RecognitionError):
            recognize_integer(2.4)
        with pytest.raises(RecognitionError):
            recognize_integer(2.0, err=0.3)
        with pytest.raises(RecognitionError):
            recognize_integer(2.0 ** 60)

    def test_fault_injection_perturbed_lattice(self, cal_b):
        # feeding the solver a value displaced beyond tolerance must raise,
        # not round to the nearest integer
        with pytest.raises(RecognitionError):
            recognize_integer(1.001, tol=1e-4)


class TestCosetSums:
    def test_frozen_vectors(self, cal_a, cal_b):
        assert cal_b.coset_sums(CHI7).sums == (-2, -2, -2)
        assert cal_b.coset_sums(CHI9).sums == (10, -8, -8)
        assert cal_b.coset_sums(CHI13).sums == (-4, -4, -4)
        assert cal_a.coset_sums(CHI7).sums == (1, -1, 0)

    def test_probe_sums_are_not_solved_again(self, monkeypatch):
        # calibrate checked the probes' sums against their series at the
        # winning scale: asking for a probe orbit computes no symbol sums,
        # while any other orbit is still computed and checked
        cal = calibrate(E37B, 3)
        probes = probe_orbits(3)
        real = PlusSymbols.orbit_sums
        expected = {chi: tuple(cal.r * m for m in real(
            cal.curve.symbols, chi.exponent_table(), 3)) for chi in probes}
        asked = []
        monkeypatch.setattr(PlusSymbols, "orbit_sums", lambda sym, period, ell: (
            asked.append(period.tolist()) or real(sym, period, ell)))
        for chi in probes:
            cs = cal.coset_sums(chi)
            assert sum(cs.sums) == cal.trivial_coset_sum(chi.conductor)
            assert cs.sums == expected[chi]
        assert asked == []
        other = next(chi for chi in served_orbits(1, 3, 200)[0]
                     if chi.conductor % 37 and chi not in probes)
        cal.coset_sums(other)
        assert asked == [other.exponent_table().tolist()]

    def test_one_exponent_table_per_orbit(self, cal_b, monkeypatch):
        # a fresh orbit builds its exponent table once, and the symbol
        # sums, the Gauss sums and the series buckets all read that array
        tables, read = [], {}
        table = DirichletChar.exponent_table

        def built(chi):
            tables.append(table(chi))
            return tables[-1]

        def reading(name, kernel, at):
            def wrapper(*args):
                read.setdefault(name, []).append(args[at])
                return kernel(*args)
            return wrapper

        monkeypatch.setattr(DirichletChar, "exponent_table", built)
        monkeypatch.setattr(PlusSymbols, "orbit_sums", reading(
            "orbit_sums", PlusSymbols.orbit_sums, 1))
        monkeypatch.setattr(lvalue, "gauss_sums", reading(
            "gauss_sums", lvalue.gauss_sums, 0))
        monkeypatch.setattr(lvalue, "_dd_buckets", reading(
            "_dd_buckets", lvalue._dd_buckets, 1))
        record = fresh_calibration(cal_b).coset_sums(CHI9)
        assert record.sums == cal_b.coset_sums(CHI9).sums
        assert len(tables) == 1
        assert {name: [arg is tables[0] for arg in args]
                for name, args in read.items()} == {
            "orbit_sums": [True], "gauss_sums": [True], "_dd_buckets": [True]}

    def test_seed_identity(self, cal_b):
        # the trivial coset component is the untwisted part times the exact
        # multiplier; the solved lattice must reproduce it
        for chi in (CHI7, CHI9, CHI13):
            cs = cal_b.coset_sums(chi)
            assert sum(cs.sums) == cal_b.lalg0 * hecke_factor(
                E37B, chi.conductor, 3)

    def test_orbit_members_share_sums(self, cal_b):
        assert cal_b.coset_sums(CHI7.power(2)).sums == \
            cal_b.coset_sums(CHI7).sums

    def test_residuals_small(self, cal_b):
        for chi in (CHI7, CHI9, CHI13):
            assert cal_b.coset_sums(chi).max_residual < 1e-4

    def test_vanishing_is_constant_vector(self, cal_b):
        assert cal_b.coset_sums(CHI7).decision == "vanishes"
        assert cal_b.coset_sums(CHI9).decision == "nonzero"

    def test_algebraic_part_reduction(self, cal_b):
        cs = cal_b.coset_sums(CHI9)
        assert cs.lalg_mod_ell() == sum(cs.sums) % 3


class TestHeckeFactor:
    def test_values_from_definition(self):
        # split between the tame formula a_p - 1 - 1 and the wild one
        for f in (7, 13, 19):
            ap = E37B.ap(f)
            assert hecke_factor(E37B, f, 3) == ap - 2
        a3 = E37B.ap(3)
        assert hecke_factor(E37B, 9, 3) == (a3 - 1) * (a3 - 1) - 3
        assert hecke_factor(E37B, 91, 3) == \
            hecke_factor(E37B, 7, 3) * hecke_factor(E37B, 13, 3)

    def test_inadmissible_conductors_rejected(self):
        for f in (4, 3, 11, 25, 49):
            with pytest.raises(ValueError):
                hecke_factor(E37B, f, 3)


class TestTwistDecisions:
    def test_vanishing_twist(self, cal_b):
        record = cal_b.coset_sums(CHI7)
        assert record.decision == "vanishes"
        assert abs(record.L_value) < 1e-9

    def test_nonzero_twist(self, cal_b):
        record = cal_b.coset_sums(CHI9)
        assert record.decision == "nonzero"
        assert abs(record.L_value) > 10 * record.error_bound

    @pytest.mark.parametrize("curve", (E37A, E37B), ids=("37a", "37b"))
    @pytest.mark.parametrize("ell", (3, 5, 7))
    def test_rows_do_not_depend_on_precision(self, curve, ell):
        # the error budget and the series length do not depend on the
        # working precision, so the rows at 50 digits and at 80 miss r M_t
        # by the same residual: more digits cannot change the check of any
        # orbit
        cal = calibrate(curve, ell)
        orbits = [chi for chi in served_orbits(1, ell, 200)[0]
                  if chi.conductor % 37][:2]
        for chi in orbits:
            with mpmath.workdps(50):
                dd = lvalue._twist_rows(curve, chi, chi.exponent_table())
            with mpmath.workdps(80):
                mp = lvalue._twist_rows(curve, chi, chi.exponent_table())
            assert dd.l_err == mp.l_err
            for j, row in dd.rows.items():
                assert abs(row - mp.rows[j]) <= 1e-25, (chi.label(), j)
            low, high = (fresh_calibration(cal, curve, dps).coset_sums(chi)
                         for dps in (50, 80))
            assert low.sums == high.sums
            assert low.max_residual < 1e-4
            assert abs(low.max_residual - high.max_residual) <= 1e-20

    @pytest.mark.parametrize("curve", (E37A, E37B), ids=("37a", "37b"))
    @pytest.mark.parametrize("ell", (3, 5))
    def test_residual_matches_the_mpmath_oracle(self, curve, ell):
        # the complex-float residual of every probe orbit agrees with the
        # mpmath one at the working precision, on the true rows and on rows
        # whose first conjugate is moved by 0.01, whose residual fails the
        # tolerance
        cal = calibrate(curve, ell)
        for chi in probe_orbits(ell):
            sums = cal._records[chi].sums
            with mpmath.workdps(lvalue.WORKING_DPS):
                rows = lvalue._twist_rows(curve, chi,
                                          chi.exponent_table()).rows
            skewed = {j: row + 0.01 if j == 1 else row
                      for j, row in rows.items()}
            for r in (rows, skewed):
                fast = lvalue._series_residual(r, sums, cal.scale)
                slow = series_residual(r, sums, cal.scale, lvalue.WORKING_DPS)
                assert abs(fast - slow) <= 1e-9, chi.label()
            assert fast > lvalue._S_TOL

    def test_decided_orbits_keep_under_a_kilobyte(self, cal_b):
        # a decided orbit keeps its frozen record and none of its series
        # rows: under 1 KB each over the 44 orbits from conductor 400 to 700,
        # with the a_n table warmed first; a record is about 0.8 KB, and
        # about 2 KB with its rows
        orbits = [chi for chi in served_orbits(1, 3, 700)[0]
                  if chi.conductor >= 400 and chi.conductor % 37]
        fresh_calibration(cal_b).coset_sums(orbits[-1])
        cal = fresh_calibration(cal_b)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for chi in orbits:
                cal.coset_sums(chi)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(orbits) == 44
        assert kept / len(orbits) < 1024

    def test_unrounded_orbit_alarms_after_one_pass(self, cal_b, monkeypatch):
        # an orbit whose series misses r M_t (forced here by a zero
        # tolerance) is judged from its one series pass at the base
        # precision: an alarm, not a retry at more digits
        cal = fresh_calibration(cal_b)
        real = lvalue._twist_rows
        tried = []

        def rows(curve, chi, period):
            tried.append(mpmath.mp.dps)
            return real(curve, chi, period)

        monkeypatch.setattr(lvalue, "_twist_rows", rows)
        monkeypatch.setattr(lvalue, "_S_TOL", 0.0)
        with pytest.raises(ConsistencyError, match="differ from r M_t"):
            cal.coset_sums(CHI7)
        assert tried == [50]

    def test_non_integral_symbol_sums_raise(self, cal_a, monkeypatch):
        # r = -1/2 on 37a, so an odd M_0 leaves r M_0 off the integers, and
        # M_0 + 2 misses A_0 by one; either raises before any series pass
        chi = next(chi for chi in served_orbits(1, 3, 200)[0]
                   if chi.conductor % 37 and chi not in probe_orbits(3))
        real, table = PlusSymbols.orbit_sums, chi.exponent_table()
        assert real(cal_a.curve.symbols, table, 3)[0] % 2 == 0
        assert cal_a.r == Fraction(-1, 2)

        def no_series(*args):
            raise AssertionError("a series pass ran before the exact checks")
        monkeypatch.setattr(lvalue, "_twist_rows", no_series)
        for shift, match in ((1, "are not integers"),
                             (2, "exact recursion gives")):
            def shifted(sym, period, ell, shift=shift):
                sums = real(sym, period, ell)
                ours = np.array_equal(period, table)
                return (sums[0] + shift,) + sums[1:] if ours else sums
            monkeypatch.setattr(PlusSymbols, "orbit_sums", shifted)
            with pytest.raises(ConsistencyError, match=match):
                fresh_calibration(cal_a, E37A).coset_sums(chi)

    def test_failed_cross_check_raises(self, cal_b, monkeypatch):
        # conjugate rows that disagree miss the exact sums r M_t: an
        # alarm, not a decision from |L| alone
        cal = fresh_calibration(cal_b)
        monkeypatch.setattr(lvalue, "_twist_rows", skewed_twist_rows)
        with pytest.raises(ConsistencyError, match="differ from r M_t"):
            cal.coset_sums(CHI9)

    def test_decision_policy_truth_table(self):
        assert vanishing_decision(CHI7, (3, 3, 3), 0j, 1e-10) == "vanishes"
        assert vanishing_decision(CHI7, (1, 2, 3), 1.0 + 0j, 1e-10) == "nonzero"
        # an exactly nonzero part with a value inside its noise is an alarm
        with pytest.raises(ConsistencyError, match="within noise"):
            vanishing_decision(CHI7, (1, 2, 3), 1e-11 + 0j, 1e-10)
        # exact route wins even when the numeric value alone would decide
        assert vanishing_decision(CHI7, (5, 5, 5), 1.0 + 0j, 1e-10) == "vanishes"

    def test_dead_value_of_a_nonzero_orbit_raises(self, cal_b, monkeypatch):
        # exactly nonzero sums whose series value is 0 are an alarm on the
        # one accessor, so the congruence check and a calibration probe
        # raise too; the congruence check once passed (9; 3:1) with
        # holds = True.  The vanishing orbit (7; 7:1) is unmoved
        monkeypatch.setattr(lvalue, "_twist_rows", dead_value_rows)
        cal = fresh_calibration(cal_b)
        assert cal.coset_sums(CHI7).decision == "vanishes"
        for check in (cal.coset_sums, lambda chi: cal.congruence_check(None, chi)):
            with pytest.raises(ConsistencyError, match="within noise"):
                check(CHI9)
        with pytest.raises(CalibrationError, match="within noise"):
            calibrate(E37B, 3)

    def test_record_round_trip_to_dict(self, cal_b):
        d = cal_b.coset_sums(CHI7).as_dict()
        assert d["decision"] == "vanishes"
        assert d["coset_sums"] == [-2, -2, -2]
        assert d["precision_digits"] == 50 and "rung" not in d


class TestCongruence:
    def test_trivial_character_relations(self, cal_b):
        for psi in (CHI7, CHI9, CHI13):
            result = cal_b.congruence_check(None, psi)
            assert result.holds
            assert result.rhs == result.factor * (cal_b.lalg0 % 3) % 3

    def test_twisted_relations(self, cal_b):
        assert cal_b.congruence_check(CHI7, CHI9).holds
        assert cal_b.congruence_check(CHI9, CHI7).holds
        assert cal_b.congruence_check(CHI7, CHI13).holds

    def test_vanishing_curve_relations(self, cal_a):
        # the odd-sign curve has trivial part 0, so every twist inherits
        # the zero residue; the relation still has content on the lhs
        for psi in (CHI7, CHI13):
            result = cal_a.congruence_check(None, psi)
            assert result.holds
            assert result.rhs == 0

    def test_non_coprime_pair_rejected(self, cal_b):
        chi63 = galois_orbits(63, 3)[0]
        with pytest.raises(ValueError):
            cal_b.congruence_check(CHI7, chi63)

    def test_fault_injection_corrupted_multiplier(self, cal_b, monkeypatch):
        # a wrong Euler factor must surface as a failed relation with its
        # intermediates intact, not slip through
        good = cal_b.congruence_check(None, CHI13)
        # the local name still binds the real function, so no recursion
        monkeypatch.setattr(lvalue, "hecke_factor",
                            lambda curve, f, ell:
                            hecke_factor(curve, f, ell) + 1)
        bad = cal_b.congruence_check(None, CHI13)
        assert good.holds and not bad.holds
        assert bad.lhs == good.lhs
        assert bad.factor == (good.factor + 1) % 3


class TestNonvanishingSet:
    def test_empty_but_hypothesis_holds(self, cal_b):
        # rational three-torsion forces a_p = 2 mod 3 at every p = 1 mod 3
        # prime to the level, so the criterion keeps nothing here
        result = cal_b.nonvanishing_prime_set(300)
        assert result.hypothesis_ok
        assert result.l0_mod_ell == 2
        assert result.primes == ()
        assert result.n_residue_primes == 28
        assert result.density == 0.0
        for p in primes_up_to(300):
            if p % 3 == 1 and p != 37:
                assert E37B.ap(p) % 3 == 2

    def test_zero_part_disables_criterion(self, cal_a):
        result = cal_a.nonvanishing_prime_set(100)
        assert not result.hypothesis_ok
        assert result.primes == ()
