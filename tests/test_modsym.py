"""Plus modular symbols.

The eigen-functional is checked against the relations and Hecke operators
written out symbol by symbol, independently of the matrix the solver
builds; the lockstep symbol sums against one continued fraction at a time
over every residue; the Fricke sign against the same continued fractions
on every cusp it scans, and the root number it gives against the declared
sign of seven curves; and S_t = r M_t against coset sums frozen from the
series census of the benchmark reference, and across six curves of
prime and composite level.
"""
import copy
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from elltwists.dirichlet import DirichletChar, galois_orbits
from elltwists.elliptic import Curve
import elltwists.lvalue as lvalue
from elltwists.lvalue import CalibrationError, calibrate
from elltwists.modsym import PlusSymbols, _CUSP_BOUND, _merel_set

E37A = Curve((0, 0, 1, -1, 0), label="37a", conductor=37, root_number=-1)
E37B = Curve((0, 1, 1, -3, 1), label="37b", conductor=37, root_number=1)
# Cremona's 11a1, 14a1, 15a1, 19a1 (rank 0) and 43a1 (rank 1)
E14A = Curve((1, 0, 1, 4, -6), label="14a1", conductor=14, root_number=1)
E15A = Curve((1, 1, 1, -10, -10), label="15a1", conductor=15, root_number=1)
E19A = Curve((0, 1, 1, -9, -15), label="19a1", conductor=19, root_number=1)
E43A = Curve((0, 1, 1, 0, 0), label="43a1", conductor=43, root_number=-1)
E11A = Curve((0, -1, 1, -10, -20), label="11a1", conductor=11, root_number=1)
SEVEN_CURVES = (E11A, E14A, E15A, E19A, E37A, E37B, E43A)

REFERENCE_CENSUS_ELL3 = (Path(__file__).resolve().parents[1] / "perfbench"
                         / "reference" / "census_ell3.csv")


def symbol_oo_to(sym, a, f):
    """phi({oo, a/f}) from the convergents p_j / q_j of a/f, one at a time,
    signs kept: {p_(j-1)/q_(j-1), p_j/q_j} is the Manin symbol
    ((-1)^(j-1) q_j : q_(j-1))."""
    total = sym(-1, 0)
    x, q0, q1, j = Fraction(f, a), 0, 1, 0
    while True:
        j += 1
        k = x.numerator // x.denominator
        q0, q1 = q1, k * q1 + q0
        total += sym((-1) ** (j - 1) * q1, q0)
        if x == k:
            assert q1 == f
            return total
        x = 1 / (x - k)


class TestEigenFunctional:
    @pytest.mark.parametrize("curve", [E37A, E37B, E14A, E15A, E19A, E43A],
                             ids=lambda c: c.label)
    def test_relations_and_hecke_operators(self, curve):
        # every relation and T_q, q = 2, 3, 5, 7 prime to N, holds symbol by
        # symbol; the solver's rank mod p leaves exactly one line
        sym = curve.symbols
        N = curve.conductor
        assert sym.rank == len(sym.phi) - 1 and any(sym.phi)
        pairs = [(c, d) for c in range(N) for d in range(N)
                 if gcd(gcd(c, d), N) == 1]
        for c, d in pairs:
            assert sym(c, d) + sym(d, -c) == 0
            assert sym(c, d) + sym(d, -c - d) + sym(-c - d, c) == 0
            assert sym(c, d) == sym(-c, d)
            for q in (2, 3, 5, 7):
                if N % q:
                    image = sum(sym(c * a + d * cc, c * b + d * dd)
                                for a, b, cc, dd in _merel_set(q))
                    assert image == curve.ap(q) * sym(c, d), (c, d, q)

    def test_merel_set_of_two(self):
        assert sorted(_merel_set(2)) == sorted(
            [(2, 0, 0, 1), (1, 0, 0, 2), (2, 1, 0, 1), (1, 0, 1, 2)])

    def test_unit_symbol_is_the_untwisted_part(self):
        # phi((1:0)) = phi({oo, 0}): L0 for 37b, and 0 on the rank-one 37a
        assert E37B.symbols(1, 0) == 2
        assert E37A.symbols(1, 0) == 0

    def test_primitive_with_positive_last_coordinate(self):
        for curve in (E37A, E37B):
            phi = [int(v) for v in curve.symbols.phi]
            assert gcd(*phi) == 1
            # the last nonzero coordinate, the free one of the solve, is > 0
            assert [v for v in phi if v][-1] > 0

    def test_symbols_need_a_conductor(self):
        with pytest.raises(ValueError, match="no conductor"):
            Curve((0, 1, 1, -3, 1)).symbols

    def test_eigenvalues_off_the_line_are_refused(self):
        # a_2 = 1 is no eigenvalue at level 37: the kernel is empty
        with pytest.raises(ArithmeticError, match="leave 0 dimensions"):
            PlusSymbols(37, lambda q: 1 if q == 2 else E37B.ap(q))

    def test_other_eigenline(self):
        # 37a's a_2 on 37b's other eigenvalues still cuts out 37a's line
        wrong = PlusSymbols(37, lambda q: -2 if q == 2 else E37B.ap(q))
        assert list(wrong.phi) == list(E37A.symbols.phi)


class TestSymbolSums:
    @pytest.mark.parametrize("ell,f", [(3, 7), (3, 63), (3, 91), (5, 11),
                                       (5, 25), (7, 29), (7, 49)])
    def test_lockstep_matches_one_fraction_at_a_time(self, ell, f):
        # every a < f, both halves, with the signs of the symbols kept
        for chi in galois_orbits(f, ell):
            for curve in (E37A, E37B):
                sym = curve.symbols
                brute = [0] * ell
                for a in range(1, f):
                    k = chi.value_exponent(a)
                    if k is not None:
                        brute[k] += symbol_oo_to(sym, a, f)
                assert sym.orbit_sums(chi.exponent_table(), ell) == \
                    tuple(brute), chi.label()

    def test_reference_census_sums(self):
        # all 60 orbits of the benchmark's frozen census of 37b, ell = 3,
        # to conductor 415, which covers acceptance criterion 04: r = 1
        sym = E37B.symbols
        rows = REFERENCE_CENSUS_ELL3.read_text().splitlines()[1:]
        assert len(rows) == 60
        for row in rows:
            label = row[row.index("("):row.index(")") + 1]
            sums = row.rsplit(", ", 1)[1]
            chi = DirichletChar.from_label(3, label)
            assert sym.orbit_sums(chi.exponent_table(), 3) == \
                tuple(map(int, sums.split("|"))), \
                label

    def test_frozen_vector_of_37a(self):
        # 37a's coset sums (1, -1, 0) at r = -1/2
        chi7 = galois_orbits(7, 3)[0]
        assert E37A.symbols.orbit_sums(chi7.exponent_table(), 3) == (-2, 2, 0)


def fricke_sides(sym, a, c):
    """(phi({oo, W_N(a/c)}) - phi({oo, 0}), phi({oo, a/c})) by the one
    fraction at a time oracle, W_N(a/c) = -c/(N a) and W_N(0) = oo."""
    phi0 = sym(1, 0)
    if a == 0:
        return -phi0, phi0
    image = Fraction(-c, sym.N * a)
    u, v = image.numerator % image.denominator, image.denominator
    return (symbol_oo_to(sym, u, v) if u else phi0) - phi0, \
        symbol_oo_to(sym, a, c)


class TestFrickeSign:
    def test_root_number_is_the_declared_sign(self):
        # rank 0 and rank 1, prime and composite levels: 37a and 43a1 have
        # w = -1, the other five w = +1
        for curve in SEVEN_CURVES:
            assert curve.symbols.root_number() == curve.root_number, \
                curve.label

    @pytest.mark.parametrize("curve", SEVEN_CURVES, ids=lambda c: c.label)
    def test_relation_matches_one_fraction_at_a_time(self, curve):
        # on every cusp the check scans, the signs of the symbols kept,
        # eps_N = -w carries phi({oo, a/c}) to its Fricke image, and the
        # lockstep sums agree with the oracle on both sides
        sym = curve.symbols
        eps = -sym.root_number()
        cusps = [(a, c) for c in range(1, _CUSP_BOUND + 1) for a in range(c)
                 if gcd(a, c) == 1]
        nonzero = 0
        for a, c in cusps:
            image, phi = fricke_sides(sym, a, c)
            assert image == eps * phi, (a, c)
            nonzero += phi != 0
            if a:
                assert sym._oo_to(np.array([a]), np.array([c]))[0] == phi
        assert nonzero

    def test_no_single_sign_is_refused(self):
        # phi = 0 fits both signs; the sum of 37a's line (eps_N = +1) and
        # 37b's (eps_N = -1) fits none
        sym = copy.copy(E37B.symbols)
        sym._grid = 0 * sym._grid
        with pytest.raises(ArithmeticError, match="2 Fricke signs"):
            sym.root_number()
        sym._grid = E37A.symbols._grid + E37B.symbols._grid
        with pytest.raises(ArithmeticError, match="0 Fricke signs"):
            sym.root_number()


# the scale and L0 that calibration freezes with each curve's ratio r, the
# same at orders 3, 5 and 7
SCALE_AND_L0 = {"37a": (Fraction(2), 0), "37b": (Fraction(1, 9), 2),
                "19a1": (Fraction(1, 3), 2), "14a1": (Fraction(1, 3), 1),
                "15a1": (Fraction(1, 4), 1), "43a1": (Fraction(2), 0)}


class TestSymbolRatio:
    @pytest.mark.parametrize("curve,r", [
        (E37B, 1), (E37A, Fraction(-1, 2)), (E19A, 1), (E14A, -1),
        (E15A, -1), (E43A, Fraction(-1, 2))], ids=lambda v: str(v))
    def test_calibrated_ratio(self, curve, r):
        # one scale and one rational per curve, prime and composite levels
        # alike, and L0 = r phi((1:0)) ties r to the untwisted part
        scale, l0 = SCALE_AND_L0[curve.label]
        for ell in (3, 5, 7):
            cal = calibrate(curve, ell)
            assert (cal.scale, cal.r, cal.lalg0) == (scale, r, l0), ell
        assert l0 == r * curve.symbols(1, 0)

    @pytest.mark.parametrize("ell", (3, 5, 7))
    def test_scale_outside_the_candidates_is_refused(self, ell):
        # 11a1's L0 needs the scale 1/5, which SCALES does not offer
        with pytest.raises(CalibrationError, match="no period scale fits"):
            calibrate(E11A, ell)

    @pytest.mark.parametrize("orbits", (5, 15))
    def test_calibration_does_not_depend_on_the_probes(self, orbits,
                                                       monkeypatch):
        # fewer or more probe orbits freeze the same scale, r and L0
        monkeypatch.setattr(lvalue, "_PROBE_ORBITS", orbits)
        cal = calibrate(E37B, 3)
        assert (cal.scale, cal.r, cal.lalg0) == (Fraction(1, 9), 1, 2)

    @pytest.mark.parametrize("curve,ell,r", [(E37B, 3, 1),
                                             (E37A, 5, Fraction(-1, 2))],
                             ids=["37b-ell3", "37a-ell5"])
    @pytest.mark.parametrize("dps", (15, 50, 80))
    def test_calibration_does_not_depend_on_the_precision(self, curve, ell,
                                                          r, dps):
        # 15 digits, the working 50 and 80 digits freeze the same
        # scale, r and L0
        scale, l0 = SCALE_AND_L0[curve.label]
        cal = calibrate(curve, ell, dps=dps)
        assert (cal.scale, cal.r, cal.lalg0, cal.base_dps) == \
            (scale, r, l0, dps)
