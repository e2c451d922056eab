"""Character checks: multiplicativity and primitivity verified by exhaustive
brute force, counts against the closed form, the Gauss-sum oracle against
the per-residue definition, the production Gauss sums against the modulus
identity and their symmetries, and orbit bookkeeping."""

import tracemalloc
from math import gcd

import mpmath
import numpy as np
import pytest

from elltwists.dirichlet import (DirichletChar, admissible_conductors,
                                 galois_orbits)
from elltwists.lvalue import served_orbits
from elltwists.numcore import factor, primes_up_to
from oracles import (characters_of_conductor, periods_gauss_sums,
                     pointwise_gauss_sum)


def expected_count(f: int, ell: int) -> int:
    """(ell - 1) choices per prime component, straight from the structure of
    the unit group; zero when some component cannot carry order ell."""
    out = 1
    for p, e in factor(f).pairs:
        if p == ell and e == 2:
            out *= ell - 1
        elif e == 1 and p % ell == 1 and p != ell:
            out *= ell - 1
        else:
            return 0
    return out


class TestCharacterTable:
    @pytest.mark.parametrize("f", [7, 9, 13, 63, 91])
    def test_values_completely_multiplicative(self, f):
        for chi in characters_of_conductor(f, 3):
            units = [u for u in range(1, f) if gcd(u, f) == 1]
            for a in units:
                for b in units:
                    assert chi.value_exponent(a * b) == \
                        (chi.value_exponent(a) + chi.value_exponent(b)) % 3
            for a in range(f):
                if gcd(a, f) != 1:
                    assert chi.value_exponent(a) is None
                    assert chi(a) == 0

    @pytest.mark.parametrize("f", [7, 9, 13, 63])
    def test_primitive_no_smaller_modulus_induces(self, f):
        # a character of conductor f must be nontrivial on the units
        # that are 1 mod f/q, for every prime q dividing f
        for chi in characters_of_conductor(f, 3):
            for q, _ in factor(f).pairs:
                m = f // q
                sub = [a for a in range(2, f)
                       if a % m == 1 % m and gcd(a, f) == 1]
                assert any(chi.value_exponent(a) != 0 for a in sub), \
                    f"{chi.label()} factors through modulus {m}"

    @pytest.mark.parametrize("ell,f", [
        (3, 7), (3, 9), (3, 13), (3, 63), (3, 91), (3, 117), (3, 819),
        (5, 11), (5, 25), (5, 31), (5, 275),
    ])
    def test_counts_match_closed_form(self, ell, f):
        assert len(characters_of_conductor(f, ell)) == expected_count(f, ell)

    def test_exponent_table_matches_pointwise_values(self):
        # two independent routes, the walk over the units against a^h among
        # the powers of g^h, for tame and wild conductors at ell 3, 5 and 7:
        # the table is one period, read at n % f for every n to 5000, over
        # several periods, where each component's -1 must carry
        for ell, f in ((3, 7), (3, 9), (3, 91), (3, 819), (5, 11), (5, 25),
                       (5, 341), (5, 275), (7, 29), (7, 49), (7, 1247),
                       (7, 1421)):
            for chi in galois_orbits(f, ell)[:2]:
                table = chi.exponent_table()
                assert table.dtype == np.int64 and len(table) == f
                for n in range(5001):
                    v = chi.value_exponent(n)
                    assert table[n % f] == (-1 if v is None else v)

    def test_exponent_tables_keep_nothing_per_modulus(self):
        # nothing is cached per modulus beyond primitive_root's generator,
        # which the orbits fetch before tracing starts; one table of ints per
        # modulus would keep about 36 MB here
        primes = [p for p in primes_up_to(20000)
                  if p > 10 ** 4 and p % 3 == 1][:100]
        orbits = [galois_orbits(p, 3)[0] for p in primes]
        tracemalloc.start()
        try:
            for chi in orbits:
                chi.exponent_table()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 2 ** 20


class TestEnumeration:
    def test_admissible_conductors_frozen_list(self):
        assert admissible_conductors(3, 100) == \
            [7, 9, 13, 19, 31, 37, 43, 61, 63, 67, 73, 79, 91, 97]
        assert admissible_conductors(5, 75) == [11, 25, 31, 41, 61, 71]

    def test_admissible_means_nonempty_character_set(self):
        admissible = set(admissible_conductors(3, 100))
        for f in range(2, 101):
            assert (expected_count(f, 3) > 0) == (f in admissible)

    def test_inadmissible_conductors_rejected(self):
        for f in (1, 3, 4, 25, 27, 49, 77):
            for enumerate_ in (characters_of_conductor, galois_orbits):
                with pytest.raises(ValueError, match="not an admissible"):
                    enumerate_(f, 3)

    def test_orbit_counts(self):
        # ell - 1 conjugates per orbit, so orbits = characters / (ell - 1)
        for ell, f in [(3, 7), (3, 63), (3, 91), (5, 11), (5, 275)]:
            orbits = galois_orbits(f, ell)
            chars = characters_of_conductor(f, ell)
            assert len(orbits) * (ell - 1) == len(chars)
            assert all(chi.conductor == f for chi in orbits)
            # orbits partition the characters
            members = [c for chi in orbits for c in chi.orbit()]
            assert sorted(c.label() for c in members) == \
                sorted(c.label() for c in chars)

    def test_representatives_sorted_and_complete(self):
        reps = served_orbits(1, 3, 100)[0]
        assert [r.conductor for r in reps] == \
            sorted(r.conductor for r in reps)
        assert sum(1 for r in reps if r.conductor == 91) == 2
        assert all(r == r.canonical() for r in reps)


class TestOrbitStructure:
    def test_orbit_size_and_canonical_stability(self):
        chi = galois_orbits(63, 3)[0]
        orbit = chi.orbit()
        assert len(orbit) == 2
        assert {c.canonical() for c in orbit} == {chi.canonical()}

    def test_canonical_and_orbits_match_the_orbit_minimum(self):
        # oracle: the old definition, the lex-least exponent vector over
        # the whole orbit, and the set of those over all characters
        def exps(c):
            return tuple(e for _, e in c.components)

        checked = 0
        for ell in (3, 5, 7):
            for f in admissible_conductors(ell, 3000):
                chars = characters_of_conductor(f, ell)
                for chi in chars:
                    assert chi.canonical() == min(chi.orbit(), key=exps)
                want = sorted({min(c.orbit(), key=exps) for c in chars}, key=exps)
                assert galois_orbits(f, ell) == want
                checked += len(chars)
        assert checked == 2322

    def test_conjugate_is_inverse(self):
        chi = galois_orbits(13, 3)[0]
        for a in range(1, 13):
            assert abs(chi(a) * chi.conjugate()(a) - 1) < 1e-12

    def test_labels_round_trip(self):
        for ell, bound in [(3, 120), (5, 80)]:
            for chi in served_orbits(1, ell, bound)[0]:
                assert DirichletChar.from_label(ell, chi.label()) == chi

    def test_product_multiplies_conductors(self):
        chi7 = galois_orbits(7, 3)[0]
        chi9 = galois_orbits(9, 3)[0]
        prod = chi7 * chi9
        assert prod.conductor == 63
        for a in range(1, 63):
            if gcd(a, 63) == 1:
                assert abs(prod(a) - chi7(a) * chi9(a)) < 1e-12

    def test_product_needs_coprime_conductors(self):
        chi7 = galois_orbits(7, 3)[0]
        chi63 = galois_orbits(63, 3)[0]
        with pytest.raises(ValueError):
            chi7 * chi63

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError):
            galois_orbits(7, 3)[0] * galois_orbits(11, 5)[0]

    def test_power_zero_rejected(self):
        with pytest.raises(ValueError):
            galois_orbits(7, 3)[0].power(3)


class TestGaussSum:
    @pytest.mark.parametrize("ell,f", [
        (3, 7), (3, 9), (3, 63), (3, 91), (3, 117),
        (5, 11), (5, 25), (5, 31), (5, 275),
        (7, 29), (7, 43), (7, 49),
    ])
    def test_periods_match_pointwise_definition(self, ell, f):
        # every conjugate of the one-pass mpmath periods against the
        # per-residue sum, tame and wild (ell^2 | f) conductors, every orbit;
        # gauss_sum is the kernel's tau, within its stated bound of them
        with mpmath.workdps(50):
            for chi in galois_orbits(f, ell):
                taus = periods_gauss_sums(chi)
                assert sorted(taus) == list(range(1, ell))
                for j, tau in taus.items():
                    assert abs(tau - pointwise_gauss_sum(chi.power(j))) < 1e-45
                kernel, bound = chi.gauss_sums()
                assert chi.gauss_sum() == kernel[1]
                assert abs(kernel[1] - taus[1]) <= bound

    def test_modulus_squared_is_conductor(self):
        # |tau(chi)|^2 = f for primitive chi, orders 3 and 5
        with mpmath.workdps(30):
            for ell, bound in [(3, 120), (5, 120)]:
                for chi in served_orbits(1, ell, bound)[0]:
                    tau = chi.gauss_sum()
                    f = chi.conductor
                    assert abs(abs(tau) ** 2 - f) / f < 1e-12

    def test_conjugate_reflection(self):
        # tau(conj chi) = chi(-1) conj(tau(chi))
        with mpmath.workdps(30):
            for f in (7, 9, 13, 63):
                chi = galois_orbits(f, 3)[0]
                lhs = chi.conjugate().gauss_sum()
                rhs = chi(-1) * mpmath.conj(chi.gauss_sum())
                assert abs(lhs - rhs) < 1e-20

    def test_product_factorization(self):
        # tau(chi psi) = chi(f_psi) psi(f_chi) tau(chi) tau(psi) for
        # coprime conductors; the root of unity built at full precision
        with mpmath.workdps(30):
            chi = galois_orbits(7, 3)[0]
            psi = galois_orbits(13, 3)[0]
            k = (chi.value_exponent(13) + psi.value_exponent(7)) % 3
            unit = mpmath.exp(2j * mpmath.pi * k / 3)
            lhs = (chi * psi).gauss_sum()
            rhs = unit * chi.gauss_sum() * psi.gauss_sum()
            assert abs(lhs - rhs) < 1e-20


class TestValidation:
    def test_component_constraints(self):
        with pytest.raises(ValueError):
            DirichletChar(3, ((5, 1),))  # 5 != 1 mod 3
        with pytest.raises(ValueError):
            DirichletChar(4, ((5, 1),))  # order not odd prime
        with pytest.raises(ValueError):
            DirichletChar(3, ())
        # the wild component is named by its prime; its modulus is ell^2
        assert DirichletChar(3, ((3, 1),)).conductor == 9

    @pytest.mark.parametrize("comps", [((25, 1),), ((91, 1),), ((9, 1),)])
    def test_composite_component_rejected(self, comps):
        # 25 and 91 are 1 mod 3 but not prime: the exponent table of a
        # "(25; 25:1)" would not be multiplicative
        with pytest.raises(ValueError, match="not a prime"):
            DirichletChar(3, comps)

    @pytest.mark.parametrize("label", ["(49; 49:1)", "(25; 25:1)", "(9; 9:1)"])
    def test_composite_label_rejected(self, label):
        # (49; 49:1) would name a character that factors through (Z/7)^*
        with pytest.raises(ValueError):
            DirichletChar.from_label(3, label)

    @pytest.mark.parametrize("comps", [
        ((7, 1), (7, 2)),              # repeated prime
        ((13, 1), (7, 1)),             # unsorted primes
        ((7, 0),), ((7, 3),),          # exponent 0 or ell
    ])
    def test_bad_pairs_rejected(self, comps):
        with pytest.raises(ValueError):
            DirichletChar(3, comps)

    def test_even_characters(self):
        # chi(-1) = chi((-1)^2)^... : order is odd so chi(-1) = 1 always
        for chi in served_orbits(1, 3, 100)[0]:
            assert chi.is_even()
        assert all(p % 3 == 1 or p == 3
                   for p in primes_up_to(100) if expected_count(p, 3))
