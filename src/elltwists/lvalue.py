"""Central values L(E, 1, chi) for characters chi of odd prime order ell,
and their exact algebraic avatars.

The analytic side is a pair of rapidly convergent series obtained from the
functional equation, split at the fixed point of the Fricke involution
of level f^2 N, so that both share one radius:

    L(E, 1, chi) = sum_n (a_n / n) chi(n) r^n
                 + eps  sum_n (a_n / n) conj(chi)(n) r^n,
    r = e^(-2 pi / (f sqrt(N))),

with eps = w_E chi(N) tau(chi)^2 / f.  Truncation uses |a_n|/n <= 2, so the
reported values carry a rigorous tail bound.  The root number w_E is an
input; CurveConfig checks it exactly against the Fricke sign of the plus
modular symbols (modsym) before any series is summed.

The terms (a_n / n) r^n are real and see chi only through the exponent
k = ind(n) with chi(n) = zeta^k (n prime to f), so one pass over n fills ell
real buckets

    B_k = sum_{ind(n) = k} (a_n / n) r^n,

which both series read, and every conjugate twist of the orbit follows
without another pass:

    L(E, 1, chi^j) = sum_k zeta^(jk) B_k + eps_j sum_k zeta^(-jk) B_k,

with eps_j the eps of chi^j; all tau(chi^j) come from one pass over the
orbit's real Gaussian periods, DirichletChar.gauss_sums (dirichlet), the one
Gauss-sum kernel.

_dd_buckets is the one bucket kernel.  It fills the buckets in vectorised
double-double at any working precision, with the helpers it shares with
the Gauss-sum kernel in numcore; only the calibration sets the mpmath
precision (WORKING_DPS for every command).  Of full length it keeps only
the indices n of the nonzero terms.  They go in fixed-size chunks, each
reading ind(n) off the one period of chi's exponent table at n mod f and
a_n off the curve's table: a_n / n is a (hi, lo) pair with an exact
TwoProduct remainder, r^n = r^(qB) r^s is one Dekker product of two
anchors from fixed-point integer powers of r, and each term is one more
Dekker product.  numcore._bucket_sums sums each
bucket's share of a chunk exactly, in float64 bins keyed by bucket and
exponent window that take up to 2^20 split halves without rounding, and
rounds it to (hi, lo) by math.fsum of the bin totals; the chunk pairs are
summed exactly and rounded once more.  Every term is within about
20 * 2^-106 of its exact value, relatively, and each rounding of a pair
costs at most 2^-106 of its sum, so

    |B_k^dd - B_k| <= _DD_ROUNDOFF * sum_{ind(n) = k} |(a_n / n) r^n|,
    _DD_ROUNDOFF = 2^-100,

and a pass whose bound exceeds err / 100 raises ConsistencyError; the bound
never enters the reported tail bound.  About 31 significant digits lose
nothing a decision or a printed float can see, since every decision is
exact and the values are only trusted to their tail bound.  The Gauss-sum
kernel states a bound on |d tau| in the same way; it reaches L through eps,
|d eps| <= 2 |d tau| / sqrt(f) times the second series' sum of |terms|, and
raises ConsistencyError past err / 100 like the series' own bound.  The
kernels' oracles, the per-term mpmath bucket loop and the mpmath periods one
cosine per residue, live in the tests' oracles module; no production path
can reach them.

The algebraic side rescales central values to lattice coordinates

    A_j = 2 f L(E, 1, chi^j) / (Omega_eff tau(chi^j)),   Omega_eff = c Omega,

which are integer combinations of ell-th roots of unity.  Sorting residues
mod f by character exponent splits A_j = sum_t zeta^(-jt) S_t into ell
integer coset sums S_0..S_{ell-1}, and the curve's plus modular symbols
(modsym) give them exactly: S_t = r M_t, where M_t sums the plus
eigen-functional over {oo, a/f} for the a of exponent t, and r is one
rational per (curve, ell).  The sums must be integers that total the exact
multiplicative recursion

    A_0(f) = L0 * prod_{p || f} (a_p - 1 - delta(p))
                * [ (a_ell - 1)(a_ell - delta(ell)) - delta(ell) ell  if ell^2 | f ]

where delta(p) = 1 iff p is prime to the conductor and L0 is the untwisted
algebraic part.  The series is their check: the inverse finite Fourier
transform of the rows over j, seeded at j = 0 by A_0, must land within
_S_TOL of every S_t.  A miss is a consistency alarm.  A wrong root number,
chi(N), Gauss sum, exponent table or eigenline moves the rows off r M_t,
and a wrong A_0 misses their total (an exponent table shifted by one moves
every orbit but those with constant sums, whose decision it leaves right),
so each orbit takes one series pass.  CalibratedCurve._record
is the one place an orbit is checked and decided: it makes these checks,
exact ones first, then asks vanishing_decision, whose noise alarm every
caller of coset_sums (census, congruence, calibration probes) inherits.

The scale c and the ratio r are calibrated once per curve from the first
several character orbits.  Their rows give the product c r, read off the
largest exact transform sum_t zeta^(-jt) M_t.  With g the gcd of
phi((1:0)) and the probes' M_t, c is the largest candidate scale for which
r g = c r g / c is an integer: the coarsest lattice on which every probe
sum and L0 = r phi((1:0)) are integers.  The untwisted series must then
give L0 at scale c, and every probe must pass the checks above.

Everything downstream is exact: the twisted central value vanishes iff all
ell coset sums are equal, and reducing the algebraic part at the prime
above ell is just summing the coset sums mod ell.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import mpmath
import numpy as np

from .dirichlet import (DirichletChar, admissible_conductors,
                        conductor_primes, galois_orbits)
from .elliptic import Curve
from .numcore import (_DD_ROUNDOFF, RecognitionError, TheoryViolation,
                      _bucket_sums, _dd_mul, _dd_sum, _dd_table,
                      _roots_of_unity, _two_prod, power_tables, primes_up_to,
                      recognize_integer)


class CalibrationError(TheoryViolation):
    """No admissible period scale makes the lattice coordinates integral."""


class ConsistencyError(TheoryViolation):
    """An exact cross-check failed: the computation cannot be trusted."""


# candidate period rescalings, scanned largest first so the frozen scale is
# the coarsest usable lattice
SCALES = tuple(Fraction(v) for v in (12, 9, 6, 4, 3, 2, 1)) + tuple(
    Fraction(1, v) for v in (2, 3, 4, 6, 9, 12))

_S_TOL = 1e-4        # tolerance of the series coset sums against r M_t
_S_ERR = 2e-6        # propagated numeric error budget for coset sums
_SCALE_FLOOR = min(SCALES)
# calibrate probes the first 10 orbits prime to the level, in a conductor
# window that starts at 400 and doubles until it holds them
_PROBE_ORBITS = 10
_PROBE_BOUND = 400
_DD_CHUNK = 8192       # terms per vectorised step of the kernel
# the mpmath precision of every command: the kernels carry about 31 digits,
# and 30, 80 or 200 digits write the census bytes of 50 (15 and 16 do not)
WORKING_DPS = 50


def _terms_needed(c, eps) -> int:
    """Smallest M with sum_{n > M} 2 e^(-c n) <= eps."""
    c = float(c)
    q = math.exp(-c)
    return max(1, math.ceil(math.log(2.0 / (float(eps) * (1.0 - q))) / c))


def _decay(curve: Curve, f: int):
    """c = 2 pi / (f sqrt(N)): the terms of the series at twist conductor f
    fall like e^(-c n), at the current precision."""
    return 2 * mpmath.pi / (f * mpmath.sqrt(curve.conductor))


def _rows_err(curve: Curve, f: int) -> float:
    """The absolute error on L that _twist_rows allows at conductor f, at
    the current precision: |dS_t| <= 2 sqrt(f) |dL| / (c Omega) must stay
    under the rounding budget for every candidate scale c."""
    return (_S_ERR / 4 * float(_SCALE_FLOOR) * float(curve.real_period())
            / (2 * math.sqrt(f)))


def series_terms(curve: Curve, f: int, err=None) -> int:
    """M, the number of a_n that the series at twist conductor f sums at
    the current precision for absolute error err; err defaults to the
    _twist_rows budget, so series_terms(curve, f) is the a_n length that
    the orbits of conductor f need.  central_values takes its M from here."""
    if err is None:
        err = _rows_err(curve, f)
    return _terms_needed(_decay(curve, f), err / 2)


def _dd_quotient(a, n):
    """a / n as double-double pairs, for arrays of exact integers: the
    remainder a - hi n is exact (TwoProduct, then Sterbenz)."""
    hi = a / n
    p, e = _two_prod(hi, n)
    return hi, ((a - p) - e) / n


def _dd_anchors(r, M: int):
    """B and the tables r^s (s < B) and r^(qB) (q <= M // B), B = isqrt(M) + 1,
    as double-double arrays.  The powers are taken in K-bit fixed point from
    the one exact floor(r 2^K), with K chosen so that r^M keeps 160 bits:
    each truncation costs at most 2^-160 relatively, so a table entry is
    within (M + 2B) 2^-160 of its power of r, far below 2^-106."""
    K = 160 + math.ceil(-M * float(mpmath.log(r, 2)))
    B, small, big = power_tables(int(mpmath.ldexp(r, K)), 1 << K,
                                 lambda a, b: a * b >> K, M)
    return B, _dd_table(small, K), _dd_table(big, K)


def _dd_buckets(curve: Curve, chi: DirichletChar | None, r,
                M: int) -> tuple[list, float]:
    """B_k(r) for k = 0..ell-1 (ell = 1 for chi = None) in double-double
    arithmetic, over the n <= M with a_n chi(n) != 0, and the size
    sum_{n <= M} |(a_n / n) r^n| of their terms: _DD_ROUNDOFF times it
    bounds their total roundoff.

    a_n is an exact float and r^n = r^(qB) r^s, one double-double product
    of two anchors.  The products go in chunks of _DD_CHUNK terms; each
    chunk's share of a bucket is summed exactly and rounded once to a
    (hi, lo) pair, and the pairs once more."""
    ell = 1 if chi is None else chi.ell
    period = np.zeros(1, np.int64) if chi is None else chi.exponent_table()
    an = curve.an_table(M)
    n = np.flatnonzero(np.resize(period >= 0, M + 1) & (an != 0))
    B, (sh, sl), (bh, bl) = _dd_anchors(r, M)
    pairs = [[] for _ in range(ell)]
    size = 0.0
    for start in range(0, len(n), _DD_CHUNK):
        m = n[start:start + _DD_CHUNK]
        q, s = np.divmod(m, B)
        ph, pl = _dd_mul(bh[q], bl[q], sh[s], sl[s])
        th, tl = _dd_mul(*_dd_quotient(an[m].astype(np.float64), m), ph, pl)
        size += float(np.abs(th).sum())
        for pair, sums in zip(pairs, _bucket_sums(period[m % period.size],
                                                  ell, th, tl)):
            pair.extend(sums)
    return [mpmath.mpf(hi) + lo for hi, lo in map(_dd_sum, pairs)], size


def central_values(curve: Curve, chi: DirichletChar | None, taus: dict,
                   err=1e-15, tau_err: float = 0.0) -> dict:
    """L(E, 1, chi^j) for every j in taus, which maps j to the Gauss sum
    tau(chi^j), all from the buckets of one _dd_buckets pass; absolute error
    <= err plus roundoff.  chi = None is the trivial character, asked for as
    taus = {0: 1}.  tau_err bounds |d tau|, as DirichletChar.gauss_sums
    states it.  The pass's roundoff bound, and the Gauss sums' carried into
    L through eps, must stay under err / 100 or ConsistencyError is
    raised."""
    if curve.conductor is None or curve.root_number is None:
        raise ValueError("curve needs conductor and root number attached")
    N, w = curve.conductor, curve.root_number
    f = 1 if chi is None else chi.conductor
    if gcd(f, N) != 1:
        raise ValueError(f"twist conductor {f} shares a factor with the level {N}")
    M = series_terms(curve, f, err)
    ell, k_n = (1, 0) if chi is None else (chi.ell, chi.value_exponent(N))
    B, size = _dd_buckets(curve, chi, mpmath.exp(-_decay(curve, f)), M)
    # |tau| = sqrt(f), so |d eps| <= 2 |d tau| / sqrt(f) scales the second
    # series; |zeta| = |eps| = 1, so the buckets' roundoff moves each series
    # by at most _DD_ROUNDOFF * size
    for what, bound in (
            ("Gauss-sum", 2 * tau_err / math.sqrt(f) * size),
            ("double-double", 2 * _DD_ROUNDOFF * size)):
        if bound > err / 100:
            raise ConsistencyError(
                f"{what} roundoff bound {bound:.3g} exceeds "
                f"err / 100 = {float(err) / 100:.3g}")
    zeta = _roots_of_unity(ell, mpmath.mp.prec)
    out = {}
    for j, tau in taus.items():
        eps = w * zeta[j * k_n % ell] * tau * tau / f
        out[j] = (mpmath.fsum(zeta[j * k % ell] * b for k, b in enumerate(B))
                  + eps * mpmath.fsum(zeta[-j * k % ell] * b
                                      for k, b in enumerate(B)))
    return out


def central_value(curve: Curve, chi: DirichletChar | None = None, err=1e-15):
    """L(E, 1, chi) at the current mpmath precision, absolute error <= err
    plus roundoff.  chi = None gives the untwisted central value."""
    if chi is None:
        return central_values(curve, None, {0: 1}, err)[0]
    taus, tau_err = chi.gauss_sums()
    return central_values(curve, chi, {1: taus[1]}, err, tau_err)[1]


def served_orbits(level: int, ell: int,
                  bound: int) -> tuple[list[DirichletChar], list[int]]:
    """The orbit representatives of conductor <= bound whose twists the
    series serve, those prime to the level, in (conductor, exponent-vector)
    order, and the admissible conductors skipped for sharing a factor with
    the level."""
    orbits: list[DirichletChar] = []
    skipped: list[int] = []
    for f in admissible_conductors(ell, bound):
        if gcd(f, level) == 1:
            orbits.extend(galois_orbits(f, ell))
        else:
            skipped.append(f)
    return orbits, skipped


def hecke_factor(curve: Curve, f: int, ell: int) -> int:
    """Exact multiplier turning L0 into the trivial-component sum A_0(f)."""
    out = 1
    for p in conductor_primes(f, ell):
        d = curve.delta_unit(p)
        ap = curve.ap(p)
        out *= (ap - 1) * (ap - d) - d * ell if p == ell else ap - 1 - d
    return out


@dataclass(frozen=True)
class TwistRows:
    """Unscaled lattice rows 2 f L(chi^j) / (Omega tau(chi^j)) of an orbit,
    the raw central value of its representative and their tail bound."""

    rows: dict
    l_value: complex
    l_err: float


def _twist_rows(curve: Curve, chi: DirichletChar) -> TwistRows:
    """Rows of every conjugate twist at the current precision, from one
    double-double series pass and one DirichletChar.gauss_sums pass."""
    f = chi.conductor
    omega = curve.real_period()
    err_l = _rows_err(curve, f)
    taus, tau_err = chi.gauss_sums()
    values = central_values(curve, chi, taus, err=err_l, tau_err=tau_err)
    rows = {j: 2 * f * values[j] / (omega * taus[j]) for j in taus}
    return TwistRows(rows, complex(values[1]), err_l)


def _series_residual(rows: dict, sums: tuple[int, ...],
                     scale: Fraction) -> float:
    """max_t |S^num_t - S_t|, S^num_t the inverse finite Fourier transform
    of the rows at scale, seeded at j = 0 by the exact total sum(sums).
    Only its comparison with _S_TOL is read, so complex floats serve."""
    ell = len(sums)
    inv_scale = scale.denominator / scale.numerator
    zeta = [cmath.exp(2j * cmath.pi * k / ell) for k in range(ell)]
    return max(abs((sum(sums) + inv_scale * sum(
        zeta[j * t % ell] * complex(rows[j]) for j in range(1, ell))) / ell - s)
        for t, s in enumerate(sums))


def vanishing_decision(chi: DirichletChar, sums: tuple[int, ...],
                       value: complex, bound: float) -> str:
    """vanishes or nonzero.  Vanishing is an exact statement (constant coset
    sums); an exactly nonzero part whose value does not clear its error
    bound by a factor of 10 raises ConsistencyError."""
    if len(set(sums)) == 1:
        return "vanishes"
    if abs(value) > 10 * bound:
        return "nonzero"
    raise ConsistencyError(f"exact part of {chi.label()} is nonzero "
                           f"but |L| is within noise")


@dataclass(frozen=True)
class TwistRecord:
    """One checked and decided character orbit: its exact coset sums, which
    total the trivial component A_0, the worst miss of the series' sums
    against them, and the representative's central value and tail bound."""

    curve_label: str
    chi: DirichletChar          # canonical orbit representative
    sums: tuple[int, ...]       # S_t = r M_t for t = 0..ell-1
    max_residual: float         # worst |S^num_t - S_t|, an internal health stat
    L_value: complex
    error_bound: float
    precision_used: int
    decision: str               # vanishes | nonzero

    def lalg_mod_ell(self) -> int:
        """Algebraic part reduced at the prime above ell (zeta -> 1)."""
        return sum(self.sums) % self.chi.ell

    def as_dict(self) -> dict:
        return {
            "curve": self.curve_label,
            "character": self.chi.label(),
            "L_value": [self.L_value.real, self.L_value.imag],
            "error_bound": self.error_bound,
            "coset_sums": list(self.sums),
            "decision": self.decision,
            "precision_digits": self.precision_used,
        }


@dataclass(frozen=True)
class CongruenceResult:
    chi: DirichletChar | None    # None = the trivial character
    psi: DirichletChar
    lhs: int                 # L^alg(chi psi) mod ell
    factor: int              # exact Euler-type multiplier mod ell
    rhs: int                 # factor * L^alg(chi) mod ell
    holds: bool

    def as_dict(self) -> dict:
        return {
            "chi": "1" if self.chi is None else self.chi.label(),
            "psi": self.psi.label(),
            "lhs_mod_ell": self.lhs,
            "factor_mod_ell": self.factor,
            "rhs_mod_ell": self.rhs,
            "holds": self.holds,
        }


@dataclass(frozen=True)
class NonvanishingResult:
    hypothesis_ok: bool      # L0 must be a unit mod ell for the method to bite
    l0_mod_ell: int
    bound: int
    primes: tuple[int, ...]
    n_residue_primes: int    # primes p <= bound with p = 1 mod ell

    @property
    def density(self) -> float:
        """Fraction of the p = 1 mod ell primes that the criterion keeps."""
        if self.n_residue_primes == 0:
            return 0.0
        return len(self.primes) / self.n_residue_primes

    def as_dict(self) -> dict:
        return {
            "hypothesis_ok": self.hypothesis_ok,
            "trivial_algebraic_part_mod_ell": self.l0_mod_ell,
            "bound": self.bound,
            "primes": list(self.primes),
            "count": len(self.primes),
            "residue_class_count": self.n_residue_primes,
            "density": self.density,
        }


class CalibratedCurve:
    """A curve with a frozen period scale: every order-ell twist of it can
    be pinned down exactly."""

    def __init__(self, curve: Curve, ell: int, scale: Fraction, lalg0: int,
                 r: Fraction, base_dps: int = WORKING_DPS):
        self.curve = curve
        self.ell = ell
        self.scale = scale
        self.lalg0 = lalg0
        self.r = r                      # S_t = r M_t on every orbit
        self.base_dps = base_dps
        # the checked record of each canonical chi asked for; calibrate
        # seeds it with its probe orbits
        self._records: dict[DirichletChar, TwistRecord] = {}

    def __repr__(self):
        return (f"CalibratedCurve({self.curve!r}, ell={self.ell}, "
                f"scale={self.scale}, L0={self.lalg0}, r={self.r})")

    @property
    def label(self) -> str:
        return self.curve.label or ",".join(str(a) for a in self.curve.a_invariants)

    def trivial_coset_sum(self, f: int) -> int:
        """A_0(f), exactly, by the multiplicative recursion."""
        return self.lalg0 * hecke_factor(self.curve, f, self.ell)

    def _record(self, chi: DirichletChar,
                rows: TwistRows | None = None) -> TwistRecord:
        """Check and decide the canonical orbit chi, exact side first:
        S_t = r M_t must be integers that total A_0; only then do its series
        rows (one series pass, or a probe's rows from calibrate) have to
        give each S_t within _S_TOL, and vanishing_decision its decision."""
        a0 = self.trivial_coset_sum(chi.conductor)
        exact = [self.r * m for m in self.curve.symbols.orbit_sums(chi)]
        shown = f"r M_t = ({', '.join(map(str, exact))}) of {chi.label()}"
        if any(s.denominator != 1 for s in exact):
            raise ConsistencyError(f"coset sums {shown} are not integers")
        if sum(exact) != a0:
            raise ConsistencyError(
                f"coset sums {shown} total {sum(exact)} but the exact "
                f"recursion gives {a0}")
        sums = tuple(int(s) for s in exact)
        if rows is None:
            with mpmath.workdps(self.base_dps):
                rows = _twist_rows(self.curve, chi)
        worst = _series_residual(rows.rows, sums, self.scale)
        if worst > _S_TOL:
            raise ConsistencyError(
                f"series coset sums of {chi.label()} differ from {shown} "
                f"by {worst:.3g}")
        decision = vanishing_decision(chi, sums, rows.l_value, rows.l_err)
        return TwistRecord(self.label, chi, sums, worst, rows.l_value,
                           rows.l_err, self.base_dps, decision)

    def coset_sums(self, chi: DirichletChar) -> TwistRecord:
        """The decided record of the orbit of chi, built once by _record."""
        chi = chi.canonical()
        if chi not in self._records:
            self._records[chi] = self._record(chi)
        return self._records[chi]

    def congruence_check(self, chi: DirichletChar | None,
                         psi: DirichletChar) -> CongruenceResult:
        """Check L^alg(chi psi) = (exact Euler-type factor) * L^alg(chi) at
        the prime above ell, chi = None meaning the trivial character.  The
        two sides come from independent computations at different conductors."""
        if chi is None:
            lhs = self.coset_sums(psi).lalg_mod_ell()
            base = self.lalg0 % self.ell
        else:
            if gcd(chi.conductor, psi.conductor) != 1:
                raise ValueError("congruence needs coprime twist conductors")
            lhs = self.coset_sums(chi * psi).lalg_mod_ell()
            base = self.coset_sums(chi).lalg_mod_ell()
            chi = chi.canonical()
        fac = hecke_factor(self.curve, psi.conductor, self.ell) % self.ell
        rhs = fac * base % self.ell
        return CongruenceResult(chi, psi.canonical(), lhs, fac, rhs, lhs == rhs)

    def nonvanishing_prime_set(self, bound: int) -> NonvanishingResult:
        """Primes p <= bound, p = 1 mod ell, prime to the level, at which
        every order-ell character of conductor p twists to a nonvanishing
        central value.

        Contentful only when the untwisted algebraic part is a unit mod ell:
        then a Hecke factor a_p - 2 that is a unit mod ell forces each
        twisted part to be a unit too.  The curve's a_n table is reserved
        to the bound first, so every a_p is read from it."""
        residue = [p for p in primes_up_to(bound) if p % self.ell == 1]
        l0 = self.lalg0 % self.ell
        if l0 == 0:
            return NonvanishingResult(False, 0, bound, (), len(residue))
        self.curve.an_table(bound)
        ps = tuple(p for p in residue
                   if self.curve.conductor % p != 0
                   and hecke_factor(self.curve, p, self.ell) % self.ell != 0)
        return NonvanishingResult(True, l0, bound, ps, len(residue))


def calibrate(curve: Curve, ell: int, dps: int = WORKING_DPS,
              reach: int = 1) -> CalibratedCurve:
    """Freeze the period scale c and the symbol ratio r for (curve, ell).

    The first _PROBE_ORBITS character orbits prime to the level give c r,
    read off the probe row whose exact transform T_j = sum_t zeta^(-jt) M_t
    is largest.  With g the gcd of phi((1:0)) and every probe M_t, c is the
    first of SCALES (the coarsest usable lattice) for which c r g / c is an
    integer n; then r = n / g and L0 = r phi((1:0)).  The untwisted series
    must give L0 at scale c within _S_TOL, and every probe must pass the
    checks of CalibratedCurve._record on the rows computed here.  The
    probe window starts at _PROBE_BOUND and doubles until it holds them.

    reach is the largest twist conductor the caller will decide.  The
    curve's a_n table is reserved up front for it and for every probe, so
    that all its point counts come in one batch.  The calibration owns the
    curve and its symbols: dropping it frees both and the table.  dps is
    the mpmath precision of the calibration and of each orbit it decides.
    """
    bound, reps = _PROBE_BOUND, []
    while len(reps) < _PROBE_ORBITS:
        reps = served_orbits(curve.conductor, ell, bound)[0][:_PROBE_ORBITS]
        bound *= 2
    with mpmath.workdps(dps):
        curve.an_table(series_terms(
            curve, max(reach, *(rep.conductor for rep in reps))))
        omega = curve.real_period()
        l1 = central_value(curve, None, err=1e-10 * float(omega))
        base0 = 2 * l1.real / omega
        try:
            symbols = curve.symbols
        except ArithmeticError as exc:
            raise CalibrationError(f"no plus eigen-functional: {exc}") from exc
        try:
            probes = {rep: _twist_rows(curve, rep) for rep in reps}
        except ConsistencyError as exc:
            raise CalibrationError(
                f"probe series fail their check: {exc}") from exc
        sums = {rep: symbols.orbit_sums(rep) for rep in reps}
        g = gcd(symbols(1, 0), *(m for M in sums.values() for m in M))
        zeta = _roots_of_unity(ell, mpmath.mp.prec)
        T, row = max(((mpmath.fsum(zeta[-j * t % ell] * m
                                   for t, m in enumerate(M)),
                       probes[rep].rows[j])
                      for rep, M in sums.items() for j in range(1, ell)),
                     key=lambda pair: abs(pair[0]))
        if abs(T) < 0.5:
            raise CalibrationError("every probe's plus modular symbols are "
                                   "constant: no row gives c r")
        # T / g is a nonzero algebraic integer and T the largest of its
        # conjugates, so |T| >= g and c r g / c is as accurate as a row
        crg = (row / T).real * g
    failures = []
    for c in SCALES:
        try:
            n = recognize_integer(crg * c.denominator / c.numerator,
                                  tol=_S_TOL, err=_S_ERR)
            break
        except RecognitionError as exc:
            failures.append(f"{c}: {exc}")
    else:
        raise CalibrationError(
            f"no period scale fits ({'; '.join(failures[:3])})")
    if n == 0:
        # r = 0 would make every orbit vanish
        raise CalibrationError(f"probe rows vanish (c r g = {float(crg):.3g}) "
                               f"where their plus modular symbols do not")
    r = Fraction(n, g)
    l0 = int(r * symbols(1, 0))
    untwisted = base0 * c.denominator / c.numerator
    if abs(untwisted - l0) > _S_TOL:
        raise CalibrationError(
            f"untwisted part {float(untwisted):.6g} at scale {c} is not "
            f"L0 = r phi((1:0)) = {l0} of the plus modular symbols, r = {r}")
    cal = CalibratedCurve(curve, ell, c, l0, r, base_dps=dps)
    for rep in reps:
        try:
            cal._records[rep] = cal._record(rep, probes[rep])
        except ConsistencyError as exc:
            raise CalibrationError(f"probe {rep.label()} fails its check "
                                   f"against the plus modular symbols: "
                                   f"{exc}") from exc
    return cal
