"""Census orchestration over twist families.

Everything here is glue: curve configuration files, the order-ell vanishing
census over character orbits with deterministic persistence and resume, the
congruence sweep, the conductor-37 slice-family survey, and the torsion
pencil reports.  The arithmetic lives in the other modules; this one only
schedules it, journals it, and refuses to continue when a result contradicts
what the theory guarantees.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import ClassVar

from .cubicfield import CubicField
from .dirichlet import DirichletChar
from .elliptic import Curve
from .kummer import (CensusFieldRow, FamilyFiber, _e37b_pair, census_37b,
                     fiber_search, torsion_base_curve, torsion_family)
from .lvalue import (WORKING_DPS, CalibratedCurve, CongruenceResult,
                     calibrate, served_orbits)
from .modsym import MAX_LEVEL
from .numcore import TheoryViolation


class ConfigError(Exception):
    """A configuration file or parameter set that cannot be run."""


# ---------------------------------------------------------------------------
# curve configuration files

_CONFIG_KEYS = ("label", "a_invariants", "conductor", "root_number")


@dataclass(frozen=True)
class CurveConfig:
    """A curve as named in a flat ``key = value`` configuration file.

    The conductor and root number are inputs, not derived quantities, so a
    config is only trusted after validated_curve() has solved its curve's
    plus modular symbols (Curve.symbols) at the declared conductor and
    found the declared root number to be minus the Fricke sign on them."""

    label: str
    a_invariants: tuple[Fraction, Fraction, Fraction, Fraction, Fraction]
    conductor: int
    root_number: int
    # no key sets it; the benchmark's set-up call reads it
    precision_digits: ClassVar[int] = WORKING_DPS

    def __post_init__(self):
        if self.conductor > MAX_LEVEL:
            raise ConfigError(
                f"conductor {self.conductor} is above MAX_LEVEL = {MAX_LEVEL}, "
                f"the largest level the dense modular-symbol solver holds")
        try:
            self.curve()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def curve(self) -> Curve:
        return Curve(self.a_invariants, label=self.label,
                     conductor=self.conductor, root_number=self.root_number)

    def validated_curve(self) -> Curve:
        """The curve, after checking the declared root number exactly
        against PlusSymbols.root_number.  Symbols that do not solve at the
        declared conductor are a ConfigError; a failed point count is not.
        The curve keeps its solved symbols, so calibrating it solves none."""
        curve = self.curve()
        where = f"{self.label} at conductor {self.conductor}"
        try:
            root_number = curve.symbols.root_number()
        except ArithmeticError as exc:
            raise ConfigError(f"no plus modular symbols for {where}: {exc}") \
                from exc
        if root_number != self.root_number:
            raise ConfigError(f"root_number {self.root_number} for {where} is "
                              f"inconsistent: its symbols give {root_number}")
        return curve

    @classmethod
    def from_text(cls, text: str) -> "CurveConfig":
        seen: dict[str, str] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key or not value:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in seen:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            seen[key] = value
        missing = [k for k in _CONFIG_KEYS if k not in seen]
        if missing:
            raise ConfigError(f"missing keys: {', '.join(missing)}")
        try:
            ai = tuple(Fraction(part.strip())
                       for part in seen["a_invariants"].split(","))
            conductor = int(seen["conductor"])
            root_number = int(seen["root_number"])
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad value: {exc}") from exc
        if len(ai) != 5:
            raise ConfigError("a_invariants needs exactly 5 entries")
        return cls(seen["label"], ai, conductor, root_number)

    @classmethod
    def from_file(cls, path) -> "CurveConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        return cls.from_text(text)


# ---------------------------------------------------------------------------
# the vanishing census

@dataclass(frozen=True)
class CensusRow:
    """One character orbit's verdict.  Timing, curve and order are journal
    data only; the emitted CSV must be byte-identical across worker counts
    and resumes, so it never includes them."""

    conductor: int
    character: str
    decision: str                    # vanishes | nonzero | undecided
    L_value: complex | None
    error_bound: float | None
    coset_sums: tuple[int, ...] | None
    elapsed: float = 0.0
    error: str | None = None
    alarm: bool = False
    curve: str | None = None         # curve label
    ell: int | None = None           # character order
    fingerprint: str | None = None   # what decided it: _fingerprint

    @property
    def sort_key(self) -> tuple:
        return (self.conductor, self.character)

    def csv_line(self) -> str:
        if self.L_value is None:
            value = ["", ""]
        else:
            value = [repr(self.L_value.real), repr(self.L_value.imag)]
        err = "" if self.error_bound is None else f"{self.error_bound:.3e}"
        svec = "" if self.coset_sums is None else \
            "|".join(str(s) for s in self.coset_sums)
        return ", ".join([str(self.conductor), self.character, self.decision,
                          value[0], value[1], err, svec])

    def to_dict(self) -> dict:
        return {
            "conductor": self.conductor,
            "character": self.character,
            "decision": self.decision,
            "L_value": None if self.L_value is None
            else [self.L_value.real, self.L_value.imag],
            "error_bound": self.error_bound,
            "coset_sums": None if self.coset_sums is None
            else list(self.coset_sums),
            "elapsed": self.elapsed,
            "error": self.error,
            "alarm": self.alarm,
            "curve": self.curve,
            "ell": self.ell,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CensusRow":
        """The row to_dict wrote; ValueError naming the misshapen fields, or
        KeyError, on other shapes.  A field that older journals lack takes
        its default, and their "rung" key is ignored."""
        if not isinstance(d, dict):
            raise ValueError("a row is a JSON object")
        conductor, character = d["conductor"], d["character"]
        decision, value = d["decision"], d.get("L_value")
        bound, sums = d.get("error_bound"), d.get("coset_sums")
        elapsed, error = d.get("elapsed", 0.0), d.get("error")
        alarm, curve, ell = d.get("alarm", False), d.get("curve"), d.get("ell")
        fingerprint = d.get("fingerprint")
        # both keys came into the journal together: a row names both or neither
        paired = (curve is None) == (ell is None)
        bad = [name for name, ok in (
            ("conductor", _numbers([conductor], int)),
            ("character", isinstance(character, str)
             and character.startswith(f"({conductor};")),
            ("decision", decision in _DECISIONS),
            ("L_value", value is None or _numbers(value) and len(value) == 2),
            ("error_bound", bound is None or _numbers([bound])),
            ("coset_sums", sums is None or _numbers(sums, int)),
            ("elapsed", _numbers([elapsed])),
            ("error", error is None or isinstance(error, str)),
            ("alarm", isinstance(alarm, bool)),
            ("curve", paired and (curve is None or isinstance(curve, str))),
            ("ell", paired and (ell is None or _numbers([ell], int))),
            ("fingerprint", fingerprint is None
             or isinstance(fingerprint, str))) if not ok]
        if bad:
            raise ValueError(f"{', '.join(bad)} has the wrong shape")
        return cls(conductor, character, decision,
                   None if value is None else complex(value[0], value[1]),
                   bound, None if sums is None else tuple(sums),
                   elapsed, error, alarm, curve, ell, fingerprint)


def _numbers(v, kind=(int, float)) -> bool:
    """v is a JSON list of numbers of the given kind."""
    return isinstance(v, list) and all(
        isinstance(x, kind) and not isinstance(x, bool) for x in v)


_DECISIONS = ("vanishes", "nonzero", "undecided")

CSV_HEADER = "conductor, character, decision, L_re, L_im, error_bound, coset_sums"


@dataclass(frozen=True)
class CensusSummary:
    curve_label: str
    ell: int
    max_conductor: int
    rows: tuple[CensusRow, ...]
    skipped_conductors: tuple[int, ...]
    computed: int
    resumed: int
    total_elapsed: float

    @property
    def counts(self) -> tuple[tuple[int, int], ...]:
        """(cutoff, vanishing orbits <= cutoff) down a geometric ladder of
        cutoffs from max_conductor."""
        cutoffs = []
        c = self.max_conductor
        while c >= 7:
            cutoffs.append(c)
            c //= 2
        return tuple((c, sum(1 for r in self.rows
                             if r.conductor <= c and r.decision == "vanishes"))
                     for c in reversed(cutoffs))

    @property
    def slope(self) -> float | None:
        """Least-squares slope of the log-log growth of counts, when there
        is enough of a ladder to fit."""
        return _loglog_slope(self.counts, 3)

    @property
    def n_undecided(self) -> int:
        return sum(1 for r in self.rows if r.decision == "undecided")

    @property
    def n_alarms(self) -> int:
        return sum(1 for r in self.rows if r.alarm)

    def csv(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(r.csv_line() for r in self.rows)
        return "\n".join(lines) + "\n"

    def text(self) -> str:
        lines = [
            f"census: curve {self.curve_label}, order {self.ell}, "
            f"conductors <= {self.max_conductor}",
            f"  orbits: {len(self.rows)} "
            f"({self.computed} computed, {self.resumed} resumed), "
            f"undecided {self.n_undecided}, alarms {self.n_alarms}, "
            f"{self.total_elapsed:.1f}s",
        ]
        if self.skipped_conductors:
            shown = ", ".join(str(f) for f in self.skipped_conductors[:8])
            more = "" if len(self.skipped_conductors) <= 8 else ", ..."
            lines.append(f"  skipped (conductor shares a factor with the "
                         f"level): {shown}{more}")
        for cutoff, count in self.counts:
            lines.append(f"  vanishing orbits with conductor <= {cutoff}: {count}")
        if self.slope is not None:
            lines.append(f"  log-log growth slope: {self.slope:.4f}")
        return "\n".join(lines)


def _fingerprint(cal: CalibratedCurve) -> str:
    """What decides every orbit of a calibration: the model's a-invariants,
    its declared conductor and root number, and the calibrated scale c and
    ratio r.  Two models may share a label; they never share this."""
    curve = cal.curve
    return (f"{','.join(map(str, curve.a_invariants))}; N={curve.conductor}; "
            f"w={curve.root_number}; c={cal.scale}; r={cal.r}")


def _census_task(cal: CalibratedCurve, chi: DirichletChar) -> CensusRow:
    """Decide one orbit.  Pure function of its arguments, safe to run in any
    process; failures become undecided rows, never exceptions, so a single
    bad orbit cannot abort a sweep."""
    start = time.perf_counter()
    run = {"curve": cal.label, "ell": cal.ell, "fingerprint": _fingerprint(cal)}
    try:
        record = cal.coset_sums(chi)
        row = CensusRow(chi.conductor, chi.label(), record.decision,
                        record.L_value, record.error_bound, record.sums,
                        time.perf_counter() - start, **run)
    except Exception as exc:                      # noqa: BLE001 - journal it
        row = CensusRow(chi.conductor, chi.label(), "undecided", None, None,
                        None, time.perf_counter() - start,
                        error=f"{type(exc).__name__}: {exc}",
                        alarm=isinstance(exc, TheoryViolation), **run)
    return row


# the parent's calibration, handed to each pool worker once at start-up so
# that its coefficient tables and orbit records are shared by all its tasks;
# its curve's a_n table already reaches every pending orbit, so no worker
# counts points
_worker_cal: CalibratedCurve | None = None


def _init_worker(cal: CalibratedCurve) -> None:
    global _worker_cal
    _worker_cal = cal


def _worker_task(chi: DirichletChar) -> CensusRow:
    return _census_task(_worker_cal, chi)


def _read_journal(path: Path
                  ) -> tuple[dict[str, CensusRow], tuple | None, str | None]:
    """Rows already decided in an append-only journal, the one (curve,
    order) they name, None in journals that predate both keys, and the one
    fingerprint they carry, None in journals that predate it.  A torn last
    line is ignored; any other line that is not a well-formed row raises
    ConfigError naming it, and so do rows of two runs or of two
    fingerprints."""
    done: dict[str, CensusRow] = {}
    if not path.exists():
        return done, None, None
    for lineno, line in enumerate(path.read_bytes().split(b"\n")[:-1], 1):
        if not line.strip():
            continue
        try:
            row = CensusRow.from_dict(json.loads(line))
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"journal {path} line {lineno} is not a census "
                              f"row: {exc}") from exc
        done[row.character] = row
    runs = {(r.curve, r.ell) for r in done.values()} - {(None, None)}
    if len(runs) > 1:
        named = "; ".join(f"curve {c}, order {e}" for c, e in sorted(runs, key=str))
        raise ConfigError(f"journal {path} mixes the rows of {named}")
    prints = {r.fingerprint for r in done.values()} - {None}
    if len(prints) > 1:
        named = "; ".join(f"[{p}]" for p in sorted(prints))
        raise ConfigError(f"journal {path} mixes the rows of {named}")
    return done, (runs.pop() if runs else None), \
        (prints.pop() if prints else None)


def _loglog_slope(counts, min_points: int) -> float | None:
    """Least-squares slope of log(count) against log(cutoff) over the
    nonzero counts, or None with fewer than min_points of them."""
    points = [(math.log(c), math.log(n)) for c, n in counts if n > 0]
    if len(points) < min_points:
        return None
    xs, ys = zip(*points)
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    denom = sum((x - mx) ** 2 for x in xs)
    if denom == 0:
        return None
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom


def run_census(config: CurveConfig, ell: int, max_conductor: int,
               workers: int = 1, out=None, resume: bool = False) -> CensusSummary:
    """Decide every admissible character orbit with conductor up to the
    bound.  Conductors sharing a factor with the level are counted as
    skipped, not silently dropped.  With an output path the run journals
    each orbit as it finishes and the final CSV is regenerated, sorted, so
    the emitted bytes are independent of worker count and of how many times
    the run was interrupted and resumed.  A resumed run reuses only its own
    orbits' journal rows and refuses rows of another curve or order, or of
    another model or calibration (_fingerprint); rows that predate the
    fingerprint resume on their label.  At most one worker process is
    started per pending orbit and per core."""
    if resume and out is None:
        raise ConfigError("resume needs an output path to find the journal")
    out_path = None if out is None else Path(out)
    journal = None if out_path is None else out_path.with_suffix(
        out_path.suffix + ".log")
    if journal is not None and journal.is_dir():
        raise ConfigError(f"the journal path {journal} is a directory")
    curve = config.validated_curve()
    orbits, skipped = served_orbits(config.conductor, ell, max_conductor)
    done: dict[str, CensusRow] = {}
    run = fingerprint = None
    if resume:
        done, run, fingerprint = _read_journal(journal)
        labels = {chi.label() for chi in orbits}
        done = {k: row for k, row in done.items() if k in labels}
    pending = [chi for chi in orbits if chi.label() not in done]

    # fail fast before any journal is touched: the calibration, and every
    # point count that the pending orbits' series need, come first
    cal = calibrate(curve, ell,
                    reach=max((chi.conductor for chi in pending), default=1))
    if run not in (None, (cal.label, ell)):
        raise ConfigError(f"journal {journal} holds the rows of curve "
                          f"{run[0]}, order {run[1]}")
    if fingerprint not in (None, _fingerprint(cal)):
        raise ConfigError(f"journal {journal} holds the rows of "
                          f"[{fingerprint}], not of [{_fingerprint(cal)}]")
    if resume and journal.exists():
        # cut a torn last line, so appended rows start a line of their own
        # instead of extending it
        end = journal.read_bytes().rfind(b"\n") + 1
        with journal.open("r+b") as fh:
            fh.truncate(end)
    elif journal is not None and not resume:
        journal.write_text("")

    start = time.perf_counter()
    fresh: list[CensusRow] = []

    def _log(row: CensusRow):
        fresh.append(row)
        if journal is not None:
            with journal.open("a") as fh:
                fh.write(json.dumps(row.to_dict()) + "\n")

    # the pool starts every worker up front, so never more than there are
    # orbits to run or cores to run them on
    workers = min(workers, len(pending), os.cpu_count() or 1)
    if workers <= 1:
        for chi in pending:
            _log(_census_task(cal, chi))
    else:
        # imported here, so that serial runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        # orbit list is conductor-sorted, so the pool's queue hands
        # conductors out round-robin across the worker processes; each row
        # is journaled as it completes, and a lost worker fails the rest
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_init_worker,
                                 initargs=(cal,)) as pool:
            futures = {pool.submit(_worker_task, chi): chi for chi in pending}
            for fut in as_completed(futures):
                if not isinstance(fut.exception(), BrokenProcessPool):
                    _log(fut.result())
        left = [chi.label() for fut, chi in futures.items() if fut.exception()]
        if left:
            more = "" if len(left) <= 8 else ", ..."
            raise ConfigError(f"a census worker was lost with {len(left)} "
                              f"orbits left ({', '.join(left[:8])}{more}); "
                              f"rerun with --resume to finish them")

    rows = sorted(list(done.values()) + fresh, key=lambda r: r.sort_key)
    summary = CensusSummary(config.label, ell, max_conductor, tuple(rows),
                            tuple(skipped), len(fresh), len(done),
                            time.perf_counter() - start)
    if out_path is not None:
        out_path.write_text(summary.csv())
    return summary


# ---------------------------------------------------------------------------
# the congruence sweep

@dataclass(frozen=True)
class CongruenceReport:
    curve_label: str
    ell: int
    bound: int
    results: tuple[CongruenceResult, ...]

    @property
    def holds_all(self) -> bool:
        return all(r.holds for r in self.results)

    @property
    def failures(self) -> tuple[CongruenceResult, ...]:
        return tuple(r for r in self.results if not r.holds)

    def text(self) -> str:
        lines = [f"congruence sweep: curve {self.curve_label}, "
                 f"order {self.ell}, conductor products <= {self.bound}",
                 f"  pairs checked: {len(self.results)}, "
                 f"failures: {len(self.failures)}"]
        for r in self.failures:
            # a failure is a finding; dump everything that went into it
            lines.append(f"  FAIL {json.dumps(r.as_dict())}")
        return "\n".join(lines)


def run_congruence_sweep(config: CurveConfig, ell: int,
                         bound: int) -> CongruenceReport:
    """Check the residue relation between the algebraic parts at chi and at
    chi psi for every admissible pair with conductor product up to the
    bound, the trivial chi included.  psi ranges over single-prime
    conductors only, which is where its multiplier is defined."""
    orbits = served_orbits(config.conductor, ell, bound)[0]
    psis = [psi for psi in orbits if len(psi.components) == 1]
    pairs, reach = [], 1
    for chi in [None, *orbits]:
        fc = 1 if chi is None else chi.conductor
        for psi in psis:
            if fc * psi.conductor <= bound and gcd(fc, psi.conductor) == 1:
                pairs.append((chi, psi))
                reach = max(reach, fc * psi.conductor)
    cal = calibrate(config.validated_curve(), ell, reach=reach)
    results = [cal.congruence_check(chi, psi) for chi, psi in pairs]
    return CongruenceReport(config.label, ell, bound, tuple(results))


# ---------------------------------------------------------------------------
# the conductor-37 slice family

E37B_CONFIG = CurveConfig("37b", (Fraction(0), Fraction(1), Fraction(1),
                                  Fraction(-3), Fraction(1)), 37, 1)

# largest conductor whose twist run_e37b samples: the series grow with it
_SAMPLE_CAP = 2000
# how many of the smallest conductors run_e37b samples
_SAMPLE_SIZE = 10


@dataclass(frozen=True)
class E37bSample:
    conductor: int
    a: int
    b: int
    character: str
    decision: str


@dataclass(frozen=True)
class E37bReport:
    max_conductor: int
    height_bound: int
    n_rows: int
    n_conductors: int
    counts: tuple[tuple[int, int], ...]   # (cutoff, distinct conductors)
    slope: float | None
    samples: tuple[E37bSample, ...]

    def text(self) -> str:
        lines = [f"slice-family survey: conductors <= {self.max_conductor}, "
                 f"parameter height <= {self.height_bound}",
                 f"  parameter pairs: {self.n_rows}, distinct conductors "
                 f"(squarefree rows): {self.n_conductors}"]
        for cutoff, count in self.counts:
            lines.append(f"  distinct conductors <= {cutoff}: {count}")
        if self.slope is not None:
            lines.append(f"  log-log growth slope: {self.slope:.4f}")
        for s in self.samples:
            lines.append(f"  sampled field (a={s.a}, b={s.b}) conductor "
                         f"{s.conductor}: character {s.character} -> {s.decision}")
        return "\n".join(lines)


def default_height_bound(max_conductor: int) -> int:
    """Parameter height past which the product of the two quadratic forms,
    at least 3.7 height^4, passes the bound.  A pair above it can still give
    a conductor below the bound, which takes 2, 3 and 37 only to the powers
    of the ramification rule: at 10^4 this height, 9, finds 16 conductors
    and height 120 finds 18."""
    return max(8, math.ceil((max_conductor / 3.7) ** 0.25) + 1)


def run_e37b(max_conductor: int,
             height_bound: int | None = None) -> E37bReport:
    """Count the distinct cubic-field conductors up to max_conductor that
    the slice family of the conductor-37 curve constructs from parameter
    pairs of height at most height_bound, and verify on a sample that the
    matched twist orbits really vanish.  The sweep and every rule about its
    rows (both squarefree rules, the distinctness check) live in
    kummer.census_37b; this only counts and samples.  The sample takes the
    smallest _SAMPLE_SIZE conductors up to _SAMPLE_CAP.  Each sampled
    vanishing is a theorem, so a failed sample is a hard error, not a
    census row."""
    if height_bound is None:
        height_bound = default_height_bound(max_conductor)
    census = census_37b(max_conductor, height_bound)

    cutoffs = [10 ** k for k in range(4, 8) if 10 ** k <= max_conductor]
    if not cutoffs:
        cutoffs = [max_conductor]
    counts = [(c, sum(1 for f in census.conductors if f <= c))
              for c in cutoffs]
    slope = _loglog_slope(counts, 2)

    # each conductor up to _SAMPLE_CAP -> its first row
    first_rows: dict[int, CensusFieldRow] = {}
    for r in census.rows:
        if r.conductor <= _SAMPLE_CAP:
            first_rows.setdefault(r.conductor, r)
    sampled = sorted(first_rows)[:_SAMPLE_SIZE]
    cal = calibrate(E37B_CONFIG.validated_curve(), 3,
                    reach=max(sampled, default=1))
    samples: list[E37bSample] = []
    for f in sampled:
        row = first_rows[f]
        fiber = _e37b_pair(row.a, row.b)
        chi = fiber.field.matching_character()
        record = cal.coset_sums(chi)
        samples.append(E37bSample(f, row.a, row.b, chi.label(),
                                  record.decision))
        if record.decision != "vanishes":
            raise TheoryViolation(
                f"twist by {chi.label()} matched to the slice field of "
                f"conductor {f} came back {record.decision}; its vanishing "
                f"is forced by the slice point")
    return E37bReport(max_conductor, height_bound, len(census.rows),
                      len(census.conductors), tuple(counts), slope,
                      tuple(samples))


# ---------------------------------------------------------------------------
# torsion pencil reports

@dataclass(frozen=True)
class FamilyEntry:
    parameter: Fraction
    excluded: str | None                 # reason, when the parameter is
    fiber: FamilyFiber | None
    field_cubics: tuple[tuple, ...]      # (u, cubic coefficients, conductor)

    def text(self) -> str:
        if self.excluded is not None:
            return f"  lambda = {self.parameter}: excluded ({self.excluded})"
        f = self.fiber
        status = "nodal, certified through the node" if f.nodal else \
            ("infinite order" if f.infinite_order else "NOT certified")
        point = "(" + ", ".join(str(c) for c in f.point) + ")"
        ai = "(" + ", ".join(str(a) for a in f.a_invariants) + ")"
        lines = [f"  lambda = {self.parameter}: point {point} on the fiber "
                 f"with a-invariants {ai} [{status}]"]
        for u, coeffs, conductor in self.field_cubics:
            terms = " + ".join(f"({c}) x^{k}" if k else f"({c})"
                               for k, c in reversed(list(enumerate(coeffs))))
            lines.append(f"    cyclic cubic fiber at u = {u}: {terms} = 0, "
                         f"conductor {conductor}")
        return "\n".join(lines)


@dataclass(frozen=True)
class FamilyReport:
    kind: str
    height_bound: int
    entries: tuple[FamilyEntry, ...]

    def text(self) -> str:
        lines = [f"torsion pencil {self.kind}, fiber search height <= "
                 f"{self.height_bound}"]
        lines.extend(e.text() for e in self.entries)
        return "\n".join(lines)


def run_family(kind: str, parameters, height_bound: int = 6) -> FamilyReport:
    """Report the marked pencil fiber at each parameter and search the base
    curve's slice surface over the pencil's parameter line for cyclic cubic
    fibers, building each field from the slice cubic the search classified.
    Excluded parameters are reported, not fatal."""
    if kind not in ("six-torsion", "four-two-torsion"):
        raise ValueError(f"unknown pencil kind: {kind!r}")
    entries: list[FamilyEntry] = []
    for lam in parameters:
        lam = Fraction(lam)
        try:
            fiber = torsion_family(kind, lam)
        except ValueError as exc:
            entries.append(FamilyEntry(lam, str(exc), None, ()))
            continue
        # every parameter the pencil accepts has a smooth base curve
        base = torsion_base_curve(kind, lam)
        cubics: list[tuple] = []
        seen_u: set[Fraction] = set()
        for fp in fiber_search(base, fiber.t0, height_bound):
            # the two square roots give the same fiber; keep one
            if fp.classification != "cyclic-cubic" or fp.u in seen_u:
                continue
            seen_u.add(fp.u)
            field = CubicField.from_cubic(fp.cubic)
            cubics.append((fp.u, tuple(fp.cubic.coeffs), field.conductor))
        entries.append(FamilyEntry(lam, None, fiber, tuple(cubics)))
    return FamilyReport(kind, height_bound, tuple(entries))
