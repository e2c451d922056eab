"""Benchmark of the `elltwists` command on three workloads.

Run from the root of a source checkout (the package is taken from ./src):

    python3 perfbench/run.py --workload census-ell3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --smoke

--trace 0 measures the end-to-end metrics with tracing off; --trace 1
measures the per-layer metrics of BENCHMARK.json in a separate traced run;
`--workload all` does both for every workload and also prints the metrics
that exist on one workload only.  --smoke runs the same code at tiny bounds
and checks the outputs the README documents.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Every command runs in a fresh interpreter (child.py), serially, one process
at a time: module caches inside the package would otherwise turn a second
run into cache hits.  Each pass starts with one discarded warm-up run at the
tiny bound, which also compiles the bytecode.  The seed picks each
workload's bound from a band that lies between two admissible conductors
(for the slice survey: inside one parameter height), so every seed does the
same work and the seed changes only the bound the program is given.  Every
run is checked against perfbench/reference/, written by make_reference.py.

The host is shared, and a busy neighbour slows the same code by up to 70%
for seconds to minutes, so raw wall times of one workload spread by 20-30%
between runs.  Each process therefore carries the speed probe of probe.py,
and the reported times are rescaled to the probe's reference speed:
wall_ref_s is a run's wall time times its probe factor, setup_s likewise.
The raw wall_s is printed beside them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

from tracer import layer_stats

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")
ROOT = os.getcwd()
WORK_ROOT = os.path.join(ROOT, ".bench_work")

HARD_LIMIT_S = 165     # every pass must end well within 180 s
SETUPS = 5             # set-up processes per pass; setup_s is their median
MIN_ORBITS = 100       # pooled census orbits: ten beyond the 90th percentile
TRACED_REPS = 2        # traced runs per pass; their counts must agree

CSV_HEADER = ("conductor, character, decision, L_re, L_im, error_bound, "
              "coset_sums")
_CSV_ROW = re.compile(r"^(\d+), (\(.*\)), (\w+), ([^,]*), ([^,]*), ([^,]*), "
                      r"([-0-9|]*)$")


class GateError(ValueError):
    """Output that cannot be read or does not match the reference."""


def _median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, p):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


# ---------------------------------------------------------------------------
# processes

@dataclass
class Rep:
    """One finished process, timed and measured from outside."""

    wall_s: float
    rss_mb: float
    rc: int
    stdout: str
    stderr: str
    result: dict

    @property
    def factor(self) -> float:
        """The speed probe's factor (probe.py); NaN if it took no samples."""
        return self.result.get("probe", {}).get("factor", float("nan"))

    @property
    def ref_s(self) -> float:
        """Wall time rescaled to the probe's reference speed."""
        return self.wall_s * self.factor


def spawn(args: list[str], work: str, timeout: float) -> Rep:
    """Run perfbench/child.py with args in a fresh interpreter and wait for
    it; a process still running after timeout seconds is killed."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    out_path = os.path.join(work, "stdout.txt")
    err_path = os.path.join(work, "stderr.txt")
    result_path = os.path.join(work, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--result", result_path] + args
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    result = {}
    if os.path.exists(result_path):
        with open(result_path) as fh:
            result = json.load(fh)
    return Rep(wall, usage.ru_maxrss / 1024, proc.returncode, stdout, stderr,
               result)


# ---------------------------------------------------------------------------
# workloads and their correctness gates

@dataclass
class Outcome:
    """What the gate made of one run: operations, and whether it passed.
    A run that fails the gate counts every operation as failed."""

    ops: int
    problems: list[str] = field(default_factory=list)
    orbit_elapsed: list[float] = field(default_factory=list)
    journal_bytes: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def failed(self) -> int:
        return 0 if self.ok else self.ops


def _load_json(name: str) -> dict:
    with open(os.path.join(REFERENCE, name)) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class CsvRow:
    conductor: int
    character: str
    decision: str
    re: float | None
    im: float | None
    err: float | None
    sums: str


def parse_census_csv(text: str) -> dict[str, CsvRow]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise GateError("census CSV header is missing or changed")
    rows = {}
    for line in lines[1:]:
        m = _CSV_ROW.match(line)
        if m is None:
            raise GateError(f"unreadable census CSV line {line!r}")
        f, ch, dec, re_, im, err, sums = m.groups()
        num = [float(v) if v else None for v in (re_, im, err)]
        rows[ch] = CsvRow(int(f), ch, dec, num[0], num[1], num[2], sums)
    return rows


def compare_census_rows(rows: dict[str, CsvRow],
                        ref: dict[str, CsvRow]) -> list[str]:
    """The exact columns must equal the reference; L_re and L_im must agree
    with it within the two rows' error bounds."""
    problems = []
    for ch in sorted(set(ref) - set(rows)):
        problems.append(f"orbit {ch} missing")
    for ch in sorted(set(rows) - set(ref)):
        problems.append(f"orbit {ch} not in the reference")
    for ch in sorted(set(rows) & set(ref)):
        got, want = rows[ch], ref[ch]
        for col in ("conductor", "decision", "sums"):
            if getattr(got, col) != getattr(want, col):
                problems.append(f"{ch}: {col} {getattr(got, col)!r}, "
                                f"reference {getattr(want, col)!r}")
        if want.re is None:
            continue
        if None in (got.re, got.im, got.err):
            problems.append(f"{ch}: central value missing")
            continue
        tol = got.err + want.err
        if abs(got.re - want.re) > tol or abs(got.im - want.im) > tol:
            problems.append(f"{ch}: L = {got.re}+{got.im}i is more than "
                            f"{tol:.3e} from the reference")
    return problems


class Workload:
    name: str
    curve = "curves/37b.cfg"
    ell: int
    band: tuple[int, int]      # the seed picks the bound from here
    smoke: int                 # the bound of --smoke
    warmup: list[str]          # the discarded first run of every pass
    census = False             # whether per-orbit latencies exist

    def bound(self, seed: int) -> int:
        return random.Random(seed).randint(*self.band)

    def argv(self, bound: int, work: str) -> list[str]:
        raise NotImplementedError

    def check(self, bound: int, rep: Rep, work: str) -> Outcome:
        raise NotImplementedError


class CensusEll3(Workload):
    name = "census-ell3"
    ell = 3
    band = (410, 420)
    smoke = 63
    warmup = ["census", "--curve", "curves/37b.cfg", "--max-conductor", "7"]
    census = True

    def __init__(self):
        with open(os.path.join(REFERENCE, "census_ell3.csv")) as fh:
            self.reference = parse_census_csv(fh.read())

    def argv(self, bound, work):
        out = os.path.join(work, "census.csv")
        # a run that writes nothing must not be judged on the last run's files
        for stale in (out, out + ".log"):
            if os.path.exists(stale):
                os.remove(stale)
        return ["census", "--curve", self.curve, "--ell", str(self.ell),
                "--max-conductor", str(bound), "--out", out]

    def check(self, bound, rep, work):
        ref = {ch: r for ch, r in self.reference.items()
               if r.conductor <= bound}
        out = Outcome(len(ref))
        if rep.rc != 0:
            out.problems.append(f"exit code {rep.rc}: {rep.stderr[-300:]}")
        m = re.search(r"orbits: (\d+) \(", rep.stdout)
        if m is None or int(m.group(1)) != len(ref):
            out.problems.append(f"summary reports {m and m.group(1)} orbits, "
                                f"reference {len(ref)}")
        csv_path = os.path.join(work, "census.csv")
        try:
            with open(csv_path) as fh:
                rows = parse_census_csv(fh.read())
            out.problems.extend(compare_census_rows(rows, ref))
            with open(csv_path + ".log", "rb") as fh:
                journal = fh.read()
        except (OSError, GateError) as exc:
            out.problems.append(str(exc))
            return out
        out.journal_bytes = len(journal)
        try:
            entries = [json.loads(line) for line in journal.splitlines()]
            for entry in entries:
                out.orbit_elapsed.append(float(entry["elapsed"]))
                if entry["decision"] == "undecided" or entry["alarm"]:
                    out.problems.append(f"{entry['character']}: undecided or "
                                        f"alarmed ({entry['error']})")
        except (ValueError, KeyError, TypeError) as exc:
            out.problems.append(f"unreadable journal: {exc!r}")
        if len(out.orbit_elapsed) != len(ref):
            out.problems.append(f"journal holds {len(out.orbit_elapsed)} "
                                f"rows, reference {len(ref)}")
        return out


class CongruenceEll5(Workload):
    name = "congruence-ell5"
    ell = 5
    band = (572, 600)
    smoke = 63
    warmup = ["congruence", "--curve", "curves/37b.cfg", "--ell", "5",
              "--max-conductor", "11"]

    def __init__(self):
        self.products = _load_json("congruence_ell5.json")["pair_products"]

    def argv(self, bound, work):
        return ["congruence", "--curve", self.curve, "--ell", str(self.ell),
                "--max-conductor", str(bound)]

    def check(self, bound, rep, work):
        expected = sum(1 for p in self.products if p <= bound)
        out = Outcome(expected)
        m = re.search(r"pairs checked: (\d+), failures: (\d+)", rep.stdout)
        if rep.rc != 0:
            out.problems.append(f"exit code {rep.rc}: {rep.stderr[-300:]}")
        if m is None:
            out.problems.append("no pair count in the output")
        elif (int(m.group(1)), int(m.group(2))) != (expected, 0):
            out.problems.append(f"{m.group(1)} pairs with {m.group(2)} "
                                f"failures, reference {expected} with 0")
        return out


_SAMPLE = re.compile(r"sampled field \(a=(-?\d+), b=(-?\d+)\) conductor "
                     r"(\d+): character (\(.*\)) -> (\w+)")


class SliceE37b(Workload):
    name = "slice-e37b"
    ell = 3
    band = (29_500_000, 31_400_000)
    smoke = 2000
    # the smoke bound spends 10 s on its twist samples; height 1 has two
    warmup = ["e37b", "--max-conductor", "100", "--height-bound", "1"]

    def __init__(self):
        self.entries = _load_json("e37b.json")["entries"]

    def argv(self, bound, work):
        return ["e37b", "--max-conductor", str(bound)]

    def check(self, bound, rep, work):
        entry = next((e for e in self.entries
                      if e["bounds"][0] <= bound <= e["bounds"][1]), None)
        if entry is None:
            raise GateError(f"no e37b reference covers bound {bound}")
        samples = [tuple(s) for s in entry["samples"]]
        out = Outcome(len(samples))
        if rep.rc != 0:
            out.problems.append(f"exit code {rep.rc}: {rep.stderr[-300:]}")
        conductors = entry["conductors"]
        want = {"height": entry["height_bound"], "rows": entry["n_rows"],
                "conductors": sum(1 for c in conductors if c <= bound),
                "counts": [(c, sum(1 for f in conductors if f <= c))
                           for c in entry["cutoffs"]]}
        head = re.search(r"parameter height <= (\d+)\n  parameter pairs: "
                         r"(\d+), distinct conductors \(squarefree rows\): "
                         r"(\d+)", rep.stdout)
        got = {"height": head and int(head.group(1)),
               "rows": head and int(head.group(2)),
               "conductors": head and int(head.group(3)),
               "counts": [(int(c), int(n)) for c, n in re.findall(
                   r"distinct conductors <= (\d+): (\d+)", rep.stdout)]}
        for key in want:
            if got[key] != want[key]:
                out.problems.append(f"{key}: {got[key]}, reference "
                                    f"{want[key]}")
        found = [(int(a), int(b), int(f), ch, dec)
                 for a, b, f, ch, dec in _SAMPLE.findall(rep.stdout)]
        if found != samples:
            out.problems.append(f"samples {found}, reference {samples}")
        return out


WORKLOADS = {w.name: w for w in (CensusEll3, CongruenceEll5, SliceE37b)}


# ---------------------------------------------------------------------------
# passes

@dataclass
class Pass:
    """All processes of one pass over one workload."""

    workload: Workload
    bound: int
    warmup: Rep | None = None
    setups: list[Rep] = field(default_factory=list)
    reps: list[Rep] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    traced: list[Rep] = field(default_factory=list)
    traced_outcomes: list[Outcome] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def all_outcomes(self) -> list[Outcome]:
        return self.outcomes + self.traced_outcomes

    @property
    def attempted(self) -> int:
        return sum(o.ops for o in self.all_outcomes())

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.all_outcomes())

    @property
    def correct(self) -> bool:
        return not self.problems and all(o.ok for o in self.all_outcomes())


def _run(p: Pass, bound: int, work: str, deadline: float,
         trace: bool = False) -> tuple[Rep, Outcome]:
    args = (["--trace"] if trace else []) + ["--"] + \
        p.workload.argv(bound, work)
    rep = spawn(args, work, deadline - time.perf_counter())
    _check_probe(p, rep)
    return rep, p.workload.check(bound, rep, work)


def _check_probe(p: Pass, rep: Rep) -> None:
    if rep.rc == 0 and not math.isfinite(rep.factor):
        p.problems.append("the speed probe took no samples")


def warm_up(p: Pass, work: str, deadline: float) -> None:
    """One discarded run, which also compiles the package's bytecode."""
    p.warmup = spawn(["--"] + p.workload.warmup, work,
                     deadline - time.perf_counter())
    if p.warmup.rc != 0:
        p.problems.append(f"warm-up exited {p.warmup.rc}: "
                          f"{p.warmup.stderr[-300:]}")


def end_to_end_pass(w: Workload, bound: int, seconds: float, work: str,
                    deadline: float) -> Pass:
    p = Pass(w, bound)
    warm_up(p, work, deadline)
    for _ in range(SETUPS):
        rep = spawn(["--setup", w.curve, str(w.ell)], work,
                    deadline - time.perf_counter())
        p.setups.append(rep)
        _check_probe(p, rep)
        if rep.rc != 0:
            p.problems.append(f"set-up exited {rep.rc}: {rep.stderr[-300:]}")
    start = time.perf_counter()
    while True:
        rep, outcome = _run(p, bound, work, deadline)
        p.reps.append(rep)
        p.outcomes.append(outcome)
        pooled = sum(len(o.orbit_elapsed) for o in p.outcomes)
        enough = not w.census or pooled >= MIN_ORBITS
        predicted = time.perf_counter() + _median([r.wall_s for r in p.reps])
        if predicted > deadline or (enough and predicted > start + seconds):
            return p


def traced_pass(w: Workload, bound: int, work: str, deadline: float) -> Pass:
    p = Pass(w, bound)
    warm_up(p, work, deadline)
    rep, outcome = _run(p, bound, work, deadline)
    p.reps.append(rep)
    p.outcomes.append(outcome)
    for _ in range(TRACED_REPS):
        rep, outcome = _run(p, bound, work, deadline, trace=True)
        p.traced.append(rep)
        p.traced_outcomes.append(outcome)
        if "trace" not in rep.result:
            p.problems.append(f"traced run left no spans: {rep.stderr[-300:]}")
    return p


# ---------------------------------------------------------------------------
# metrics

def _listing(values) -> str:
    return " ".join(f"{v:.3f}" for v in values)


def end_to_end_metrics(p: Pass) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, note).  Every time but wall_s and setup_raw_s
    is rescaled to the probe's reference speed by its run's factor.
    wall_s, setup_raw_s, speed_factor, census_overhead_s, the orbit
    latencies and failed_share exist beside the BENCHMARK.json metrics."""
    refs = [r.ref_s for r in p.reps]
    walls = [r.wall_s for r in p.reps]
    setups = [r.ref_s for r in p.setups]
    n = f"median of {len(walls)}"
    out = {
        "wall_ref_s": (_median(refs), "s", f"{n}: {_listing(refs)}"),
        "wall_s": (_median(walls), "s", f"{n}: {_listing(walls)}"),
        "speed_factor": (_median([r.factor for r in p.reps]), "ratio", n),
        "setup_s": (_median(setups), "s",
                    f"median of {len(setups)}: {_listing(setups)}"),
        "setup_raw_s": (_median([r.wall_s for r in p.setups]), "s",
                        f"median of {len(setups)}"),
        "peak_rss_mb": (_median([r.rss_mb for r in p.reps]), "MB", n),
        "failed_share": (p.failed / max(p.attempted, 1), "ratio",
                         f"{p.failed} of {p.attempted}"),
    }
    if p.workload.census:
        out["census_overhead_s"] = (
            _median([(r.wall_s - sum(o.orbit_elapsed)) * r.factor
                     for r, o in zip(p.reps, p.outcomes)]), "s", n)
        pooled = [1000 * e * r.factor for r, o in zip(p.reps, p.outcomes)
                  for e in o.orbit_elapsed]
        for q in (50, 90):
            value, beyond = percentile(pooled, q) if pooled else (0.0, 0)
            if beyond >= 10:
                out[f"orbit_p{q}_ms"] = (value, "ms", f"{len(pooled)} orbits")
            else:
                out[f"orbit_p{q}_ms"] = (float("nan"), "ms",
                                         f"not reported: {beyond} of "
                                         f"{len(pooled)} orbits beyond it")
    return out


def trace_metrics(dump: dict) -> dict[str, float]:
    stats = layer_stats(dump)
    out = {}
    for name, s in stats.items():
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.self_s"] = s["self_s"]
    out["lvalue.calibrate.s"] = stats["lvalue.calibrate"]["s"]
    out["elliptic.an_table.terms"] = sum(stats["elliptic.an_table"]["extras"])
    out["dirichlet.gauss_sum.terms"] = sum(
        stats["dirichlet.gauss_sum"]["extras"])
    orbits = stats["lvalue.central_value"]["extras"]
    out["lvalue.series_per_orbit"] = \
        len(orbits) / len(set(orbits)) if orbits else 0.0
    requests = stats["lvalue.CalibratedCurve.coset_sums"]["extras"]
    seen, repeats = set(), 0
    for orbit, dps, _ in requests:
        repeats += (orbit, dps) in seen
        seen.add((orbit, dps))
    out["lvalue.CalibratedCurve.coset_sums.repeat_share"] = \
        repeats / len(requests) if requests else 0.0
    out["lvalue.ladder_retries"] = sum(1 for r in requests if r[2])
    out["kummer.census_37b.pairs"] = sum(stats["kummer.census_37b"]["extras"])
    return out


def per_layer_metrics(p: Pass) -> dict[str, float]:
    traced = [r for r in p.traced if "trace" in r.result]
    if not traced:
        return {}
    runs = [trace_metrics(r.result["trace"]) for r in traced]
    out = {}
    for key in runs[0]:
        values = [r[key] for r in runs]
        if unit_of(key) == "s":
            out[key] = statistics.median(
                v * r.factor for v, r in zip(values, traced))
            continue
        # counts must repeat exactly
        if len(set(values)) != 1:
            p.problems.append(f"{key} differs between traced runs: {values}")
        out[key] = values[0]
    plain, outcome = p.reps[0], p.outcomes[0]
    out["census.orbit_elapsed_sum_s"] = \
        sum(outcome.orbit_elapsed) * plain.factor
    out["census.journal_bytes"] = outcome.journal_bytes
    out["cli.import_s"] = \
        plain.result.get("import_s", float("nan")) * plain.factor
    out["trace.overhead_share"] = \
        _median([r.ref_s for r in p.traced]) / plain.ref_s - 1
    return out


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("series_per_orbit"):
        return "series/orbit"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# provenance and the smoke check against the README

def provenance(versions: dict) -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine(),
            "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh
                     if line.startswith("model name")]
        if names:
            info["cpu"] = names[0]
    except OSError:
        pass
    info.update(versions)
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, text=True,
                                  capture_output=True).stdout.strip()
        info["git_head"] = git("rev-parse", "HEAD")
        info["git_dirty"] = bool(git("status", "--porcelain"))
    else:
        info["git_head"] = "not a git checkout"
    return info


def readme_check(work: str, deadline: float) -> list[str]:
    """The outputs the README documents for the tiny bounds, checked
    independently of perfbench/reference/."""
    problems = []
    csv = os.path.join(work, "readme.csv")
    documented = [
        (["census", "--curve", "curves/37b.cfg", "--max-conductor", "63",
          "--out", csv], "orbits: 9 (9 computed, 0 resumed), undecided 0, "
                         "alarms 0"),
        (["congruence", "--curve", "curves/37b.cfg", "--max-conductor", "63"],
         "pairs checked: 9, failures: 0"),
        (["e37b", "--max-conductor", "2000"],
         "parameter pairs: 88, distinct conductors (squarefree rows): 8"),
    ]
    for argv, line in documented:
        rep = spawn(["--"] + argv, work, deadline - time.perf_counter())
        if rep.rc != 0 or line not in rep.stdout:
            problems.append(f"README: `elltwists {' '.join(argv[:1])}` does "
                            f"not print {line!r}")
        if argv[0] == "census":
            with open(csv) as fh:
                row = parse_census_csv(fh.read()).get("(7; 7:1)")
            if row is None or (row.sums, row.decision) != ("-2|-2|-2",
                                                           "vanishes"):
                problems.append("README: orbit (7; 7:1) is not -2|-2|-2, "
                                "vanishes")
    return problems


# ---------------------------------------------------------------------------
# main

def _print_metric(name, value, unit, note=""):
    print(f"  {name:<48} {value:>14.6g} {unit:<12} {note}")


def _bindings(p: Pass) -> dict:
    for rep in p.traced:
        if "trace" in rep.result:
            return rep.result["trace"]["bindings"]
    return {}


def _versions(p: Pass) -> dict:
    for rep in p.reps + p.traced + p.setups:
        if "versions" in rep.result:
            return rep.result["versions"]
    return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny bounds, and check the README's outputs")
    args = parser.parse_args(argv)

    for needed in ("src/elltwists/cli.py", "curves/37b.cfg",
                   "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found; run from the root of an "
                  f"elltwists source checkout", file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    # a terminated benchmark still kills and reaps its child (see spawn)
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    passes = [(n, t) for n in names
              for t in ((0, 1) if args.workload == "all" else (args.trace,))]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    correct, attempted, failed, metrics = True, 0, 0, {}
    versions = {}
    try:
        if args.smoke:
            problems = readme_check(work, time.perf_counter() + HARD_LIMIT_S)
            for line in problems:
                print(f"gate: {line}")
            print(f"README check: {'pass' if not problems else 'FAIL'}")
            correct = not problems
        for name, trace in passes:
            w = WORKLOADS[name]()
            bound = w.smoke if args.smoke else w.bound(args.seed)
            deadline = time.perf_counter() + HARD_LIMIT_S
            print(f"{name} (trace {trace}): bound {bound}, seed {args.seed}",
                  flush=True)
            if trace:
                p = traced_pass(w, bound, work, deadline)
                units = {m["name"]: m["unit"] for m in spec["per_layer"]}
                values = {k: (v, units.get(k, unit_of(k)), "")
                          for k, v in per_layer_metrics(p).items()}
            else:
                p = end_to_end_pass(w, bound, args.seconds, work, deadline)
                units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
                values = end_to_end_metrics(p)
            for key in sorted(values) if trace else values:
                _print_metric(key, *values[key])
            for layer, sites in sorted(_bindings(p).items()):
                print(f"  traced {layer} at {', '.join(sites)}")
            problems = p.problems + [x for o in p.all_outcomes()
                                     for x in o.problems]
            for line in dict.fromkeys(problems):
                print(f"  gate: {line} (x{problems.count(line)})")
            print(f"  gate: {'pass' if p.correct else 'FAIL'} "
                  f"({p.attempted} operations, {p.failed} failed)",
                  flush=True)
            correct = correct and p.correct
            attempted += p.attempted
            failed += p.failed
            versions = versions or _versions(p)
            if args.workload == "all":
                metrics.update({f"{name}.{k}": {"value": v, "unit": u}
                                for k, (v, u, _) in values.items()
                                if not math.isnan(v)})
            else:
                metrics.update({k: {"value": values[k][0], "unit": u}
                                for k, u in units.items() if k in values})
        print("provenance: " + json.dumps(provenance(versions)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
