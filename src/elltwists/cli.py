"""Command-line front end.

Exit codes separate the three ways a run can end: 0 when the requested
computation completed, 1 when the configuration or arguments were unusable,
and 2 when a result contradicted something the theory proves (a consistency
alarm, a failed point count, a failed congruence, a sampled twist that
refused to vanish).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

from .census import (CensusSummary, ConfigError, CurveConfig, _read_journal,
                     run_census, run_congruence_sweep, run_e37b, run_family)
from .dirichlet import galois_orbits
from .kummer import fiber_search
from .lvalue import calibrate
from .numcore import TheoryViolation, is_prime


class _Parser(argparse.ArgumentParser):
    """argparse exits with its own codes; route usage errors through the
    config-error path instead so the exit contract stays honest."""

    def error(self, message):
        raise ConfigError(message)

    def print_help(self, file=None):
        # argparse drops a failed write; a closed stdout must reach main
        (file or sys.stdout).write(self.format_help())


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational number: {text!r}") from exc


def _odd_prime(text: str) -> int:
    if not (text.isdigit() and int(text) > 2 and is_prime(int(text))):
        raise argparse.ArgumentTypeError(f"not an odd prime: {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    if not (text.isdigit() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _out_path(text: str) -> str:
    if Path(text).is_dir() or not Path(text).parent.is_dir():
        raise argparse.ArgumentTypeError(f"cannot write a file at {text!r}")
    return text


def _load_config(args) -> CurveConfig:
    if args.curve is None:
        raise ConfigError("--curve is required for this command")
    return CurveConfig.from_file(args.curve)


def _build_parser() -> _Parser:
    parser = _Parser(prog="elltwists",
                     description="central values of twisted L-series, their "
                                 "coset sums, and the slice-surface census")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ell=True):
        p.add_argument("--curve", help="curve configuration file")
        if ell:
            p.add_argument("--ell", type=_odd_prime, default=3,
                           help="odd prime twist order (default 3)")

    p = sub.add_parser("twist-value",
                       help="decide one character orbit's central value")
    common(p)
    p.add_argument("conductor", type=_positive_int)
    p.add_argument("orbit", type=int, nargs="?", default=0,
                   help="orbit index at that conductor (default 0)")

    p = sub.add_parser("census", help="decide every orbit up to a conductor "
                                      "bound, with journal and resume")
    common(p)
    p.add_argument("--max-conductor", type=_positive_int, required=True)
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="worker processes (output is identical for any count)")
    p.add_argument("--out", type=_out_path,
                   help="CSV path; a .log journal sits next to it")
    p.add_argument("--resume", action="store_true",
                   help="reuse journal rows from an interrupted run")

    p = sub.add_parser("congruence", help="sweep the residue relation over "
                                          "admissible character pairs")
    common(p)
    p.add_argument("--max-conductor", type=_positive_int, required=True,
                   help="bound on the product of the two conductors")

    p = sub.add_parser("nonvanishing-set",
                       help="primes where the twisted value provably misses "
                            "zero, from the trivial orbit's residue")
    common(p)
    p.add_argument("--max-conductor", type=_positive_int, required=True,
                   help="prime bound for the set")

    p = sub.add_parser("kummer-fiber",
                       help="rational fiber points of the slice surface "
                            "over one parameter value")
    common(p, ell=False)
    p.add_argument("t0", help="slice parameter (a rational number)")
    p.add_argument("--height-bound", type=_positive_int, default=8)

    p = sub.add_parser("e37b", help="conductor census of the slice family "
                                    "of the conductor-37 curve")
    p.add_argument("--max-conductor", type=_positive_int, required=True)
    p.add_argument("--height-bound", type=_positive_int)
    p.add_argument("--out", type=_out_path,
                   help="write the report text here as well")

    p = sub.add_parser("family", help="torsion pencil fibers and the cyclic "
                                      "cubic fields their base surface hits")
    p.add_argument("kind", choices=["six-torsion", "four-two-torsion"])
    p.add_argument("parameters", nargs="+",
                   help="pencil parameters (rational numbers)")
    p.add_argument("--height-bound", type=_positive_int, default=6)

    p = sub.add_parser("report", help="re-emit the summary and sorted CSV "
                                      "from an existing census journal")
    p.add_argument("journal", help="the .log file a census run wrote")
    p.add_argument("--max-conductor", type=_positive_int,
                   help="drop rows above this conductor (default: largest "
                        "conductor present)")
    p.add_argument("--out", type=_out_path,
                   help="regenerate the sorted CSV here")

    return parser


def _cmd_twist_value(args) -> int:
    config = _load_config(args)
    if gcd(args.conductor, config.conductor) != 1:
        raise ConfigError(f"twist conductor {args.conductor} shares a factor "
                          f"with the level {config.conductor}")
    try:
        orbits = galois_orbits(args.conductor, args.ell)
    except ValueError:
        orbits = []
    if not orbits:
        raise ConfigError(f"{args.conductor} is not an admissible conductor "
                          f"for order {args.ell}")
    if not 0 <= args.orbit < len(orbits):
        raise ConfigError(f"conductor {args.conductor} has "
                          f"{len(orbits)} orbits; index {args.orbit} is out "
                          f"of range")
    cal = calibrate(config.validated_curve(), args.ell, reach=args.conductor)
    record = cal.coset_sums(orbits[args.orbit])
    for key, value in record.as_dict().items():
        print(f"{key}: {value}")
    return 0


def _cmd_census(args) -> int:
    config = _load_config(args)
    summary = run_census(config, args.ell, args.max_conductor,
                         workers=args.threads, out=args.out,
                         resume=args.resume)
    print(summary.text())
    return 2 if summary.n_alarms else 0


def _cmd_congruence(args) -> int:
    config = _load_config(args)
    report = run_congruence_sweep(config, args.ell, args.max_conductor)
    print(report.text())
    return 2 if report.failures else 0


def _cmd_nonvanishing(args) -> int:
    config = _load_config(args)
    cal = calibrate(config.validated_curve(), args.ell)
    result = cal.nonvanishing_prime_set(args.max_conductor)
    for key, value in result.as_dict().items():
        print(f"{key}: {value}")
    return 0


def _cmd_kummer_fiber(args) -> int:
    config = _load_config(args)
    t0 = _fraction(args.t0)
    points = fiber_search(config.curve(), t0, args.height_bound)
    print(f"fiber points of {config.label} over t0 = {t0}, "
          f"height <= {args.height_bound}: {len(points)}")
    for fp in points:
        good = "good" if fp.good_fiber else "bad"
        print(f"  u = {fp.u}, delta = {fp.delta}: {fp.classification} "
              f"[{good} fiber]")
    return 0


def _cmd_e37b(args) -> int:
    report = run_e37b(args.max_conductor, height_bound=args.height_bound)
    text = report.text()
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


def _cmd_family(args) -> int:
    params = [_fraction(p) for p in args.parameters]
    report = run_family(args.kind, params, height_bound=args.height_bound)
    print(report.text())
    return 0


def _cmd_report(args) -> int:
    journal = Path(args.journal)
    if not journal.is_file():
        raise ConfigError(f"no journal file at {journal}")
    out = Path(args.out) if args.out else None
    if out and out.exists() and out.samefile(journal):
        raise ConfigError(f"--out {out} is the journal being read")
    done, run, _ = _read_journal(journal)
    if not done:
        raise ConfigError(f"journal {journal} holds no complete rows")
    label, ell = run or ("(journal)", 0)
    rows = sorted(done.values(), key=lambda r: r.sort_key)
    bound = args.max_conductor or max(r.conductor for r in rows)
    rows = [r for r in rows if r.conductor <= bound]
    summary = CensusSummary(label, ell, bound, tuple(rows), (), 0, len(rows),
                            sum(r.elapsed for r in rows))
    print(summary.text())
    if out:
        out.write_text(summary.csv())
    return 2 if summary.n_alarms else 0


_COMMANDS = {
    "twist-value": _cmd_twist_value,
    "census": _cmd_census,
    "congruence": _cmd_congruence,
    "nonvanishing-set": _cmd_nonvanishing,
    "kummer-fiber": _cmd_kummer_fiber,
    "e37b": _cmd_e37b,
    "family": _cmd_family,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # --help prints and exits inside parse_args: its output is
            # flushed below, where a closed stdout meets the handler
            code = exc.code
        else:
            code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout left early (`| head`): send the rest to the
        # null device, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConfigError, MemoryError) as exc:
        # a MemoryError is a size the host cannot hold; numpy names it
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except TheoryViolation as exc:
        print(f"theory violation: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
