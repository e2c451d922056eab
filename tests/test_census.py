"""Orchestration-level checks: strict config parsing, the census sweep's
determinism across worker counts and interruptions, the sweep reports, and
the command-line exit contract."""

import ast
import concurrent.futures
import gc
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import weakref
from concurrent.futures import Future
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import elltwists
import elltwists.census as census
import elltwists.elliptic as elliptic
import elltwists.lvalue as lvalue
import elltwists.modsym as modsym
from elltwists.census import (ConfigError, CurveConfig, E37B_CONFIG,
                              TheoryViolation, run_census,
                              run_congruence_sweep, run_e37b, run_family)
from elltwists.cli import main
from elltwists.cubicfield import FieldConsistencyError
from elltwists.dirichlet import galois_orbits
from elltwists.elliptic import Curve, PointCountError
from elltwists.kummer import SurfaceError
from elltwists.lvalue import (WORKING_DPS, CalibrationError, ConsistencyError,
                              calibrate, series_terms)
from elltwists.numcore import primes_up_to
from test_lvalue import dead_value_rows, skewed_twist_rows

REAL_HECKE_FACTOR = lvalue.hecke_factor

E37A_CONFIG = CurveConfig("37a", (Fraction(0), Fraction(0), Fraction(1),
                                  Fraction(-1), Fraction(0)), 37, -1)
REFERENCE_CENSUS_ELL3 = (Path(__file__).resolve().parents[1] / "perfbench"
                         / "reference" / "census_ell3.csv")
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def cal_37b():
    """37b at ell 3, calibrated once for the module, its table reserved up
    to conductor 1300, the largest that the tests using it decide."""
    return calibrate(E37B_CONFIG.curve(), 3, reach=1300)


@pytest.fixture
def shared_cal_37b(monkeypatch, cal_37b):
    """census.calibrate answers 37b at ell 3 and the default precision with
    cal_37b, for the tests of the journal and the pool, which need no
    calibration of their own; anything else it calibrates as before."""
    real = census.calibrate

    def key(curve):
        return curve.a_invariants, curve.conductor, curve.root_number

    def calibrate_37b(curve, ell, dps=WORKING_DPS, reach=1):
        if (key(curve), ell, dps) == (key(cal_37b.curve), 3, cal_37b.base_dps):
            return cal_37b
        return real(curve, ell, dps=dps, reach=reach)

    monkeypatch.setattr(census, "calibrate", calibrate_37b)


GOOD_37B = """\
label = 37b
a_invariants = 0, 1, 1, -3, 1
conductor = 37
root_number = 1
"""


def _rewrite_journal(journal: Path, edit) -> None:
    rows = [json.loads(line) for line in journal.read_text().splitlines()]
    journal.write_text("".join(json.dumps(edit(row)) + "\n" for row in rows))


class TestCurveConfig:
    def test_round_trip_with_comments_and_blanks(self):
        text = "# header\n\n" + GOOD_37B.replace("conductor = 37",
                                                 "conductor = 37  # level")
        config = CurveConfig.from_text(text)
        assert config == E37B_CONFIG
        assert config.curve().conductor == 37

    def test_nonintegral_model_with_conductor_rejected(self):
        # the Fourier machinery needs an integral model, so a conductor
        # attached to fractional invariants is a configuration error
        text = GOOD_37B.replace("0, 1, 1, -3, 1", "0, 1, 1, -3/2, 1")
        with pytest.raises(ConfigError, match="integral"):
            CurveConfig.from_text(text)

    @pytest.mark.parametrize("mutate,reason", [
        (lambda t: t + "label = again\n", "duplicate key"),
        (lambda t: t + "precision_digits = 50\n", "precision key"),
        (lambda t: t.replace("conductor", "conduktor"), "unknown key"),
        (lambda t: t.replace("root_number = 1\n", ""), "missing key"),
        (lambda t: t.replace("0, 1, 1, -3, 1", "0, 1, 1"), "wrong arity"),
        (lambda t: t.replace("= 37", "= 37.5"), "non-integer conductor"),
        (lambda t: t.replace("root_number = 1", "root_number = 3"),
         "invalid sign"),
        (lambda t: t.replace("-3", "x"), "non-numeric"),
        (lambda t: t.replace("label = 37b", "label 37b"), "no separator"),
    ])
    def test_malformed_rejected(self, mutate, reason):
        with pytest.raises(ConfigError):
            CurveConfig.from_text(mutate(GOOD_37B))

    def test_singular_curve_rejected(self):
        with pytest.raises(ConfigError):
            CurveConfig("x", (0, 0, 0, 0, 0), 37, 1)

    def test_wrong_root_number_caught_by_validation(self):
        config = CurveConfig.from_text(
            GOOD_37B.replace("root_number = 1", "root_number = -1"))
        with pytest.raises(ConfigError, match="inconsistent"):
            config.validated_curve()

    def test_level_above_max_level_refused(self, tmp_path, capsys,
                                           monkeypatch):
        # 5077a is a valid curve, but its dense symbol solve would take
        # hours and gigabytes: the config is refused before any is built
        def no_symbols(*args):
            raise AssertionError("PlusSymbols built for a refused level")
        monkeypatch.setattr(modsym.PlusSymbols, "__init__", no_symbols)
        cfg = tmp_path / "5077a.cfg"
        cfg.write_text("label = 5077a\na_invariants = 0, 0, 1, -7, 6\n"
                       "conductor = 5077\nroot_number = -1\n")
        assert modsym.MAX_LEVEL < 5077
        code = main(["census", "--curve", str(cfg), "--max-conductor", "13"])
        assert code == 1
        assert f"MAX_LEVEL = {modsym.MAX_LEVEL}" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            CurveConfig.from_file(tmp_path / "absent.cfg")


class TestRunCensus:
    def test_single_orbit_example(self):
        summary = run_census(E37B_CONFIG, 3, 7)
        assert len(summary.rows) == 1
        row = summary.rows[0]
        assert (row.conductor, row.decision) == (7, "vanishes")
        assert row.coset_sums == (-2, -2, -2)

    def test_counts_monotone_and_complete(self):
        summary = run_census(E37B_CONFIG, 3, 63)
        assert [r.conductor for r in summary.rows] == \
            sorted(r.conductor for r in summary.rows)
        counts = [n for _, n in summary.counts]
        assert counts == sorted(counts)
        assert summary.n_undecided == 0
        assert {r.conductor for r in summary.rows} == {7, 9, 13, 19, 31, 43,
                                                       61, 63}

    def test_level_conductors_skipped_not_dropped(self):
        summary = run_census(E37B_CONFIG, 3, 37)
        assert summary.skipped_conductors == (37,)
        assert all(r.conductor != 37 for r in summary.rows)

    def test_calibrates_once(self, monkeypatch):
        real = census.calibrate
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(census, "calibrate", counted)
        run_census(E37B_CONFIG, 3, 13)
        assert len(calls) == 1

    def test_calibration_pickles_for_workers(self, cal_37b):
        # pool workers started by spawn receive the calibration by value
        cal = cal_37b
        copy = pickle.loads(pickle.dumps(cal))
        chi = galois_orbits(91, 3)[0]
        assert (copy.scale, copy.lalg0) == (cal.scale, cal.lalg0)
        assert copy.coset_sums(chi) == cal.coset_sums(chi)

    @pytest.mark.usefixtures("shared_cal_37b")
    def test_worker_count_does_not_change_bytes(self, tmp_path):
        one = tmp_path / "one.csv"
        two = tmp_path / "two.csv"
        run_census(E37B_CONFIG, 3, 13, workers=1, out=one)
        run_census(E37B_CONFIG, 3, 13, workers=2, out=two)
        assert one.read_bytes() == two.read_bytes()

    @pytest.mark.usefixtures("shared_cal_37b")
    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        full = tmp_path / "full.csv"
        run_census(E37B_CONFIG, 3, 13, out=full)
        reference = full.read_bytes()

        # simulate an interruption by dropping all but the first journal line
        broken = tmp_path / "broken.csv"
        run_census(E37B_CONFIG, 3, 13, out=broken)
        journal = tmp_path / "broken.csv.log"
        first_line = journal.read_text().splitlines()[0]
        journal.write_text(first_line + "\n")
        broken.unlink()

        summary = run_census(E37B_CONFIG, 3, 13, out=broken, resume=True)
        assert summary.resumed == 1 and summary.computed == 2
        assert broken.read_bytes() == reference

    @pytest.mark.usefixtures("shared_cal_37b")
    def test_resume_with_complete_journal_recomputes_nothing(self, tmp_path):
        out = tmp_path / "c.csv"
        run_census(E37B_CONFIG, 3, 13, out=out)
        summary = run_census(E37B_CONFIG, 3, 13, out=out, resume=True)
        assert summary.computed == 0
        assert summary.resumed == 3

    @pytest.mark.usefixtures("shared_cal_37b")
    def test_journal_drops_rung_and_old_rows_resume(self, tmp_path):
        # the journal names the curve and the order of each orbit, and no
        # longer its series engine; rows of older journals, which named the
        # engine or had no curve and order, still resume to the same CSV
        out = tmp_path / "r.csv"
        run_census(E37B_CONFIG, 3, 13, out=out)
        reference = out.read_bytes()
        journal = tmp_path / "r.csv.log"
        rows = journal.read_text()
        assert not any("rung" in json.loads(row) for row in rows.splitlines())
        # a None drops that key, as in rows that predate it
        for old, curve in (({"rung": "dd"}, "37b"), ({"rung": "mpmath"}, "37b"),
                           ({"fingerprint": None}, "37b"),
                           ({"curve": None, "ell": None, "fingerprint": None},
                            None)):
            journal.write_text(rows)
            _rewrite_journal(journal, lambda row: {
                k: v for k, v in {**row, **old}.items() if v is not None})
            out.unlink()
            summary = run_census(E37B_CONFIG, 3, 13, out=out, resume=True)
            assert summary.resumed == 3 and summary.computed == 0
            assert {row.curve for row in summary.rows} == {curve}
            assert out.read_bytes() == reference

    @pytest.mark.usefixtures("shared_cal_37b")
    def test_resume_keeps_only_this_runs_orbits(self, tmp_path):
        # a journal that reaches past the bound resumes only the orbits
        # under it; the rows past it stay in the journal, out of the CSV
        reference = tmp_path / "ref.csv"
        run_census(E37B_CONFIG, 3, 13, out=reference)
        out = tmp_path / "wide.csv"
        run_census(E37B_CONFIG, 3, 63, out=out)
        journal = tmp_path / "wide.csv.log"
        before = journal.read_bytes()
        summary = run_census(E37B_CONFIG, 3, 13, out=out, resume=True)
        assert summary.resumed == 3 and summary.computed == 0
        assert {r.conductor for r in summary.rows} == {7, 9, 13}
        assert summary.counts == ((13, 2),)
        assert out.read_bytes() == reference.read_bytes()
        assert journal.read_bytes() == before

    @pytest.mark.usefixtures("shared_cal_37b")
    def test_resume_rejects_rows_of_another_order(self, tmp_path):
        # the ell-3 orbit (31; 31:1) carries the same label as an ell-5
        # orbit; an ell-5 run must not take its sums
        out = tmp_path / "o.csv"
        run_census(E37B_CONFIG, 3, 31, out=out)
        journal = tmp_path / "o.csv.log"
        before = journal.read_bytes()
        with pytest.raises(ConfigError, match="order 3"):
            run_census(E37B_CONFIG, 5, 31, out=out, resume=True)
        assert journal.read_bytes() == before

    @pytest.mark.usefixtures("shared_cal_37b")
    def test_resume_rejects_rows_of_another_curve(self, tmp_path, capsys):
        # 37a and 37b share every orbit label
        out = tmp_path / "k.csv"
        run_census(E37B_CONFIG, 3, 13, out=out)
        journal = tmp_path / "k.csv.log"
        before = journal.read_bytes()
        with pytest.raises(ConfigError, match="curve 37b"):
            run_census(E37A_CONFIG, 3, 13, out=out, resume=True)
        assert main(["census", "--curve", "curves/37a.cfg", "--max-conductor",
                     "13", "--out", str(out), "--resume"]) == 1
        assert "error:" in capsys.readouterr().err
        assert journal.read_bytes() == before

    @pytest.mark.usefixtures("shared_cal_37b")
    def test_resume_rejects_rows_of_another_model_of_the_same_label(
            self, tmp_path, capsys):
        # [0, 4, 8, -48, 64] is 37b scaled by u = 2, under the same label:
        # its coset sums are doubled, so its rows must not join the 44
        # journaled ones of 37b.  The resume exits 1 before it touches the
        # journal or the CSV; the shipped config resumes to the bytes of a
        # clean census to 400
        out = tmp_path / "f.csv"
        assert main(["census", "--curve", "curves/37b.cfg", "--max-conductor",
                     "300", "--out", str(out)]) == 0
        journal = tmp_path / "f.csv.log"
        before = out.read_bytes(), journal.read_bytes()
        other = tmp_path / "scaled.cfg"
        other.write_text(GOOD_37B.replace("0, 1, 1, -3, 1", "0, 4, 8, -48, 64"))
        capsys.readouterr()
        assert main(["census", "--curve", str(other), "--max-conductor", "400",
                     "--out", str(out), "--resume"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "0,4,8,-48,64" in err
        assert (out.read_bytes(), journal.read_bytes()) == before
        assert main(["census", "--curve", "curves/37b.cfg", "--max-conductor",
                     "400", "--out", str(out), "--resume"]) == 0
        assert "(13 computed, 44 resumed)" in capsys.readouterr().out
        clean = (DATA / "census_37b_ell3_3000.csv").read_text().splitlines()
        assert out.read_text() == "".join(
            line + "\n" for line in clean
            if line.startswith("conductor") or int(line.split(",")[0]) <= 400)

    def test_report_refuses_rows_of_two_fingerprints(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        run_census(E37B_CONFIG, 3, 13, out=out)
        journal = tmp_path / "g.csv.log"
        _rewrite_journal(journal, lambda row: {
            **row, "fingerprint": row["fingerprint"] + "?"
            if row["conductor"] == 9 else row["fingerprint"]})
        before = journal.read_bytes()
        capsys.readouterr()
        for argv in (["report", str(journal)],
                     ["census", "--curve", "curves/37b.cfg", "--max-conductor",
                      "13", "--out", str(out), "--resume"]):
            assert main(argv) == 1
            assert "mixes the rows of [0,1,1,-3,1; N=37; w=1" in \
                capsys.readouterr().err
            assert journal.read_bytes() == before

    @pytest.mark.usefixtures("shared_cal_37b")
    def test_torn_journal_line_ignored(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        run_census(E37B_CONFIG, 3, 13, out=out)
        journal = tmp_path / "t.csv.log"
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:2]) + '\n{"conductor": 13, "cha')
        summary = run_census(E37B_CONFIG, 3, 13, out=out, resume=True)
        assert summary.resumed == 2 and summary.computed == 1
        # the torn fragment was cut, so the row appended after it is read
        summary = run_census(E37B_CONFIG, 3, 13, out=out, resume=True)
        assert summary.resumed == 3 and summary.computed == 0
        capsys.readouterr()
        assert main(["report", str(journal)]) == 0
        assert "orbits: 3 (" in capsys.readouterr().out

    @pytest.mark.parametrize("edit", [
        None, {"L_value": 5}, {"conductor": "9"}, {"coset_sums": [1, "x", 2]},
        {"decision": 5}, {"decision": "maybe"}, {"elapsed": "x"},
        {"alarm": 1}, {"error": 3}, {"curve": 37}, {"ell": "x"},
        {"ell": True}, {"conductor": 13}, {"curve": None},
        {"ell": None}, {"fingerprint": 5}], ids=[
        "garbage", "L_value", "conductor", "coset_sums", "decision",
        "decision-word", "elapsed", "alarm", "error", "curve", "ell",
        "ell-bool", "conductor-label", "no-curve", "no-order",
        "fingerprint"])
    @pytest.mark.usefixtures("shared_cal_37b")
    def test_bad_journal_line_refused(self, tmp_path, capsys, edit):
        # a bad row anywhere but a torn last line fails the command and
        # leaves the journal as it was: it used to end the read there, so
        # report showed 1 orbit and resume appended 4 again on every run.
        # A bad elapsed, decision or order once passed the read and ended
        # report in a traceback or printed "order x"; a conductor that the
        # label does not name was resumed into the CSV, and so was a row
        # naming its order but not its curve, which report refused
        out = tmp_path / "b.csv"
        run_census(E37B_CONFIG, 3, 31, out=out)
        journal = tmp_path / "b.csv.log"
        rows = journal.read_text().splitlines()
        assert len(rows) == 5
        if edit is None:
            rows.insert(1, "#garbage")
        else:
            rows[1] = json.dumps({**json.loads(rows[1]), **edit})
        journal.write_text("\n".join(rows) + "\n")
        before = journal.read_bytes()
        for argv in (["report", str(journal)],
                     ["report", str(journal), "--out",
                      str(tmp_path / "again.csv")],
                     ["census", "--curve", "curves/37b.cfg", "--max-conductor",
                      "31", "--out", str(out), "--resume"]):
            capsys.readouterr()
            assert main(argv) == 1
            assert "line 2 is not a census row" in capsys.readouterr().err
            assert journal.read_bytes() == before

    def test_resume_without_path_rejected(self):
        with pytest.raises(ConfigError):
            run_census(E37B_CONFIG, 3, 13, resume=True)

    def test_csv_shape(self, tmp_path):
        out = tmp_path / "s.csv"
        run_census(E37B_CONFIG, 3, 13, out=out)
        lines = out.read_text().splitlines()
        assert lines[0] == ("conductor, character, decision, L_re, L_im, "
                            "error_bound, coset_sums")
        assert len(lines) == 4
        first = [part.strip() for part in lines[1].split(",", 3)]
        assert first[0] == "7" and first[1].startswith("(7")

    @pytest.mark.usefixtures("shared_cal_37b")
    def test_pool_never_outnumbers_orbits_or_cores(self, tmp_path,
                                                   monkeypatch):
        # the pool starts all its workers at once, so a worker count past
        # the pending orbits or the cores is cut down; one or none left
        # runs serially.  The fake pool runs each task inline and starts
        # no process.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                done = Future()
                done.set_result(fn(*args))
                return done

        serial = tmp_path / "serial.csv"
        run_census(E37B_CONFIG, 3, 13, out=serial)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        monkeypatch.setattr(census, "_worker_cal", None)
        for cores, want in ((64, [3]), (2, [2]), (1, []), (None, [])):
            monkeypatch.setattr(census.os, "cpu_count", lambda: cores)
            sizes.clear()
            out = tmp_path / f"pool{cores}.csv"
            summary = run_census(E37B_CONFIG, 3, 13, workers=10 ** 6, out=out)
            assert (sizes, summary.computed) == (want, 3), cores
            assert out.read_bytes() == serial.read_bytes()
        # a complete journal leaves nothing to run
        monkeypatch.setattr(census.os, "cpu_count", lambda: 64)
        sizes.clear()
        summary = run_census(E37B_CONFIG, 3, 13, workers=10 ** 6, out=serial,
                             resume=True)
        assert (sizes, summary.resumed) == ([], 3)

    @pytest.mark.skipif(
        multiprocessing.get_all_start_methods()[0] != "fork",
        reason="the pool's workers must inherit the patched task")
    @pytest.mark.usefixtures("shared_cal_37b")
    def test_lost_worker_exits_one_and_resumes(self, tmp_path, monkeypatch,
                                               capsys):
        # a worker that dies on one orbit breaks the pool: the census exits
        # 1 with one line naming the orbits left and --resume, no traceback,
        # and every row that came back is journaled; --resume then writes
        # the clean run's bytes.  The cap allows two workers here, on any
        # host, and the task is patched before the pool forks them
        clean, out = tmp_path / "clean.csv", tmp_path / "lost.csv"
        run_census(E37B_CONFIG, 3, 100, out=clean)
        lines = clean.read_text().splitlines()[1:]
        killed = lvalue.served_orbits(37, 3, 100)[0][-1].label()
        task = census._census_task

        def dies_on_one(cal, chi):
            if chi.label() == killed:
                os._exit(1)
            return task(cal, chi)

        argv = ["census", "--curve", "curves/37b.cfg", "--max-conductor",
                "100", "--threads", "2", "--out", str(out)]
        monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
        with monkeypatch.context() as patch:
            patch.setattr(census, "_census_task", dies_on_one)
            capsys.readouterr()
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: a census worker was lost with ")
        assert killed in err and "--resume" in err
        rows = [census.CensusRow.from_dict(json.loads(line))
                for line in Path(f"{out}.log").read_text().splitlines()]
        journaled = [row.character for row in rows]
        assert killed not in journaled
        assert len(set(journaled)) == len(journaled)
        assert f"with {len(lines) - len(rows)} orbits left" in err
        assert all(row.csv_line() in lines for row in rows)
        assert not out.exists()
        assert main(argv + ["--resume"]) == 0
        assert out.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize("config,ell,bound,name", [
        (E37B_CONFIG, 5, 1000, "census_37b_ell5.csv"),
        (E37A_CONFIG, 7, 800, "census_37a_ell7.csv"),
        (E37B_CONFIG, 3, 3000, "census_37b_ell3_3000.csv")],
        ids=["37b-ell5", "37a-ell7", "37b-ell3-3000"])
    def test_csv_bytes_match_the_pinned_files(self, tmp_path, config, ell,
                                              bound, name):
        # the kernels' CSV bytes at orders 5 and 7, and at order 3 to 3000,
        # where the longer series run over many chunks, stay as pinned
        out = tmp_path / "c.csv"
        run_census(config, ell, bound, out=out)
        assert out.read_bytes() == (DATA / name).read_bytes()

    def test_csv_bytes_match_the_benchmark_reference(self, tmp_path):
        # the other byte checks compare two runs of the same code; this one
        # pins the CSV contract to the file the benchmark gates against
        # (no admissible conductor lies between 415 and its bound 420)
        out = tmp_path / "c.csv"
        run_census(E37B_CONFIG, 3, 415, out=out)
        assert out.read_bytes() == REFERENCE_CENSUS_ELL3.read_bytes()


class TestOneBatchPerCommand:
    """Each command reserves the a_n table its orbits need before its first
    series, so a fresh curve counts its points in exactly one batch: every
    prime from 1000 up to the reserved length that does not divide 6 disc.
    The reserved length is the series length of the largest conductor the
    command decides, and no series reaches past it.  The command's curve
    solves its plus modular symbols exactly once, and keeps them."""

    @pytest.fixture
    def batches(self, monkeypatch):
        seen = []
        batch = elliptic._frobenius_traces
        monkeypatch.setattr(elliptic, "_frobenius_traces", lambda a, b, ps:
                            seen.append(ps.tolist()) or batch(a, b, ps))
        return seen

    @pytest.fixture
    def calibrations(self, monkeypatch):
        # every calibration built while the fixture is live; an unpickled
        # copy is not built again
        built = []
        init = lvalue.CalibratedCurve.__init__
        monkeypatch.setattr(lvalue.CalibratedCurve, "__init__",
                            lambda cal, *args, **kw:
                            built.append(cal) or init(cal, *args, **kw))
        return built

    @pytest.fixture
    def solves(self, monkeypatch):
        # every plus modular symbol solve while the fixture is live
        solved = []
        init = modsym.PlusSymbols.__init__
        monkeypatch.setattr(modsym.PlusSymbols, "__init__",
                            lambda sym, *args:
                            solved.append(sym) or init(sym, *args))
        return solved

    @staticmethod
    def _check(batches, calibrations, solves):
        (cal,) = calibrations
        assert cal.base_dps == WORKING_DPS
        curve = cal.curve
        assert solves == [curve.symbols]
        reserved = curve._an.size - 1
        reach = max(chi.conductor for chi in cal._records)
        with mpmath.workdps(cal.base_dps):
            assert reserved == series_terms(curve, reach)
        six_disc = 6 * int(curve.disc)
        assert batches == [[p for p in primes_up_to(reserved)
                            if p >= 1000 and six_disc % p]]
        return reach

    @pytest.mark.parametrize("argv,reach", [
        (["census", "--curve", "curves/37b.cfg", "--max-conductor", "415"],
         409),
        (["congruence", "--curve", "curves/37b.cfg", "--ell", "5",
          "--max-conductor", "590"], 571),
        (["e37b", "--max-conductor", "2000"], 1629),
        (["twist-value", "--curve", "curves/37b.cfg", "10009"], 10009)],
        ids=["census", "congruence", "e37b", "twist-value"])
    def test_command(self, batches, calibrations, solves, capsys, argv,
                     reach):
        assert main(argv) == 0
        assert self._check(batches, calibrations, solves) == reach

    def test_calibrate_alone(self, batches, calibrations, solves):
        # the benchmark's set-up runs: the largest probe sets the length
        calibrate(E37B_CONFIG.validated_curve(), 3)
        assert self._check(batches, calibrations, solves) == 67

    def test_workers_receive_the_reserved_table(self, batches, calibrations,
                                                solves):
        # a pool worker unpickles the parent's calibration, whose table
        # already reaches the largest pending orbit and whose curve carries
        # its solved symbols: it counts nothing and solves nothing
        run_census(E37B_CONFIG, 3, 100)
        self._check(batches, calibrations, solves)
        (cal,) = calibrations
        copy = pickle.loads(pickle.dumps(cal))
        batches.clear()
        solves.clear()
        copy._records.clear()
        for chi in census.served_orbits(37, 3, 100)[0]:
            assert copy.coset_sums(chi) == cal.coset_sums(chi)
        assert batches == [] and solves == []

    def test_dropping_the_calibration_frees_its_curve(self):
        # nothing outside the calibration holds the command's curve, its
        # symbols or its a_n table
        cal = calibrate(E37B_CONFIG.validated_curve(), 3)
        curve, symbols = weakref.ref(cal.curve), weakref.ref(cal.curve.symbols)
        del cal
        gc.collect()
        assert curve() is None and symbols() is None


class TestCongruenceSweep:
    def test_small_sweep_all_hold(self):
        report = run_congruence_sweep(E37B_CONFIG, 3, 63)
        assert report.holds_all
        pairs = {(("1" if r.chi is None else r.chi.label()), r.psi.label())
                 for r in report.results}
        # trivial character against the wild conductor must be present
        assert ("1", "(9; 3:1)") in pairs
        assert ("(7; 7:1)", "(9; 3:1)") in pairs
        assert ("(9; 3:1)", "(7; 7:1)") in pairs

    def test_failure_dumps_intermediates(self):
        report = run_congruence_sweep(E37B_CONFIG, 3, 13)
        text = report.text()
        assert "failures: 0" in text


class TestE37bSurvey:
    def test_small_survey(self, monkeypatch):
        monkeypatch.setattr(census, "_SAMPLE_SIZE", 3)
        report = run_e37b(2000, height_bound=8)
        assert report.n_conductors == 8
        assert report.counts == ((2000, 8),)
        assert [s.conductor for s in report.samples] == [7, 13, 63]
        assert all(s.decision == "vanishes" for s in report.samples)

    def test_default_height_bound_covers_the_range(self):
        from elltwists.census import default_height_bound
        assert default_height_bound(10 ** 7) == 42
        assert default_height_bound(10) == 8

    def test_default_height_bound_misses_conductors(self):
        # the height bounds h1 h2, not the conductor: (-15, 13) has height
        # 15 and conductor 9709, below 10^4, whose default height is 9
        from elltwists.census import default_height_bound
        from elltwists.kummer import census_37b
        low = census_37b(10 ** 4, default_height_bound(10 ** 4))
        high = census_37b(10 ** 4, 15)
        assert (low.height_bound, len(low.conductors)) == (9, 16)
        assert set(high.conductors) - set(low.conductors) == {9709}


class TestFamilyReports:
    def test_six_torsion_report(self):
        report = run_family("six-torsion", [1, 0, Fraction(-1, 2)])
        by_param = {e.parameter: e for e in report.entries}
        assert by_param[Fraction(0)].excluded is not None
        assert by_param[Fraction(1)].fiber.infinite_order
        assert by_param[Fraction(-1, 2)].fiber.nodal
        # the base surface over lambda = 1 hits the conductor-9 cubic field
        assert any(c[2] == 9 for c in by_param[Fraction(1)].field_cubics)

    def test_four_two_report(self):
        report = run_family("four-two-torsion", [2, 1])
        by_param = {e.parameter: e for e in report.entries}
        assert by_param[Fraction(1)].excluded is not None
        fiber = by_param[Fraction(2)].fiber
        assert fiber.point == (Fraction(249), Fraction(4077))
        assert fiber.infinite_order

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_family("five-torsion", [1])


class TestCommandLine:
    def test_census_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        code = main(["census", "--curve", "curves/37b.cfg",
                     "--max-conductor", "13", "--out", str(out)])
        assert code == 0
        assert "vanishing orbits" in capsys.readouterr().out
        assert out.exists()

    @pytest.mark.parametrize("argv,name", [
        (["nonvanishing-set", "--curve", "curves/37b.cfg",
          "--max-conductor", "5000"], "nonvanishing_37b_ell3_5000.txt"),
        (["twist-value", "--curve", "curves/37b.cfg", "10009"],
         "twist_value_37b_10009.txt"),
        (["family", "six-torsion", "--", "1", "-1/2"],
         "family_six_torsion.txt"),
        (["kummer-fiber", "2", "--curve", "curves/37b.cfg"],
         "kummer_fiber_37b_2.txt"),
        (["e37b", "--max-conductor", "2000"], "e37b_2000.txt"),
        (["e37b", "--max-conductor", "30000000"], "e37b_30000000.txt"),
        (["congruence", "--curve", "curves/37b.cfg", "--ell", "5",
          "--max-conductor", "590"], "congruence_37b_ell5_590.txt")],
        ids=["nonvanishing-set", "twist-value", "family", "kummer-fiber",
             "e37b", "e37b-30000000", "congruence-ell5"])
    def test_stdout_matches_the_pinned_files(self, capsys, argv, name):
        # the primes from 1000 up of the nonvanishing set and the Hecke
        # factor at 10009 read the point counts of one batch; the family
        # and fiber commands run curves that have no conductor; the slice
        # survey prints its counts and ten sampled decisions
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == (DATA / name).read_bytes()

    def test_twist_value_prints_decision(self, capsys):
        code = main(["twist-value", "--curve", "curves/37b.cfg", "7"])
        assert code == 0
        assert "decision: vanishes" in capsys.readouterr().out

    def test_bad_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(GOOD_37B.replace("root_number = 1",
                                        "root_number = -1"))
        code = main(["census", "--curve", str(bad), "--max-conductor", "13"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_flipped_root_number_exits_one(self, tmp_path, capsys):
        # the shipped configs with the sign flipped disagree with the
        # Fricke sign of their plus modular symbols
        for name, sign, flipped in (("37a", "-1", "1"), ("37b", "1", "-1")):
            text = Path(f"curves/{name}.cfg").read_text()
            assert f"root_number = {sign}\n" in text
            bad = tmp_path / f"{name}.cfg"
            bad.write_text(text.replace(f"root_number = {sign}\n",
                                        f"root_number = {flipped}\n"))
            capsys.readouterr()
            assert main(["census", "--curve", str(bad),
                         "--max-conductor", "13"]) == 1, name
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "inconsistent" in err, name

    @pytest.mark.parametrize("conductor", (7, 28))
    def test_wrong_conductor_exits_one(self, tmp_path, capsys, conductor):
        # 14a1's model at a level where its symbols leave no line (7) or
        # two (28): a config error naming the conductor, not a traceback
        cfg = tmp_path / "14a1.cfg"
        cfg.write_text(f"label = 14a1\na_invariants = 1, 0, 1, 4, -6\n"
                       f"conductor = {conductor}\nroot_number = 1\n")
        assert main(["census", "--curve", str(cfg),
                     "--max-conductor", "13"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no plus modular symbols for 14a1 at "
                              f"conductor {conductor}: ")

    def test_usage_error_exits_one(self, tmp_path, capsys):
        assert main(["census", "--curve", "curves/37b.cfg"]) == 1
        assert main(["no-such-command"]) == 1
        # the working precision is lvalue.WORKING_DPS: no flag and no
        # config key sets it
        capsys.readouterr()
        assert main(["twist-value", "--curve", "curves/37b.cfg",
                     "--precision", "80", "7"]) == 1
        assert "unrecognized arguments: --precision" in \
            capsys.readouterr().err
        digits = tmp_path / "digits.cfg"
        digits.write_text(GOOD_37B + "precision_digits = 80\n")
        assert main(["twist-value", "--curve", str(digits), "7"]) == 1
        assert "unknown key 'precision_digits'" in capsys.readouterr().err
        # a twist conductor sharing a factor with the level 37 ended in a
        # ValueError traceback from the series
        for conductor in ("37", "259"):
            capsys.readouterr()
            assert main(["twist-value", "--curve", "curves/37b.cfg",
                         conductor]) == 1
            assert "error: twist conductor" in capsys.readouterr().err
        # 0 and -7 are no conductors: 0 was refused as sharing a factor
        # with the level
        for conductor in ("0", "-7"):
            capsys.readouterr()
            assert main(["twist-value", "--curve", "curves/37b.cfg",
                         conductor]) == 1
            assert "error: argument conductor" in capsys.readouterr().err
        # the twist order must be an odd prime
        for ell in ("1", "2", "4", "9", "-3", "x"):
            capsys.readouterr()
            assert main(["twist-value", "--curve", "curves/37b.cfg",
                         "--ell", ell, "7"]) == 1
            assert "error: argument --ell" in capsys.readouterr().err
        # the slice survey's bounds must be positive integers: -5 used to
        # crash in default_height_bound, 0 and -1 to survey a single pair
        for args, option in ((["--max-conductor", "-5"], "--max-conductor"),
                             (["--max-conductor", "0"], "--max-conductor"),
                             (["--max-conductor", "x"], "--max-conductor"),
                             (["--max-conductor", "100", "--height-bound", "0"],
                              "--height-bound"),
                             (["--max-conductor", "100", "--height-bound", "-1"],
                              "--height-bound")):
            capsys.readouterr()
            assert main(["e37b", *args]) == 1
            assert f"error: argument {option}" in capsys.readouterr().err
        # so must the L-value commands' bounds and the worker count: these
        # used to print an empty result and exit 0, or run serially
        curve = ["--curve", "curves/37b.cfg"]
        for args, option in (
                (["census", *curve, "--max-conductor", "0"], "--max-conductor"),
                (["census", *curve, "--max-conductor", "-7"], "--max-conductor"),
                (["census", *curve, "--max-conductor", "63", "--threads", "-3"],
                 "--threads"),
                (["census", *curve, "--max-conductor", "63", "--threads", "0"],
                 "--threads"),
                (["congruence", *curve, "--max-conductor", "-7"], "--max-conductor"),
                (["congruence", *curve, "--max-conductor", "0"], "--max-conductor"),
                (["nonvanishing-set", *curve, "--max-conductor", "-1"],
                 "--max-conductor"),
                (["report", "run.csv.log", "--max-conductor", "0"],
                 "--max-conductor"),
                # the fiber searches' height bounds: these printed no
                # points and exited 0
                (["kummer-fiber", *curve, "2", "--height-bound", "-1"],
                 "--height-bound"),
                (["kummer-fiber", *curve, "2", "--height-bound", "0"],
                 "--height-bound"),
                (["family", "six-torsion", "2", "--height-bound", "-3"],
                 "--height-bound"),
                (["family", "six-torsion", "2", "--height-bound", "0"],
                 "--height-bound")):
            capsys.readouterr()
            assert main(args) == 1
            assert f"error: argument {option}" in capsys.readouterr().err

    def test_output_outside_a_directory_exits_one(self, tmp_path, capsys,
                                                  monkeypatch):
        # each used to end in a FileNotFoundError traceback, e37b only after
        # its whole survey; now the path is refused before any work starts
        import elltwists.cli as cli
        journal = tmp_path / "r.csv.log"
        run_census(E37B_CONFIG, 3, 13, out=tmp_path / "r.csv")

        def no_work(*args, **kwargs):
            raise AssertionError("ran before checking the output path")

        monkeypatch.setattr(cli, "run_e37b", no_work)
        monkeypatch.setattr(cli, "run_census", no_work)
        for out in (tmp_path / "no" / "such.csv", tmp_path):
            for argv in (["census", "--curve", "curves/37b.cfg",
                          "--max-conductor", "13"],
                         ["e37b", "--max-conductor", "2000"],
                         ["report", str(journal)]):
                capsys.readouterr()
                assert main([*argv, "--out", str(out)]) == 1
                assert "error: argument --out" in capsys.readouterr().err

    def test_directory_in_place_of_a_file_exits_one(self, tmp_path, capsys,
                                                    monkeypatch):
        # a directory at the journal path ended in an IsADirectoryError
        # traceback, the census only after calibrating; now both commands
        # refuse it before any work starts
        def no_work(*args, **kwargs):
            raise AssertionError("calibrated before checking the journal")

        monkeypatch.setattr(census, "calibrate", no_work)
        journal = tmp_path / "x.csv.log"
        journal.mkdir()
        for resume in ([], ["--resume"]):
            capsys.readouterr()
            assert main(["census", "--curve", "curves/37b.cfg",
                         "--max-conductor", "10", "--out",
                         str(tmp_path / "x.csv"), *resume]) == 1
            assert "error:" in capsys.readouterr().err
        capsys.readouterr()
        assert main(["report", str(journal)]) == 1
        assert "error:" in capsys.readouterr().err
        assert journal.is_dir() and not any(journal.iterdir())

    def test_inadmissible_orbit_request_exits_one(self, capsys):
        code = main(["twist-value", "--curve", "curves/37b.cfg", "8"])
        assert code == 1

    def test_family_and_report_round_trip(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        main(["census", "--curve", "curves/37b.cfg",
              "--max-conductor", "13", "--out", str(out)])
        capsys.readouterr()
        code = main(["report", str(out) + ".log", "--out",
                     str(tmp_path / "again.csv")])
        assert code == 0
        assert (tmp_path / "again.csv").read_bytes() == out.read_bytes()

    def test_report_bound_drops_the_rows_above_it(self, tmp_path, capsys):
        # report --max-conductor X counts and writes only the rows at or
        # below X, the CSV that census writes at X; it once kept the rows
        # at 19 and 31 of a journal to 31 and reported 5 orbits
        run_census(E37B_CONFIG, 3, 31, out=tmp_path / "full.csv")
        run_census(E37B_CONFIG, 3, 13, out=tmp_path / "cut.csv")
        capsys.readouterr()
        assert main(["report", str(tmp_path / "full.csv.log"),
                     "--max-conductor", "13", "--out",
                     str(tmp_path / "again.csv")]) == 0
        assert "orbits: 3 (" in capsys.readouterr().out
        assert (tmp_path / "again.csv").read_bytes() == \
            (tmp_path / "cut.csv").read_bytes()

    def test_census_at_order_eleven_exits_zero(self, tmp_path, capsys):
        # 400 holds only 8 probe orbits of order 11, which once ended every
        # command at --ell 11 in a calibration error (exit 2)
        out = tmp_path / "e.csv"
        assert main(["census", "--curve", "curves/37b.cfg", "--ell", "11",
                     "--max-conductor", "100", "--out", str(out)]) == 0
        assert [line.split(",")[0] for line in
                out.read_text().splitlines()[1:]] == ["23", "67", "89"]
        assert "alarms 0" in capsys.readouterr().out

    def test_report_names_the_curve_and_order(self, tmp_path, capsys):
        out = tmp_path / "n.csv"
        run_census(E37B_CONFIG, 3, 13, out=out)
        journal = tmp_path / "n.csv.log"
        capsys.readouterr()
        assert main(["report", str(journal)]) == 0
        assert capsys.readouterr().out.startswith(
            "census: curve 37b, order 3, conductors <= 13\n")
        # rows written before the journal named their run keep the old header
        _rewrite_journal(journal, lambda row: {
            k: v for k, v in row.items() if k not in ("curve", "ell")})
        assert main(["report", str(journal)]) == 0
        assert capsys.readouterr().out.startswith(
            "census: curve (journal), order 0, conductors <= 13\n")

    def test_report_refuses_rows_of_two_runs(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        run_census(E37B_CONFIG, 3, 13, out=out)
        journal = tmp_path / "m.csv.log"
        _rewrite_journal(journal, lambda row: {
            **row, "curve": "37a" if row["conductor"] == 9 else row["curve"]})
        capsys.readouterr()
        assert main(["report", str(journal)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "curve 37a, order 3; curve 37b, order 3" in captured.err

    def test_failed_cross_check_is_an_alarm(self, tmp_path, monkeypatch,
                                            cal_37b):
        # conjugate twist rows that disagree fail the exact coset-sum
        # checks: the census journals an alarm row and exits 2
        real = cal_37b
        fresh = lvalue.CalibratedCurve(real.curve, 3, real.scale, real.lalg0,
                                       real.r, real.base_dps)
        monkeypatch.setattr(census, "calibrate", lambda *args, **kw: fresh)
        monkeypatch.setattr(lvalue, "_twist_rows", skewed_twist_rows)
        out = tmp_path / "a.csv"
        assert main(["census", "--curve", "curves/37b.cfg",
                     "--max-conductor", "9", "--out", str(out)]) == 2
        rows = {row["conductor"]: row for row in map(
            json.loads, (tmp_path / "a.csv.log").read_text().splitlines())}
        assert rows[9]["alarm"] and rows[9]["decision"] == "undecided"
        assert rows[9]["error"].startswith("ConsistencyError: ")
        # the vanishing orbit's rows are 0, so turning one changes nothing
        assert not rows[7]["alarm"] and rows[7]["decision"] == "vanishes"

    def test_dead_value_of_a_nonzero_orbit_is_an_alarm(self, tmp_path,
                                                       monkeypatch, capsys,
                                                       cal_37b):
        # exactly nonzero coset sums with a series value of 0: the census
        # row is an alarm and the congruence sweep ends with exit 2, where
        # it once held every pair
        real = cal_37b
        monkeypatch.setattr(census, "calibrate", lambda *args, **kw: (
            lvalue.CalibratedCurve(real.curve, 3, real.scale, real.lalg0,
                                   real.r, real.base_dps)))
        monkeypatch.setattr(lvalue, "_twist_rows", dead_value_rows)
        assert main(["congruence", "--curve", "curves/37b.cfg",
                     "--max-conductor", "63"]) == 2
        assert capsys.readouterr().err.startswith(
            "theory violation: ConsistencyError: exact part of (9; 3:1) is "
            "nonzero but |L| is within noise")
        out = tmp_path / "d.csv"
        assert main(["census", "--curve", "curves/37b.cfg",
                     "--max-conductor", "9", "--out", str(out)]) == 2
        rows = {row["conductor"]: row for row in map(
            json.loads, (tmp_path / "d.csv.log").read_text().splitlines())}
        assert rows[9]["alarm"] and rows[9]["decision"] == "undecided"
        assert "within noise" in rows[9]["error"]
        assert not rows[7]["alarm"] and rows[7]["decision"] == "vanishes"

    @staticmethod
    def _miscount_trivial_sums(monkeypatch, real,
                               wrong_factor=lambda *args: 1):
        # a wrong A_0 (by default 1 for every factor); a fresh calibration
        # on real's curve keeps real's cached sums out of it
        fresh = lvalue.CalibratedCurve(real.curve, 3, real.scale, real.lalg0,
                                       real.r, real.base_dps)
        monkeypatch.setattr(census, "calibrate", lambda *args, **kw: fresh)
        monkeypatch.setattr(lvalue, "hecke_factor", wrong_factor)

    @staticmethod
    def _factor_plus_ell(curve, f, ell):
        # A_0 off by L0 ell, a wrong total in the right residue class mod
        # ell, which the rounded series sums once took on unseen
        return REAL_HECKE_FACTOR(curve, f, ell) + ell

    def test_unrounded_coset_sums_are_an_alarm(self, tmp_path, monkeypatch,
                                               cal_37b):
        # each orbit whose r M_t miss the wrong A_0 is an alarm row, never
        # a quiet decision from |L| alone
        self._miscount_trivial_sums(monkeypatch, cal_37b)
        out = tmp_path / "r.csv"
        assert main(["census", "--curve", "curves/37b.cfg",
                     "--max-conductor", "60", "--out", str(out)]) == 2
        rows = {row["conductor"]: row for row in map(
            json.loads, (tmp_path / "r.csv.log").read_text().splitlines())}
        for f in (7, 13, 19, 31, 43):
            assert rows[f]["alarm"] and rows[f]["decision"] == "undecided"
            assert rows[f]["error"].startswith("ConsistencyError: ")
            assert "exact recursion gives" in rows[f]["error"]
        assert all(row["alarm"] or row["coset_sums"]
                   for row in rows.values())

    def test_unrounded_coset_sums_fail_the_congruence_sweep(
            self, monkeypatch, capsys, cal_37b):
        # the miss ends the sweep with the theory-violation exit code
        self._miscount_trivial_sums(monkeypatch, cal_37b)
        assert main(["congruence", "--curve", "curves/37b.cfg",
                     "--max-conductor", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("theory violation: ConsistencyError: ")

    def test_shifted_coset_sums_are_an_alarm(self, tmp_path, monkeypatch,
                                             cal_37b):
        # a wrong A_0 in the right residue class alarms on every orbit; the
        # rounding checks of the series sums alone passed 19, 31 and 43
        self._miscount_trivial_sums(monkeypatch, cal_37b,
                                    self._factor_plus_ell)
        out = tmp_path / "s.csv"
        assert main(["census", "--curve", "curves/37b.cfg",
                     "--max-conductor", "60", "--out", str(out)]) == 2
        rows = [json.loads(line) for line in
                (tmp_path / "s.csv.log").read_text().splitlines()]
        assert sorted(row["conductor"] for row in rows) == [7, 9, 13, 19, 31, 43]
        for row in rows:
            assert row["alarm"] and row["decision"] == "undecided"
            assert row["error"].startswith("ConsistencyError: coset sums ")
            assert "exact recursion gives" in row["error"]

    def test_shifted_coset_sums_fail_the_congruence_sweep(
            self, monkeypatch, capsys, cal_37b):
        self._miscount_trivial_sums(monkeypatch, cal_37b,
                                    self._factor_plus_ell)
        assert main(["congruence", "--curve", "curves/37b.cfg",
                     "--max-conductor", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("theory violation: ConsistencyError: ")
        assert "exact recursion gives" in err

    def test_congruence_sweep_backs_up_the_total_check(self, monkeypatch,
                                                       capsys, cal_37b):
        # coset_sums checks each orbit's total against A_0, so every pair
        # holds by construction; in a build that took the symbols' own total
        # instead, a Hecke factor off by one at 433 fails the one pair there
        self._miscount_trivial_sums(
            monkeypatch, cal_37b, lambda curve, f, ell: (
                REAL_HECKE_FACTOR(curve, f, ell) + (f == 433)))
        monkeypatch.setattr(
            lvalue.CalibratedCurve, "trivial_coset_sum", lambda cal, f: sum(
                cal.r * m for m in
                cal.curve.symbols.orbit_sums(
                    galois_orbits(f, cal.ell)[0].exponent_table(), cal.ell)))
        text = run_congruence_sweep(E37B_CONFIG, 3, 1300).text()
        assert "pairs checked: 200, failures: 1" in text
        fails = [line for line in text.splitlines() if "FAIL" in line]
        assert len(fails) == 1 and '"psi": "(433; 433:1)"' in fails[0]
        assert main(["congruence", "--curve", "curves/37b.cfg",
                     "--max-conductor", "1300"]) == 2
        assert "pairs checked: 200, failures: 1" in capsys.readouterr().out

    @staticmethod
    def _miscount_ap(monkeypatch, prime):
        # the point search returns one wrong a_p, which the check point
        # after it catches; each command reads a fresh curve, whose
        # coefficients are all counted under the patch
        search = elliptic._search

        def wrong(a, b, p):
            ap, x = search(a, b, p)
            return np.where(p == prime, ap + 1, ap), x

        monkeypatch.setattr(elliptic, "_search", wrong)

    def test_failed_point_count_in_calibration_exits_two(self, monkeypatch,
                                                         capsys):
        # the calibration counts points at 1009; the error used to escape
        # main as a traceback, exit 1
        self._miscount_ap(monkeypatch, 1009)
        assert main(["census", "--curve", "curves/37b.cfg",
                     "--max-conductor", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("theory violation: PointCountError: ")
        assert " at 1009 " in err

    def test_failed_point_count_is_an_alarm(self, tmp_path, monkeypatch,
                                            capsys):
        # the 13 orbits whose series reach 9001 used to be quiet undecided
        # rows, exit 0, and then alarm rows, exit 2; the census now counts
        # every a_p its orbits need before it opens the journal, so the
        # failed count stops it there, like a failed calibration
        self._miscount_ap(monkeypatch, 9001)
        out = tmp_path / "p.csv"
        assert main(["census", "--curve", "curves/37b.cfg",
                     "--max-conductor", "415", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("theory violation: PointCountError: ")
        assert " at 9001 " in err
        assert not (tmp_path / "p.csv.log").exists() and not out.exists()

    def test_report_refuses_to_overwrite_its_journal(self, tmp_path, capsys,
                                                     monkeypatch):
        # the CSV used to replace the journal it was read from, exit 0
        out = tmp_path / "r.csv"
        run_census(E37B_CONFIG, 3, 20, out=out)
        journal = tmp_path / "r.csv.log"
        before = journal.read_bytes()
        link = tmp_path / "link.log"
        link.symlink_to(journal)
        monkeypatch.chdir(tmp_path)
        for target in (str(journal), "./r.csv.log", str(link)):
            capsys.readouterr()
            assert main(["report", str(journal), "--out", target]) == 1
            assert "error:" in capsys.readouterr().err
            assert journal.read_bytes() == before

    def test_import_leaves_sympy_out(self):
        # sympy is a test-only dependency: importing the commands does not
        # load it, and the slice-family commands never reach it
        src = os.path.dirname(os.path.dirname(elltwists.__file__))
        probe = ("import contextlib, io, sys, elltwists.cli as cli\n"
                 "loaded = 'sympy' in sys.modules\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    codes = [cli.main(['family', 'six-torsion', '--', '1',"
                 " '-1/2']), cli.main(['kummer-fiber', '--curve',"
                 " 'curves/37a.cfg', '2'])]\n"
                 "print(loaded, 'sympy' in sys.modules, *codes)")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True,
                             cwd=os.path.dirname(src),
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.split() == ["False", "False", "0", "0"]

    def test_import_leaves_the_process_pool_out(self):
        # serial runs never start a pool, so importing the commands loads
        # no process-pool code; the slice-family modules stay loaded, for
        # the benchmark's tracer looks them up right after this import
        src = os.path.dirname(os.path.dirname(elltwists.__file__))
        probe = ("import sys, elltwists.cli\n"
                 "print(*(m in sys.modules for m in ("
                 "'concurrent.futures.process', 'multiprocessing', "
                 "'elltwists.kummer', 'elltwists.cubicfield')))")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.split() == ["False", "False", "True", "True"]

    def test_two_workers_write_the_serial_bytes(self, tmp_path):
        # the pool branch imports its executor itself: two worker
        # processes of a fresh interpreter write the serial run's CSV
        src = os.path.dirname(os.path.dirname(elltwists.__file__))
        csvs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}.csv"
            subprocess.run([sys.executable, "-m", "elltwists.cli", "census",
                            "--curve", "curves/37b.cfg", "--max-conductor",
                            "100", "--threads", threads, "--out", str(out)],
                           check=True, capture_output=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": src})
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1] and csvs[0].count(b"\n") > 10

    @pytest.mark.parametrize("argv", [
        ["report", "r.csv.log"], ["family", "six-torsion", "--", "1", "-1/2"],
        ["--help"], ["census", "--help"]],
        ids=["report", "family", "help", "command-help"])
    def test_closed_stdout_exits_one_without_traceback(self, argv, tmp_path):
        # `elltwists report <journal> | head -1`: the reader is gone before
        # the command prints, so the write fails; that is exit 1, and no
        # traceback reaches stderr.  Unbuffered, print itself fails inside
        # the command; buffered, the output waits for main's flush
        run_census(E37B_CONFIG, 3, 20, out=tmp_path / "r.csv")
        src = os.path.dirname(os.path.dirname(elltwists.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "elltwists.cli", *argv],
                    stdout=write_end, stderr=subprocess.PIPE, text=True,
                    cwd=tmp_path, timeout=60,
                    env={**env, **unbuffered, "PYTHONPATH": src})
            finally:
                os.close(write_end)
            assert (proc.returncode, proc.stderr) == (1, ""), unbuffered

    def test_no_module_imports_sympy(self):
        # the runtime dependencies leave sympy out, so no module of the
        # package may import it, on any command path or none
        src = Path(elltwists.__file__).parent
        modules = sorted(src.rglob("*.py"))
        assert len(modules) >= 9
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(n == "sympy" or n.startswith("sympy.")
                               for n in names), f"{path.name}:{node.lineno}"

    @pytest.mark.parametrize("error", [
        TheoryViolation, ConsistencyError, CalibrationError, SurfaceError,
        FieldConsistencyError, PointCountError], ids=lambda e: e.__name__)
    def test_theory_violation_exits_two(self, error, monkeypatch, capsys):
        import elltwists.cli as cli

        def boom(*args, **kwargs):
            raise error("sampled twist refused to vanish")

        monkeypatch.setattr(cli, "run_e37b", boom)
        code = main(["e37b", "--max-conductor", "2000"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"theory violation: {error.__name__}: ")

    @pytest.mark.parametrize("message", [
        "Unable to allocate 356. GiB for an array with shape "
        "(47746482188,) and data type int64", ""], ids=["numpy", "bare"])
    def test_memory_error_exits_one_without_a_traceback(self, message,
                                                        monkeypatch, capsys):
        # a size the host cannot hold ends in one stderr line, exit 1; the
        # command raises it here, nothing is allocated
        import elltwists.cli as cli

        def boom(*args, **kwargs):
            raise MemoryError(message) if message else MemoryError

        monkeypatch.setattr(cli, "run_census", boom)
        code = main(["census", "--curve", "curves/37b.cfg",
                     "--max-conductor", "13"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {message or 'out of memory'}"]
