"""Checks of the benchmark's own gate and trace arithmetic.

    python3 -m pytest perfbench -q       (from the root of the checkout)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import run
from tracer import layer_stats

ROW = ("7, (7; 7:1), vanishes, -1.2393773371856156e-11, 1.95299988939052e-10,"
       " 5.143e-08, -2|-2|-2")


def _csv(*lines):
    return run.parse_census_csv("\n".join((run.CSV_HEADER,) + lines) + "\n")


def test_self_time_excludes_direct_children_only():
    dump = {"names": ["a", "b", "c"],
            "spans": [(0, 0.0, 10.0, -1, None),      # a: 10 s
                      (1, 1.0, 5.0, 0, 3),          # b inside a: 4 s
                      (2, 2.0, 3.0, 1, None),       # c inside b: 1 s
                      (1, 6.0, 7.0, 0, 4)]}         # b inside a: 1 s
    stats = layer_stats(dump)
    assert stats["a"]["self_s"] == pytest.approx(5.0)
    assert stats["b"]["self_s"] == pytest.approx(4.0)
    assert stats["b"]["calls"] == 2 and stats["b"]["extras"] == [3, 4]
    assert stats["c"]["s"] == pytest.approx(1.0)


def test_census_gate_accepts_values_within_the_error_bound():
    ref = _csv(ROW)
    moved = ROW.replace("-1.2393773371856156e-11", "3.0e-08")
    assert run.compare_census_rows(_csv(moved), ref) == []


@pytest.mark.parametrize("bad", [
    ROW.replace("-1.2393773371856156e-11", "2.0e-07"),    # L off by > 2 err
    ROW.replace("-2|-2|-2", "-2|-2|-3"),                  # coset sums
    ROW.replace("vanishes", "nonzero"),                   # decision
])
def test_census_gate_rejects_a_changed_row(bad):
    assert run.compare_census_rows(_csv(bad), _csv(ROW))


def test_census_gate_rejects_missing_and_extra_orbits():
    other = ROW.replace("(7; 7:1)", "(13; 13:1)")
    assert run.compare_census_rows(_csv(ROW), _csv(ROW, other))
    assert run.compare_census_rows(_csv(ROW, other), _csv(ROW))


def test_census_csv_with_a_composite_conductor_label():
    row = ("63, (63; 3:1, 7:1), vanishes, 1e-12, 2e-12, 1.0e-08, "
           "5|5|5")
    parsed = _csv(row)["(63; 3:1, 7:1)"]
    assert (parsed.conductor, parsed.sums) == (63, "5|5|5")


def _rep(stdout, rc=0):
    return run.Rep(1.0, 60.0, rc, stdout, "", {})


def test_congruence_gate_counts_pairs_from_the_reference():
    w = run.CongruenceEll5()
    good = _rep("  pairs checked: 5, failures: 0\n")
    assert w.check(63, good, "").ok
    assert not w.check(63, _rep("  pairs checked: 5, failures: 1\n", 2),
                       "").ok
    assert not w.check(63, _rep("  pairs checked: 4, failures: 0\n"), "").ok
    assert w.check(63, _rep("garbage"), "").failed == 5


def test_e37b_gate_against_the_readme_smoke_output():
    w = run.SliceE37b()
    entry = next(e for e in w.entries if e["bounds"] == [2000, 2000])
    lines = ["slice-family survey: conductors <= 2000, parameter height <= 8",
             "  parameter pairs: 88, distinct conductors (squarefree rows): 8",
             "  distinct conductors <= 2000: 8"]
    lines += [f"  sampled field (a={a}, b={b}) conductor {f}: character "
              f"{ch} -> {dec}" for a, b, f, ch, dec in entry["samples"]]
    text = "\n".join(lines) + "\n"
    assert w.check(2000, _rep(text), "").ok
    refused = text.replace("(7; 7:1) -> vanishes", "(7; 7:1) -> nonzero")
    assert w.check(2000, _rep(refused), "").failed == len(entry["samples"])


def test_percentile_reports_samples_beyond_it():
    assert run.percentile(list(range(1, 101)), 90) == (90, 10)
    assert run.percentile([5.0], 50) == (5.0, 0)


def test_traced_census_patches_every_binding(tmp_path):
    """A traced tiny census: calibrate is rebound where census and cli
    imported it, and the serial census calibrates twice."""
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src"))
    cmd = [sys.executable, os.path.join(run.HERE, "child.py"), "--result",
           str(result), "--trace", "--", "census", "--curve",
           "curves/37b.cfg", "--max-conductor", "7"]
    subprocess.run(cmd, cwd=run.ROOT, env=env, check=True,
                   capture_output=True, timeout=120)
    dump = json.loads(result.read_text())["trace"]
    assert set(dump["bindings"]["lvalue.calibrate"]) == {
        "elltwists.lvalue.calibrate", "elltwists.census.calibrate",
        "elltwists.cli.calibrate"}
    assert "elltwists.cubicfield.factor" in dump["bindings"]["numcore.factor"]
    metrics = run.trace_metrics(dump)
    assert metrics["lvalue.calibrate.calls"] == 2
    assert metrics["lvalue.series_per_orbit"] == 2


def test_probe_factor_is_the_mean_share_of_reference_speed():
    import probe
    assert probe.summary([])["samples"] == 0
    # half the run at the reference speed, half at half of it
    got = probe.summary([probe.REF_S, 2 * probe.REF_S])
    assert got == {"samples": 2, "factor": pytest.approx(0.75)}
    rep = run.Rep(4.0, 60.0, 0, "", "", {"probe": got})
    assert rep.ref_s == pytest.approx(3.0)
