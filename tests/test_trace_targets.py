"""The benchmark's tracer names the callables it wraps by module and
attribute path, and takes counts from their arguments and results; its
set-up runs read a curve file and calibrate.  A rename or deletion in the
program would otherwise break only the benchmark run, so every target is
resolved here the way `Tracer.install` resolves it, without installing
anything, every count is read off the objects the program really passes
and returns, and the set-up call runs once."""
import importlib.util
import inspect
import sys
from pathlib import Path

import elltwists.cli  # noqa: F401  (install runs after this import)
from elltwists.census import CurveConfig
from elltwists.dirichlet import galois_orbits
from elltwists.kummer import census_37b
from elltwists.lvalue import calibrate

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
SETUP_CURVE = ROOT / "curves" / "37b.cfg"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, attr: str):
    """The callable `Tracer.install` would wrap, or None."""
    owner = sys.modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name, None)
        return None if cls is None else cls.__dict__.get(meth)
    target = getattr(owner, attr, None)
    return target if callable(target) else None


def _setup_calibration():
    # the set-up call of perfbench/child.py --setup <curve file> 3
    config = CurveConfig.from_file(SETUP_CURVE)
    return calibrate(config.validated_curve(), 3,
                     dps=config.precision_digits)


def test_every_trace_target_resolves():
    targets = _load_tracer().TARGETS
    assert targets
    missing = [name for module, attr, name, _, _ in targets
               if _resolve(module, attr) is None]
    assert missing == []


def test_benchmark_setup_call_runs():
    cal = _setup_calibration()
    config = CurveConfig.from_file(SETUP_CURVE)
    assert (cal.label, cal.ell, cal.base_dps) == \
        (config.label, 3, config.precision_digits)


def test_every_count_reads_real_objects():
    cal = _setup_calibration()
    curve = cal.curve
    chi = galois_orbits(13, 3)[0]
    label = chi.canonical().label()
    # layer -> calls (arguments the program passes, count the tracer takes)
    from_args = {
        "dirichlet.gauss_sum": [((chi,), 13)],
        "elliptic.an_table": [((curve, 40), 40)],
        "lvalue.central_value": [((curve,), None), ((curve, chi), label)],
        "lvalue.CalibratedCurve.coset_sums": [
            ((cal, chi), [label, cal.base_dps, False])],
    }
    # layer -> arguments of a real call whose result the tracer counts
    from_result = {"kummer.census_37b": (2000, 4)}
    seen_args, seen_results = set(), set()
    for module, attr, name, count_args, count_result in _load_tracer().TARGETS:
        target = _resolve(module, attr)
        if count_args is not None:
            seen_args.add(name)
            for args, want in from_args[name]:
                # the real callable accepts the arguments counted here
                inspect.signature(target).bind(*args)
                assert count_args(*args) == want, name
        if count_result is not None:
            seen_results.add(name)
            out = target(*from_result[name])
            assert count_result(out) == len(out.rows) > 0, name
    assert seen_args == set(from_args)
    assert seen_results == set(from_result)
