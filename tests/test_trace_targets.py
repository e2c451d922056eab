"""The benchmark's tracer names the callables it wraps by module and
attribute path.  A rename or deletion in the program would otherwise break
only the traced benchmark run, so every target is resolved here the way
`Tracer.install` resolves it, without installing anything."""
import importlib.util
import sys
from pathlib import Path

import elltwists.cli  # noqa: F401  (install runs after this import)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _load_tracer().TARGETS
    assert targets
    missing = []
    for module, attr, name, _, _ in targets:
        owner = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            if cls is None or meth not in cls.__dict__:
                missing.append(name)
        elif not callable(getattr(owner, attr, None)):
            missing.append(name)
    assert missing == []
