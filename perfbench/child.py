"""One benchmark process: an `elltwists` command, or the set-up alone.

    python3 perfbench/child.py --result R.json [--trace] -- <elltwists args>
    python3 perfbench/child.py --result R.json --setup <curve file> <ell>

The first form runs `elltwists.cli.main` on the arguments, as the
`elltwists` command would, optionally with the spans of tracer.py.  The
second does what every command pays before its first answer: import the
CLI, read and validate the curve, and calibrate it for ell.  Both write a
small JSON result (exit code, import time, versions, spans, the speed
probe's factor) and exit with the command's code.  run.py starts every
process and times it from outside.  The speed probe (probe.py) samples from
the end of the import to the end of the command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup", nargs=2, metavar=("CURVE", "ELL"))
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()

    start = time.perf_counter()
    import elltwists.cli as cli
    import_s = time.perf_counter() - start

    source = os.path.join(os.getcwd(), "src", "")
    if not cli.__file__.startswith(source):
        print(f"elltwists was imported from {cli.__file__}, not from {source}",
              file=sys.stderr)
        return 3

    from probe import SpeedProbe
    probe = SpeedProbe()
    probe.start()

    import mpmath
    import numpy
    import sympy
    result = {"import_s": import_s,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "sympy": sympy.__version__,
                           "mpmath": mpmath.__version__,
                           "mpmath_backend": mpmath.libmp.BACKEND}}
    if args.setup:
        from elltwists.census import CurveConfig
        from elltwists.lvalue import calibrate
        config = CurveConfig.from_file(args.setup[0])
        calibrate(config.validated_curve(), int(args.setup[1]),
                  dps=config.precision_digits)
        code = 0
    else:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        code = cli.main(args.argv)
        if tracer is not None:
            result["trace"] = tracer.dump()
    result["probe"] = probe.stop()
    result["rc"] = code
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
