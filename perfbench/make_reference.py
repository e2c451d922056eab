"""Write perfbench/reference/ from the package under ./src.

    PYTHONPATH=src python3 perfbench/make_reference.py

The files record what the package computes for every bound a benchmark
workload can be given (the top of each band covers the whole band and the
tiny warm-up bound).  run.py checks every benchmark run against them, so
regenerate them only in a change that is meant to alter those outputs.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from run import REFERENCE, CensusEll3, CongruenceEll5, SliceE37b

from elltwists.census import (CurveConfig, default_height_bound, run_census,
                              run_congruence_sweep, run_e37b)
from elltwists.kummer import census_37b


def census_reference(config: CurveConfig) -> str:
    bound = CensusEll3.band[1]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "census.csv")
        summary = run_census(config, CensusEll3.ell, bound, out=out)
        if summary.n_undecided or summary.n_alarms:
            raise SystemExit("census reference has undecided or alarmed rows")
        with open(out) as fh:
            return fh.read()


def congruence_reference(config: CurveConfig) -> dict:
    bound = CongruenceEll5.band[1]
    report = run_congruence_sweep(config, CongruenceEll5.ell, bound)
    if not report.holds_all:
        raise SystemExit("congruence reference has failed pairs")
    products = sorted((1 if r.chi is None else r.chi.conductor)
                      * r.psi.conductor for r in report.results)
    return {"curve": config.label, "ell": CongruenceEll5.ell, "bound": bound,
            "pair_products": products}


def e37b_entry(lo: int, hi: int) -> dict:
    height = default_height_bound(hi)
    if default_height_bound(lo) != height:
        raise SystemExit(f"e37b band {lo}..{hi} crosses a height step")
    report = run_e37b(hi)
    census = census_37b(hi, height)
    return {"bounds": [lo, hi], "height_bound": height,
            "n_rows": report.n_rows, "cutoffs": [c for c, _ in report.counts],
            "conductors": list(census.conductors),
            "samples": [[s.a, s.b, s.conductor, s.character, s.decision]
                        for s in report.samples]}


def main() -> int:
    config = CurveConfig.from_file("curves/37b.cfg")
    os.makedirs(REFERENCE, exist_ok=True)
    with open(os.path.join(REFERENCE, "census_ell3.csv"), "w") as fh:
        fh.write(census_reference(config))
    with open(os.path.join(REFERENCE, "congruence_ell5.json"), "w") as fh:
        json.dump(congruence_reference(config), fh, indent=1)
        fh.write("\n")
    entries = [e37b_entry(SliceE37b.smoke, SliceE37b.smoke),
               e37b_entry(*SliceE37b.band)]
    with open(os.path.join(REFERENCE, "e37b.json"), "w") as fh:
        json.dump({"entries": entries}, fh)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
