#!/usr/bin/env python3
"""Regenerate the committed fixtures from the package's own analysis code.

    python3 scripts/gen_fixtures.py

Writes:
  src/qsc/_fixtures/catalog_properties.json  (read by qsc.catalog.list_catalog)
  tests/fixtures/perf.json                   (regression locks for channel runs)

Run this after any change that intentionally alters catalog constructions,
design analysis, or the channel simulation, and commit the diff.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import qsc
from qsc.fock import FockConfig, dephasing_channel_fidelity, loss_channel_fidelity

GENERATED_BY = "python3 scripts/gen_fixtures.py"

# design strengths are radius-free; separations recorded on the unit sphere
TMAX = {"cell600": 12}
DEFAULT_TMAX = 8


def catalog_properties() -> dict:
    out = {"_generated_by": GENERATED_BY,
           "_note": "separations at E=1; strengths capped at the listed tmax"}
    for entry in qsc.list_catalog():
        code = entry.build(1.0)
        tmax = TMAX.get(entry.name, DEFAULT_TMAX)
        report = qsc.design_strength(code, tmax)
        sep = qsc.min_separation(code)[0] if code.K >= 2 else None
        out[entry.entry_id] = {
            "tmax": tmax,
            "t_sphere": report.sphere_strength,
            "t_match": report.matching_strength,
            "min_separation": sep,
        }
        print(f"{entry.entry_id}: t_sphere={report.sphere_strength} "
              f"t_match={report.matching_strength} sep={sep}", file=sys.stderr)
    return out


def perf_fixtures() -> dict:
    """Loss is exact (no cutoff); dephasing runs at cutoff 60 per mode."""
    cfg = FockConfig(cutoff=60, modes=1)
    two = qsc.build("cat", 4.0, S=1, K=2)
    four = qsc.build("cat", 4.0, S=2, K=2)
    loss = {}
    for name, code in (("two_legged_E4", two), ("four_legged_E4", four)):
        loss[name] = {f"{g:g}": loss_channel_fidelity(code, g)
                      for g in (1e-3, 2e-3)}
        print(f"loss {name}: {loss[name]}", file=sys.stderr)

    spec = qsc.ClassicalCodeSpec(2, 2, gen_x=[[1, 1]], gen_z=[])
    css_code = qsc.compile_css(spec, complex(2.0 ** 0.5))  # E = 2|alpha|^2 = 4
    cfg2 = FockConfig(cutoff=60, modes=2, dim_budget=3600)
    dephasing = {
        "two_legged_E4_sigma0.1": dephasing_channel_fidelity(two, 0.1, cfg),
        "four_legged_E4_sigma0.1": dephasing_channel_fidelity(four, 0.1, cfg),
        "css_rep2_E4_sigma0.1": dephasing_channel_fidelity(css_code, 0.1, cfg2),
    }
    print(f"dephasing: {dephasing}", file=sys.stderr)
    return {"_generated_by": GENERATED_BY,
            "cutoff": 60,
            "loss": loss,
            "dephasing": dephasing}


def main() -> None:
    root = os.path.join(os.path.dirname(__file__), "..")
    cat_doc = catalog_properties()
    perf_doc = perf_fixtures()
    cat_path = os.path.join(root, "src", "qsc", "_fixtures", "catalog_properties.json")
    os.makedirs(os.path.dirname(cat_path), exist_ok=True)
    with open(cat_path, "w") as fh:
        json.dump(cat_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    perf_path = os.path.join(root, "tests", "fixtures", "perf.json")
    os.makedirs(os.path.dirname(perf_path), exist_ok=True)
    with open(perf_path, "w") as fh:
        json.dump(perf_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {cat_path} and {perf_path}", file=sys.stderr)


if __name__ == "__main__":
    main()
