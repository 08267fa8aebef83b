#!/usr/bin/env python3
"""Regenerate the committed fixtures from the package's own analysis code.

    python3 scripts/gen_fixtures.py
    python3 scripts/gen_fixtures.py --check

Writes:
  src/qsc/_fixtures/catalog_properties.json  (read by qsc.catalog.list_catalog)
  tests/fixtures/perf.json                   (regression locks for channel runs)

Run this after any change that intentionally alters catalog constructions,
design analysis, or the channel simulation, and commit the diff.

``--check`` writes nothing: it regenerates both documents in memory, prints
the largest deviation from each committed file and exits 1 if any entry is
beyond its tolerance (below) or the files differ in anything but numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import qsc
from qsc.fock import FockConfig, dephasing_channel_fidelity, loss_channel_fidelity

GENERATED_BY = "python3 scripts/gen_fixtures.py"
# --check tolerances.  Strengths and every other non-float entry must match
# exactly.  Separations come from sums of squares whose order of summation may
# change with the code; the hessian's has drifted by one ulp.  Fidelities are
# held to the benchmark's FIDELITY_ATOL: channel code that moves one by more
# has changed what it computes.
SEPARATION_RTOL = 1e-12
FIDELITY_ATOL = 1e-10

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
    cfg2 = FockConfig(cutoff=60, modes=2)
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


def _leaves(doc, path=()):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, path + (key,))
    else:
        yield path, doc


def check(path: str, fresh: dict, tol: float, relative: bool) -> bool:
    """Compare a regenerated document with the committed file at ``path``;
    print the largest deviation of its float entries and every mismatch."""
    name = os.path.basename(path)
    with open(path) as fh:
        committed = dict(_leaves(json.load(fh)))
    fresh = dict(_leaves(fresh))
    ok, worst = True, 0.0
    for key in sorted(committed.keys() | fresh.keys()):
        old, new = committed.get(key), fresh.get(key)
        if isinstance(old, float) and isinstance(new, float):
            deviation = abs(new - old) / (abs(old) if relative and old else 1.0)
            worst = max(worst, deviation)
            if deviation <= tol:
                continue
        elif old == new and key in committed and key in fresh:
            continue
        ok = False
        print(f"{name}: {'/'.join(key)} is {new!r}, committed {old!r}")
    kind = "relative" if relative else "absolute"
    print(f"{name}: largest {kind} deviation {worst:.3g} (tolerance {tol:g})")
    return ok


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed files instead of writing them")
    args = parser.parse_args()
    root = os.path.join(os.path.dirname(__file__), "..")
    cat_doc = catalog_properties()
    perf_doc = perf_fixtures()
    cat_path = os.path.join(root, "src", "qsc", "_fixtures", "catalog_properties.json")
    perf_path = os.path.join(root, "tests", "fixtures", "perf.json")
    if args.check:
        ok = check(cat_path, cat_doc, SEPARATION_RTOL, relative=True)
        ok &= check(perf_path, perf_doc, FIDELITY_ATOL, relative=False)
        sys.exit(0 if ok else 1)
    os.makedirs(os.path.dirname(cat_path), exist_ok=True)
    with open(cat_path, "w") as fh:
        json.dump(cat_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.makedirs(os.path.dirname(perf_path), exist_ok=True)
    with open(perf_path, "w") as fh:
        json.dump(perf_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {cat_path} and {perf_path}", file=sys.stderr)


if __name__ == "__main__":
    main()
