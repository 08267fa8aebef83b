"""Command-line entry point.

Subcommands: catalog, build, design, kl, symmetries, ideal, css, perf, table.
All subcommands accept --json for machine-readable output, printed on one
line (``python -m json.tool`` indents it); computation results go to stdout,
progress and errors to stderr.  Exit codes: 0 success, 1 computation error,
2 usage error (an unparsable command line, or an argument value the library
rejects with ValueError, such as a negative degree).

Importing this module loads only :mod:`qsc.constellation`: each subcommand
imports the layers it runs when it runs, so a ``qsc perf`` process never
executes the KL or moment code, and a name replaced in its module (a test
stub, the benchmark's tracing wrapper) is the one a later command calls.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .constellation import (CodeFormatError, QSCode, QscError, code_from_json, code_to_json,
                            min_separation)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _load_code(path: str) -> QSCode:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise CodeFormatError(f"not UTF-8 text: {exc}") from None
    return code_from_json(text)


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def _csv(headers: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(headers)]
    lines.extend(",".join(r) for r in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_catalog(args: argparse.Namespace) -> int:
    from .catalog import list_catalog

    entries = list_catalog()
    if args.json:
        doc = [{
            "id": e.entry_id, "name": e.name, "modes": e.modes,
            "points": e.num_points, "codewords": e.num_codewords,
            "params": e.params, "description": e.description,
            "expected_properties": e.expected_properties,
        } for e in entries]
        print(json.dumps(doc))
        return 0
    rows = [[e.entry_id, str(e.modes), str(e.num_points), str(e.num_codewords),
             e.description] for e in entries]
    _print_table(["id", "modes", "points", "K", "description"], rows)
    return 0


def _builder_options(args: argparse.Namespace) -> dict:
    return {key: getattr(args, key) for key in ("S", "K", "n", "q", "partition")
            if getattr(args, key, None) is not None}


def cmd_build(args: argparse.Namespace) -> int:
    from .catalog import build

    code = build(args.name, args.energy, **_builder_options(args))
    _write_output(code_to_json(code), args.out)
    if args.out and args.out != "-":
        print(f"wrote {args.out}: {code.modes} modes, K={code.K}, "
              f"{len(code.point_array)} points", file=sys.stderr)
    return 0


def cmd_design(args: argparse.Namespace) -> int:
    from .moments import design_strength

    code = _load_code(args.infile)
    report = design_strength(code, args.tmax, tol=args.tol)
    if args.json:
        print(json.dumps({
            "t_sphere": report.sphere_strength,
            "t_match": report.matching_strength,
            "tol": report.tol,
            "sphere_residual_per_degree": {str(d): v for d, v in
                                           sorted(report.sphere_residual_per_degree.items())},
            "match_residual_per_degree": {str(d): v for d, v in
                                          sorted(report.match_residual_per_degree.items())},
        }))
        return 0
    rows = [[str(d), f"{rs:.3e}", f"{rm:.3e}"] for d, rs, rm in report.rows()]
    print(f"t_sphere = {report.sphere_strength}   t_match = {report.matching_strength}"
          f"   (tol {report.tol:g})")
    _print_table(["degree", "sphere residual", "match residual"], rows)
    if args.csv:
        _write_output(_csv(["degree", "sphere_residual", "match_residual"],
                           [[str(d), _fmt(rs), _fmt(rm)] for d, rs, rm in report.rows()]),
                      args.csv)
    return 0


def cmd_kl(args: argparse.Namespace) -> int:
    from .kl import detection_report

    code = _load_code(args.infile)
    report = detection_report(code, args.max_degree, args.tol,
                              include_dephasing_to=args.dephasing)
    labels, degrees = report.labels(), report.degrees.tolist()
    lam, delta = report.lam.tolist(), report.delta.tolist()
    passed = (report.delta <= args.tol).tolist()
    if args.json:
        kinds = ["monomial"] * len(report.exponents) + ["dephasing"] * len(report.dephasing)
        print(json.dumps({
            "detection_degree": report.detection_degree,
            "tol": report.tol,
            "rows": [{"label": label, "kind": kind, "degree": degree,
                      "lambda": [z.real, z.imag], "delta": d, "pass": ok}
                     for label, kind, degree, z, d, ok in zip(
                         labels, kinds, degrees, lam, delta, passed)],
        }))
        return 0
    headers = ["error", "r", "s", "lambda", "delta", "pass"]
    n = code.modes
    powers = [(str(e[:n]), str(e[n:])) for e in report.exponents.tolist()]
    powers += [("-", "-")] * len(report.dephasing)
    rows = [[label, r, s, f"{z.real:+.6e}{z.imag:+.6e}j", f"{d:.6e}", "pass" if ok else "FAIL"]
            for label, (r, s), z, d, ok in zip(labels, powers, lam, delta, passed)]
    print(f"detection degree = {report.detection_degree} at tol {args.tol:g}")
    _print_table(headers, [[c.replace(",", ";") for c in r] for r in rows])
    if args.csv:
        csv_rows = [[r[0].replace(",", ";"), r[1].replace(",", ";").replace(" ", ""),
                     r[2].replace(",", ";").replace(" ", ""), r[3], r[4], r[5]]
                    for r in rows]
        _write_output(_csv(headers, csv_rows), args.csv)
    return 0


def cmd_symmetries(args: argparse.Namespace) -> int:
    from .symmetries import X_TYPE, Z_TYPE, enumerate_phase_symmetries

    code = _load_code(args.infile)
    actions = enumerate_phase_symmetries(code, args.max_order)
    columns = list(zip(actions.phases.tolist(),
                       [Z_TYPE if z else X_TYPE for z in actions.z_type.tolist()],
                       actions.codeword_permutations.tolist()))
    if args.json:
        print(json.dumps([{"phases": phases, "classification": kind, "codeword_permutation": pi}
                          for phases, kind, pi in columns]))
        return 0
    rows = [["(" + ", ".join(f"{t:.6g}" for t in phases) + ")", kind, str(pi)]
            for phases, kind, pi in columns]
    print(f"{len(actions)} phase-rotation symmetries up to order {args.max_order}")
    _print_table(["phases", "type", "codeword permutation"],
                 [[c.replace(",", ";") for c in r] for r in rows])
    return 0


def _monomial(d: list[int]) -> str:
    return " ".join(f"z{i + 1}^{e}" if e > 1 else f"z{i + 1}" for i, e in enumerate(d) if e) or "1"


def cmd_ideal(args: argparse.Namespace) -> int:
    from .symmetries import vanishing_ideal, verify_jump_annihilates

    code = _load_code(args.infile)
    ideal = vanishing_ideal(code, args.max_degree, tol_ideal=args.tol)
    exponents = ideal.exponents.tolist()
    # each generator's degree, residual and nonzero terms (exponents, coefficient)
    polys = list(zip(ideal.degrees.tolist(), verify_jump_annihilates(code, ideal).tolist(),
                     [[(exponents[j], c) for j, c in enumerate(row) if c]
                      for row in ideal.coefficients.tolist()]))
    if args.json:
        print(json.dumps([{
            "degree": degree,
            "residual": residual,
            "terms": {" ".join(map(str, d)): [c.real, c.imag] for d, c in sorted(terms)},
        } for degree, residual, terms in polys]))
        return 0
    print(f"{len(polys)} vanishing-ideal generators up to degree {args.max_degree}")
    rows = [[str(degree), f"{residual:.3e}",
             " + ".join(f"({c.real:+.4g}{c.imag:+.4g}j) {_monomial(d)}" for d, c in terms)]
            for degree, residual, terms in polys]
    _print_table(["degree", "residual", "polynomial"],
                 [[c.replace(",", ";") for c in r] for r in rows])
    return 0


def cmd_css(args: argparse.Namespace) -> int:
    from .css import ClassicalCodeSpec, css_properties, read_generator_file

    gen_x = read_generator_file(args.gx) if args.gx else []
    gen_z = read_generator_file(args.gz) if args.gz else []
    length = args.length
    if length is None:
        if gen_x:
            length = len(gen_x[0])
        elif gen_z:
            length = len(gen_z[0])
        else:
            raise QscError("--length is required when both generator files are empty")
    spec = ClassicalCodeSpec(args.q, length, gen_x, gen_z)
    props = css_properties(spec, alpha=complex(args.alpha))
    _write_output(code_to_json(props.code), args.out)
    msg = (f"K={props.K}, {props.points_per_codeword} points per codeword, "
           f"d_x={props.d_x}, d_z={props.d_z}, separation={props.min_separation:.6g}")
    print(msg, file=sys.stderr)
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    from .fock import FockConfig, dephasing_channel_fidelity, loss_channel_fidelity

    if args.cutoff is not None and args.cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    code = _load_code(args.infile)
    start, stop, count = _parse_range(args.gammas if args.channel == "loss" else args.sigmas)
    levels = np.linspace(start, stop, count)
    if args.channel == "dephasing":
        cfg = (FockConfig.for_code(code) if args.cutoff is None
               else FockConfig(cutoff=args.cutoff, modes=code.modes))
    rows = []
    for level in levels:
        if args.channel == "loss":
            f = loss_channel_fidelity(code, float(level))
        else:
            f = dephasing_channel_fidelity(code, float(level), cfg)
        rows.append([_fmt(level), _fmt(f)])
        at = "" if args.channel == "loss" else f" at cutoff {cfg.cutoff}"
        print(f"{args.channel} {level:g}{at}: F = {f:.12g}", file=sys.stderr)
    header = ["gamma" if args.channel == "loss" else "sigma", "fidelity"]
    text = _csv(header, rows)
    if args.json:
        print(json.dumps([{header[0]: float(a), "fidelity": float(b)}
                          for a, b in rows]))
        return 0
    _write_output(text, args.csv)
    return 0


def _parse_range(spec: str) -> tuple[float, float, int]:
    parts = spec.split(":")
    if len(parts) == 1:
        parts = [parts[0], parts[0], "1"]
    if len(parts) != 3 or int(parts[2]) < 1:
        raise ValueError(f"range must be start:stop:count with count >= 1, got {spec!r}")
    start, stop = float(parts[0]), float(parts[1])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"range bounds must be finite, got {spec!r}")
    return start, stop, int(parts[2])


def cmd_table(args: argparse.Namespace) -> int:
    from .catalog import list_catalog
    from .kl import detection_report
    from .moments import design_strength
    from .symmetries import vanishing_ideal

    headers = ["code", "modes", "K", "points_per_codeword", "min_separation",
               "t_sphere", "t_match", "detection_degree", "jump_degrees"]
    rows = []
    for entry in list_catalog():
        code = entry.build(args.energy)
        size_text = "|".join(map(str, np.unique(code.codeword_sizes).tolist()))
        sep = _fmt(min_separation(code)[0]) if code.K >= 2 else "-"
        design = design_strength(code, args.tmax)
        det = detection_report(code, args.max_degree, args.tol)
        degrees = sorted(set(vanishing_ideal(code, args.ideal_degree).degrees.tolist()))
        rows.append([entry.entry_id, str(code.modes), str(code.K), size_text, sep,
                     str(design.sphere_strength), str(design.matching_strength),
                     str(det.detection_degree),
                     "|".join(map(str, degrees)) if degrees else "-"])
        print(f"table: {entry.entry_id} done", file=sys.stderr)
    if args.json:
        print(json.dumps([dict(zip(headers, r)) for r in rows]))
        return 0
    if args.markdown:
        lines = ["| " + " | ".join(headers) + " |",
                 "|" + "|".join("---" for _ in headers) + "|"]
        lines.extend("| " + " | ".join(r) + " |" for r in rows)
        print("\n".join(lines))
    else:
        _print_table(headers, rows)
    if args.csv:
        _write_output(_csv(headers, rows), args.csv)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsc",
        description="Construct and verify quantum spherical codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the built-in constellation catalog")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "build", help="build a catalog code and write its JSON",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Build a catalog code on the sphere |z|^2 = E.  Each name reads the options\n"
                    "shown (defaults in brackets); codeword mu holds the points of class mu.\n\n"
                    "  cat        --S [2] --K [2]  S*K-th roots of unity, root k of class k mod K\n"
                    "  hypercube  --n [2]          (+-1 +-i, ...) in C^n, class: minus signs mod 2\n"
                    "  orthoplex  --n [2]          +-e_j (class 0) and +-i e_j (class 1) in C^n\n"
                    "  cell24     --partition      three [default] 16-cells, two (a 16-cell and\n"
                    "                              a tesseract) or one\n"
                    "  cell600    --partition      one [default] or five 24-cells\n"
                    "  gamma      --n [2] --q [3]  (w^k1, ..., w^kn), w = e^(2 pi i/q),\n"
                    "                              class (k1 + ... + kn) mod q\n"
                    "  beta       --n [2] --q [3]  w^k e_j, class k\n"
                    "  hessian                     27 vertices in C^3, three classes of 9")
    p.add_argument("--name", required=True)
    p.add_argument("--energy", type=float, default=4.0,
                   help="squared sphere radius E (mean photon number)")
    p.add_argument("--S", type=int, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--partition", default=None)
    p.add_argument("--out", default="-")
    p.add_argument("--json", action="store_true",
                   help="(output is already JSON; accepted for uniformity)")

    p = sub.add_parser("design", help="design strengths of a code")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tmax", type=int, default=6)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--csv", default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("kl", help="error-detection (KL) report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--dephasing", type=int, default=0,
                   help="also include dephasing powers n^k up to this k")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--csv", default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("symmetries", help="classify phase-rotation symmetries")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-order", type=int, default=8)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "ideal", help="vanishing ideal (jump operators)",
        description="Vanishing-ideal generators, degree by degree.  Each has unit norm on the "
                    "monomials of z, and its last nonzero coefficient in graded order is real, "
                    "positive and absent from the other generators of its degree.")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("css", help="compile a CSS pair into a code")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--gx", default=None, help="generator file for C_X")
    p.add_argument("--gz", default=None, help="generator file for C_Z")
    p.add_argument("--length", type=int, default=None,
                   help="number of modes (required if both files are empty)")
    p.add_argument("--alpha", default="2.0",
                   help="cat amplitude per mode (complex accepted)")
    p.add_argument("--out", default="-")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "perf", help="channel fidelity with transpose recovery",
        description="Entanglement fidelity of a channel followed by transpose-channel "
                    "recovery.  Loss is exact in the code's coherent frame, for any "
                    "number of modes; dephasing uses the exact Kraus operators of the "
                    "Gaussian phase multiplier on a Fock space truncated at --cutoff "
                    "per mode, on any number of modes; an input whose arrays would "
                    "not fit the simulation's budget of entries is refused.")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--channel", choices=["loss", "dephasing"], default="loss")
    p.add_argument("--gammas", default="0.001:0.05:10",
                   help="loss levels start:stop:count")
    p.add_argument("--sigmas", default="0.01:0.2:10",
                   help="dephasing levels start:stop:count")
    p.add_argument("--cutoff", type=int, default=None,
                   help="Fock cutoff per mode, dephasing only (default: the least beyond "
                        "which no point of the code leaves more than machine epsilon)")
    p.add_argument("--csv", default="-")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("table", help="summary table over the whole catalog")
    p.add_argument("--energy", type=float, default=16.0)
    p.add_argument("--tmax", type=int, default=6)
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-3,
                   help="detection tolerance; finite-energy codes satisfy the "
                        "KL conditions only up to exp(-c E) residuals")
    p.add_argument("--ideal-degree", type=int, default=6)
    p.add_argument("--csv", default=None)
    p.add_argument("--markdown", action="store_true")
    p.add_argument("--json", action="store_true")

    return parser


_parser: argparse.ArgumentParser | None = None
_subcommands: dict[str, argparse.ArgumentParser] = {}


def _parse(argv: list[str]) -> argparse.Namespace:
    """The subcommand's own parser on everything after its name, so argparse
    runs once, not nested inside the top-level parser; the top-level parser
    only where no subcommand is named (no arguments, -h, an unknown command).
    Leftovers are reported by the top-level parser, as a nested parse does."""
    sub = _subcommands.get(argv[0]) if argv else None
    if sub is None:
        return _parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        _parser.error("unrecognized arguments: " + " ".join(extras))
    args.command = argv[0]
    return args


def run(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
        subparsers, = (a for a in _parser._actions if isinstance(a, argparse._SubParsersAction))
        _subcommands.update(subparsers.choices)
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # looked up now, not bound into the parser, so that a replaced
        # cmd_<name> (a test stub, a tracing wrapper) is the one that runs
        return globals()["cmd_" + args.command](args)
    except (QscError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
