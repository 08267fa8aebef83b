from __future__ import annotations

import json
import re

import numpy as np
import pytest

import qsc
from qsc.cli import run


@pytest.fixture
def code_file(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(qsc.code_to_json(qsc.build("cat", 4.0, S=2, K=2)))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["kl", "--max-degree", "-1"],
    ["kl", "--dephasing", "25"],
    ["kl", "--dephasing", "-3"],
    ["kl", "--tol", "nan", "--json"],
    ["kl", "--tol", "-1"],
    ["kl", "--tol", "inf"],
    ["ideal", "--tol", "nan"],
    ["ideal", "--tol", "-0.5"],
    ["ideal", "--tol", "inf"],
    ["design", "--tol", "inf"],
    ["design", "--tol", "nan"],
    ["perf", "--gammas", "0:0.1:-1"],
    ["perf", "--gammas", "abc"],
    ["perf", "--cutoff", "1"],
    ["perf", "--gammas", "nan"],
    ["perf", "--channel", "dephasing", "--sigmas", "nan"],
    ["perf", "--channel", "dephasing", "--sigmas", "inf"],
    ["symmetries", "--max-order", "0"],
    ["ideal", "--max-degree", "0"],
    ["design", "--tmax", "-1"],
], ids=" ".join)
def test_invalid_argument_values_are_usage_errors(argv, code_file, capsys):
    assert run(argv + ["--in", code_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["build", "--name", "cat", "--energy", "nan"],
    ["build", "--name", "cat", "--energy", "inf"],
    ["table", "--energy", "nan"],
], ids=" ".join)
def test_energy_that_is_not_finite_is_rejected_before_building(argv, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "E must be finite and positive" in captured.err


@pytest.mark.parametrize("argv", [
    ["build", "--name", "hypercube", "--n", "20"],
    ["build", "--name", "gamma", "--n", "20", "--q", "3"],
    ["build", "--name", "cat", "--S", "1000", "--K", "1001"],
    ["symmetries", "--max-order", "8"],
], ids=" ".join)
def test_oversized_inputs_are_refused_before_any_work(argv, tmp_path, monkeypatch, capsys):
    if argv[0] == "symmetries":
        # the 4^12 phase rotations of the 12-mode orthoplex: refused before
        # any candidate is formed or any image matched
        path = tmp_path / "orthoplex12.json"
        path.write_text(qsc.code_to_json(qsc.build("orthoplex", 4.0, n=12)))
        argv = argv + ["--in", str(path)]
        monkeypatch.setattr(np, "meshgrid", _no_work)
        monkeypatch.setattr(qsc.symmetries, "_match_images", _no_work)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "exceed" in captured.err


def _no_work(*args, **kwargs):
    raise AssertionError("work done before the budget guard")


def test_huge_css_modulus_is_one_error_line(capsys):
    assert run(["css", "--q", "1000000000000000003", "--length", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "exceed" in captured.err


@pytest.mark.parametrize("alpha", ["1e154", "1e155", "1e160", "1e200+1e200j", "nan"])
def test_css_alpha_whose_energy_is_not_a_float_is_one_error_line(alpha, monkeypatch, capsys):
    # n |alpha|^2 overflows (or is NaN): refused before any dual is enumerated
    def no_dual(*args):
        raise AssertionError("a dual was enumerated")

    monkeypatch.setattr(qsc.css, "_null_space", no_dual)
    assert run(["css", "--q", "2", "--length", "3", "--alpha", alpha]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: alpha = ") and captured.err.count("\n") == 1


def test_unreadable_code_file_is_a_computation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"modes": 1, "radius_sq": NaN, "codewords": []}')
    assert run(["kl", "--in", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_code_file_that_is_not_utf8_is_a_computation_error(tmp_path, capsys):
    # a UTF-16 byte order mark: a malformed document, not a usage error
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + qsc.code_to_json(qsc.build("cat", 4.0)).encode("utf-16-le"))
    assert run(["kl", "--in", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: not UTF-8 text: ") and err.count("\n") == 1
    with pytest.raises(qsc.CodeFormatError):
        qsc.cli._load_code(str(bad))


@pytest.mark.parametrize("content, message", [
    (b"1 1\n\xff\xfe1 1\n", "line 2: 'utf-8' codec can't decode byte 0xff"),
    (b"1 1\n\n1 x\n", "line 3: invalid literal for int() with base 10: 'x'"),
], ids=["not utf-8", "not an integer"])
def test_generator_file_that_does_not_parse_is_a_computation_error(content, message,
                                                                    tmp_path, capsys):
    bad = tmp_path / "gx.txt"
    bad.write_bytes(content)
    assert run(["css", "--q", "2", "--gx", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: generator file {bad}, {message}")
    assert err.count("\n") == 1
    with pytest.raises(qsc.CssError):
        qsc.css.read_generator_file(str(bad))


def test_build_help_names_every_builder_and_partition(capsys):
    assert run(["build", "-h"]) == 0
    out = capsys.readouterr().out
    partitions = {e.params["partition"] for e in qsc.list_catalog() if "partition" in e.params}
    assert partitions == {"one", "two", "three", "five"}
    for name in qsc.catalog._BUILDERS:   # each builder opens a row of the table
        assert f"\n  {name} " in out, name
    for partition in partitions:
        assert re.search(rf"\b{partition}\b", out), partition


def _json_out(argv, capsys):
    assert run(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_catalog(capsys):
    assert len(_json_out(["catalog", "--json"], capsys)) == len(qsc.list_catalog())


def test_build(capsys):
    code = qsc.code_from_json(json.dumps(_json_out(["build", "--name", "cat", "--S", "1"], capsys)))
    assert code == qsc.build("cat", 4.0, S=1, K=2)


def test_design(code_file, capsys):
    doc = _json_out(["design", "--in", code_file, "--tmax", "4", "--json"], capsys)
    expected = next(e.expected_properties for e in qsc.list_catalog()
                    if e.entry_id == "cat(K=2,S=2)")
    assert (doc["t_sphere"], doc["t_match"]) == (expected["t_sphere"], expected["t_match"])


def test_kl(code_file, capsys):
    doc = _json_out(["kl", "--in", code_file, "--max-degree", "1", "--tol", "0.05",
                     "--dephasing", "1", "--json"], capsys)
    assert doc["detection_degree"] == 1
    assert [row["label"] for row in doc["rows"]] == ["I", "a1", "ad1", "n1"]


def test_symmetries(code_file, capsys):
    doc = _json_out(["symmetries", "--in", code_file, "--max-order", "4", "--json"], capsys)
    assert {act["classification"] for act in doc} == {"Z-type", "X-type"}


def test_ideal(code_file, capsys):
    doc = _json_out(["ideal", "--in", code_file, "--max-degree", "4", "--json"], capsys)
    assert doc and all(g["residual"] < 1e-9 for g in doc)


def test_css(tmp_path, capsys):
    gx = tmp_path / "gx.txt"
    gx.write_text("1 1\n")
    code = qsc.code_from_json(json.dumps(_json_out(["css", "--q", "2", "--gx", str(gx)], capsys)))
    assert (code.modes, code.K) == (2, 2)


def test_perf(code_file, capsys):
    doc = _json_out(["perf", "--in", code_file, "--gammas", "0:0.01:2", "--cutoff", "40",
                     "--json"], capsys)
    assert doc[0]["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert 0.0 < doc[1]["fidelity"] < 1.0


def test_table(capsys):
    doc = _json_out(["table", "--tmax", "2", "--max-degree", "1", "--ideal-degree", "2",
                     "--json"], capsys)
    assert [row["code"] for row in doc] == [e.entry_id for e in qsc.list_catalog()]


def test_css_compiles_once(tmp_path, monkeypatch, capsys):
    calls = []
    compile_css = qsc.css.compile_css
    monkeypatch.setattr(qsc.css, "compile_css",
                        lambda *a, **kw: calls.append(a) or compile_css(*a, **kw))
    gx = tmp_path / "gx.txt"
    gx.write_text("1 1 0\n0 1 1\n")
    assert run(["css", "--q", "2", "--gx", str(gx)]) == 0
    assert qsc.code_from_json(capsys.readouterr().out).K == 2
    assert len(calls) == 1


def test_perf_loss_on_three_modes(tmp_path, capsys):
    path = tmp_path / "hessian.json"
    path.write_text(qsc.code_to_json(qsc.build("hessian", 4.0)))
    doc = _json_out(["perf", "--in", str(path), "--gammas", "0.001:0.05:4", "--json"], capsys)
    fids = [row["fidelity"] for row in doc]
    assert len(fids) == 4 and all(0.0 < f < 1.0 for f in fids)
    assert fids == sorted(fids, reverse=True) and len(set(fids)) == 4


def test_perf_dephasing_past_the_budget_is_one_error_line(tmp_path, capsys):
    # q = 2, length 3, gen_x = 111 at alpha = 2: sigma = 0.2 would need a
    # 24.3M-entry pair tensor
    path = tmp_path / "css3.json"
    spec = qsc.ClassicalCodeSpec(2, 3, gen_x=[[1, 1, 1]], gen_z=[])
    path.write_text(qsc.code_to_json(qsc.compile_css(spec, 2.0)))
    argv = ["perf", "--in", str(path), "--channel", "dephasing", "--json", "--sigmas"]
    assert _json_out(argv + ["0.1"], capsys)[0]["fidelity"] == pytest.approx(
        0.999997052975, abs=1e-12)
    assert run(argv + ["0.2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: the pair tensor of 225 Kraus operators")
    assert "above the budget 9000000" in err and err.count("\n") == 1


def test_perf_complete_dephasing_at_any_finite_sigma(tmp_path, capsys):
    # from sigma = 40 the multiplier is the identity in floating point; a
    # sigma whose square overflows gives the same value
    path = tmp_path / "two_legged.json"
    path.write_text(qsc.code_to_json(qsc.build("cat", 4.0, S=1, K=2)))
    fids = [_json_out(["perf", "--in", str(path), "--channel", "dephasing", "--sigmas", sigma,
                       "--json"], capsys)[0]["fidelity"] for sigma in ("1e3", "1.3e154", "1e300")]
    assert fids[0] == fids[1] == fids[2] == pytest.approx(0.5, abs=1e-12)


def test_perf_dephasing_at_a_given_cutoff_checks_the_tail(tmp_path, capsys):
    low, high = tmp_path / "hessian1.json", tmp_path / "hessian4.json"
    low.write_text(qsc.code_to_json(qsc.build("hessian", 1.0)))
    high.write_text(qsc.code_to_json(qsc.build("hessian", 4.0)))
    doc = _json_out(["perf", "--in", str(low), "--channel", "dephasing", "--cutoff", "16",
                     "--sigmas", "0.1", "--json"], capsys)
    assert doc[0]["fidelity"] == pytest.approx(0.97861, abs=5e-6)
    # at E = 4 the amplitudes reach sqrt(2), whose tail beyond 16 photons is too large
    assert run(["perf", "--in", str(high), "--channel", "dephasing", "--cutoff", "16",
                "--sigmas", "0.1", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "coherent tail mass" in captured.err


def test_perf_dephasing_at_the_derived_cutoff_reproduces_locked_values(tmp_path, capsys):
    import math
    from pathlib import Path
    locked = json.loads((Path(__file__).parent / "fixtures" / "perf.json").read_text())
    spec = qsc.ClassicalCodeSpec(2, 2, gen_x=[[1, 1]], gen_z=[])
    codes = {"two_legged_E4": (qsc.build("cat", 4.0, S=1, K=2), 30),
             "four_legged_E4": (qsc.build("cat", 4.0, S=2, K=2), 30),
             "css_rep2_E4": (qsc.compile_css(spec, complex(math.sqrt(2.0))), 23)}
    for name, (code, cutoff) in codes.items():
        path = tmp_path / f"{name}.json"
        path.write_text(qsc.code_to_json(code))
        doc = _json_out(["perf", "--in", str(path), "--channel", "dephasing", "--sigmas", "0.1",
                         "--json"], capsys)
        assert abs(doc[0]["fidelity"] - locked["dephasing"][f"{name}_sigma0.1"]) <= 1e-10
        assert run(["perf", "--in", str(path), "--channel", "dephasing", "--sigmas", "0.1"]) == 0
        assert f"dephasing 0.1 at cutoff {cutoff}: F = " in capsys.readouterr().err


@pytest.mark.parametrize("energy, cutoff, larger, fidelity", [(1.0, 15, 16, 0.978609532328),
                                                              (4.0, 23, 27, 0.994350682313)])
def test_perf_dephasing_on_three_modes_at_the_derived_cutoff(energy, cutoff, larger, fidelity,
                                                             tmp_path, capsys):
    path = tmp_path / "hessian.json"
    path.write_text(qsc.code_to_json(qsc.build("hessian", energy)))
    argv = ["perf", "--in", str(path), "--channel", "dephasing", "--sigmas", "0.1"]
    derived = _json_out(argv + ["--json"], capsys)[0]["fidelity"]
    assert abs(derived - _json_out(argv + ["--json", "--cutoff", str(larger)],
                                   capsys)[0]["fidelity"]) <= 1e-12
    assert derived == pytest.approx(fidelity, abs=1e-12)
    assert run(argv) == 0
    assert f"dephasing 0.1 at cutoff {cutoff}: F = " in capsys.readouterr().err


@pytest.mark.parametrize("channel", ["loss", "dephasing"])
def test_perf_refuses_an_ill_conditioned_code(channel, tmp_path, capsys):
    path = tmp_path / "cell600.json"
    path.write_text(qsc.code_to_json(qsc.build("cell600", 1.0, partition="five")))
    assert run(["perf", "--in", str(path), "--channel", channel, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: codewords are numerically")
    assert "condition number" in captured.err and "Traceback" not in captured.err


def test_design_on_a_point_at_the_origin_is_a_computation_error(tmp_path, capsys):
    path = tmp_path / "origin.json"
    path.write_text('{"modes": 1, "radius_sq": 0, '
                    '"codewords": [{"label": "0", "points": [[[0, 0]]]}]}')
    assert run(["design", "--in", str(path), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "lies at the origin" in captured.err


def test_run_dispatches_through_module_at_call_time(monkeypatch, capsys):
    listing = _json_out(["catalog", "--json"], capsys)
    assert run(["kl", "--max-degree"]) == 2
    assert "usage" in capsys.readouterr().err
    assert _json_out(["catalog", "--json"], capsys) == listing
    calls = []
    monkeypatch.setattr(qsc.cli, "cmd_catalog", lambda args: calls.append(args.json) or 0)
    assert run(["catalog", "--json"]) == 0
    assert calls == [True] and capsys.readouterr().out == ""


# Each command line's exit code, the program named in its usage line and the
# last line it prints.  A named subcommand is parsed by its own parser alone;
# what it prints must be what the top-level parser prints when it dispatches
# that subcommand itself.
PARSE_EXITS = [
    ([], 2, "qsc", "qsc: error: the following arguments are required: command"),
    (["-h"], 0, "qsc", "  -h, --help            show this help message and exit"),
    (["bogus"], 2, "qsc", "qsc: error: argument command: invalid choice: "),
    (["perf"], 2, "qsc perf", "qsc perf: error: the following arguments are required: --in"),
    (["perf", "--help"], 0, "qsc perf", "  --json"),
    (["perf", "--in"], 2, "qsc perf", "qsc perf: error: argument --in: expected one argument"),
    (["perf", "--in", "x.json", "--bogus"], 2, "qsc", "qsc: error: unrecognized arguments: --bogus"),
    (["kl", "extra", "--in", "x"], 2, "qsc", "qsc: error: unrecognized arguments: extra"),
    (["kl", "--in", "x", "--max-degree", "two"], 2, "qsc kl",
     "qsc kl: error: argument --max-degree: invalid int value: 'two'"),
]


@pytest.mark.parametrize("argv, code, prog, last_line", PARSE_EXITS,
                         ids=[" ".join(argv) or "no arguments" for argv, *_ in PARSE_EXITS])
def test_parse_exits_print_what_the_top_level_parser_prints(argv, code, prog, last_line,
                                                            monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as nested:
        qsc.cli.build_parser().parse_args(argv)
    expected = (nested.value.code or 0, *capsys.readouterr())
    assert run(argv) == code == expected[0]
    out, err = capsys.readouterr()
    assert (out, err) == expected[1:]
    printed, silent = (out, err) if code == 0 else (err, out)
    assert silent == "" and printed.startswith(f"usage: {prog} [-h]")
    assert printed.splitlines()[-1].startswith(last_line)


def test_missing_input_file_is_a_computation_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run(["perf", "--in", str(missing), "--channel", "loss", "--json"]) == 1
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{missing}'\n")


def _circle_code(points: int, codewords: int) -> qsc.QSCode:
    """``points`` distinct points on the radius-2 circle, dealt out in order to
    ``codewords`` codewords of nearly equal size."""
    z = 2.0 * np.exp(2j * np.pi * np.arange(points) / points)[:, None]
    sizes = [len(block) for block in np.array_split(np.arange(points), codewords)]
    return qsc.QSCode(1, 4.0, z, sizes, [str(mu) for mu in range(codewords)])


@pytest.mark.parametrize("argv, points, codewords, message", [
    (["kl", "--max-degree", "1"], 4097, 2, "overlap matrix of 4097 points"),
    (["perf", "--channel", "loss", "--gammas", "0.01"], 3001, 3001,
     "Gram matrix of 3001 codewords would hold 9006001 entries"),
], ids=["kl", "perf loss"])
def test_oversized_code_is_refused_with_one_line(argv, points, codewords, message,
                                                 tmp_path, capsys):
    path = tmp_path / "large.json"
    path.write_text(qsc.code_to_json(_circle_code(points, codewords)))
    assert run(argv + ["--in", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_design_far_beyond_the_float_factorials(tmp_path, capsys):
    # 171! overflows a float, and a sphere average of degree 342 or more on one
    # mode needs it.  The points +-1 (normalized) give each monomial of degree
    # d >= 1 the value +-1 against a sphere average of 0 (z^d) and the codewords
    # values that differ by 2 at odd d and agree at even d.
    path = tmp_path / "two_legged.json"
    path.write_text(qsc.code_to_json(qsc.build("cat", 4.0, S=1, K=2)))
    doc = _json_out(["design", "--in", str(path), "--tmax", "400", "--json"], capsys)
    assert (doc["t_sphere"], doc["t_match"]) == (0, 0)
    assert doc["sphere_residual_per_degree"] == {str(d): float(d > 0) for d in range(401)}
    # the second point is 2 e^{i pi}, whose imaginary part 2.4e-16 leaves its
    # powers at even d off by rounding (under 5e-14 at d = 400)
    assert doc["match_residual_per_degree"] == pytest.approx(
        {str(d): 2.0 * (d % 2) for d in range(401)}, abs=1e-13)
