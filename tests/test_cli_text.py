"""The CLI's outputs other than --json, locked as text: the tables printed on
stdout, the --csv files, perf's CSV on stdout and ``table --markdown``, on
the two-legged cat and the 2-mode repetition code at E = 4.

A number below 1e-12 in both outputs (a residual or an imaginary part at
rounding level) compares as equal, and so do the widths of the padding and
table rules around it, which such a number may widen; every other character
compares exactly.  To rewrite the fixture after an intended change of
output, run ``PYTHONPATH=src python tests/test_cli_text.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

import qsc
from qsc.cli import run

FIXTURE = Path(__file__).parent / "fixtures" / "cli_text.json"
CODES = {
    "cat": lambda: qsc.build("cat", 4.0, S=1, K=2),
    "rep": lambda: qsc.compile_css(qsc.ClassicalCodeSpec(2, 2, gen_x=[[1, 1]], gen_z=[]), 2.0),
}
# "{code}" is the input file of each code, "{csv}" a file the command writes
COMMANDS = [
    ["design", "--in", "{code}", "--csv", "{csv}"],
    ["kl", "--in", "{code}", "--csv", "{csv}"],
    ["kl", "--in", "{code}", "--dephasing", "2", "--csv", "{csv}"],
    ["symmetries", "--in", "{code}"],
    ["ideal", "--in", "{code}"],
    ["perf", "--in", "{code}"],
    ["perf", "--in", "{code}", "--csv", "{csv}"],
]
CASES = ([["catalog"], ["table", "--energy", "4", "--csv", "{csv}"],
          ["table", "--energy", "4", "--markdown"]]
         + [[word.replace("{code}", "{%s}" % name) for word in argv]
            for name in CODES for argv in COMMANDS])

_NUMBER = re.compile(r"([-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?)")
_PADDING = re.compile(r"( ) +|(-)-+")


def _outputs(argv: list[str], tmp_path: Path) -> dict:
    """Exit code, stdout, stderr and the --csv file of one command."""
    files = {"csv": str(tmp_path / "out.csv")}
    for name, make in CODES.items():
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(qsc.code_to_json(make()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([word.format(**files) for word in argv])
    csv = Path(files["csv"])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "csv": csv.read_text() if csv.exists() else None}


def _assert_same_text(actual: str, expected: str) -> None:
    a, b = _NUMBER.split(actual), _NUMBER.split(expected)
    assert len(a) == len(b), (actual, expected)
    for i, (x, y) in enumerate(zip(a, b)):
        if x == y:
            continue
        if i % 2:   # numbers
            assert abs(float(x)) < 1e-12 and abs(float(y)) < 1e-12, (x, y)
        else:
            assert _PADDING.sub(r"\1\1\2\2", x) == _PADDING.sub(r"\1\1\2\2", y), (x, y)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_text_outputs_keep_their_bytes(argv, tmp_path):
    expected = json.loads(FIXTURE.read_text())[" ".join(argv)]
    actual = _outputs(argv, tmp_path)
    assert actual["exit"] == expected["exit"] == 0
    assert (actual["csv"] is None) == (expected["csv"] is None)
    for stream in ("stdout", "stderr", "csv"):
        if expected[stream] is not None:
            _assert_same_text(actual[stream], expected[stream])


def test_comparison_tolerates_only_rounding_level_numbers():
    _assert_same_text("x  +1.0e-16j  |\n----\n", "x  +0j        |\n--------\n")
    for changed in ("x  +1.0e-11j  |\n----\n", "y  +0j  |\n----\n", "x +0j  |\n----\n",
                    "x  +0j  |\n-\n"):
        with pytest.raises(AssertionError):
            _assert_same_text(changed, "x  +0j  |\n----\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {}
        for i, argv in enumerate(CASES):
            (Path(tmp) / str(i)).mkdir()
            doc[" ".join(argv)] = _outputs(argv, Path(tmp) / str(i))
    FIXTURE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc)} cases to {FIXTURE}", file=sys.stderr)
