"""The package's import contract: ``import qsc`` and ``import qsc.cli`` run
no analysis layer, each public name resolves to its module's own object on
first use, and a subcommand loads only the layers it runs."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsc
from qsc.cli import run

SRC = str(Path(qsc.__file__).resolve().parents[1])


# Lists, at the interpreter's exit (so also after a sys.exit), the qsc
# modules it holds, as the last line of stderr.
REPORT_AT_EXIT = """import atexit, sys
atexit.register(lambda: print(*sorted(m for m in sys.modules if m.split(".")[0] == "qsc"),
                              file=sys.stderr))
"""


def _qsc_modules_after(code: str) -> set[str]:
    """The qsc modules a fresh interpreter has loaded once it has run ``code``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", REPORT_AT_EXIT + code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def test_importing_the_cli_runs_no_analysis_layer():
    assert _qsc_modules_after("import qsc.cli") == {"qsc", "qsc.cli", "qsc.constellation"}
    assert _qsc_modules_after("import qsc") == {"qsc"}


def test_a_name_loads_only_its_layer():
    # catalog and css raise BudgetExceededError without importing moments
    assert _qsc_modules_after("import qsc; qsc.build; qsc.ClassicalCodeSpec") == {
        "qsc", "qsc.catalog", "qsc.constellation", "qsc.css"}
    assert _qsc_modules_after("import qsc; qsc.fock.ENTRY_BUDGET") == {
        "qsc", "qsc.constellation", "qsc.fock"}


def test_perf_command_loads_fock_and_no_other_analysis(tmp_path, capsys):
    path = tmp_path / "cat.json"
    path.write_text(qsc.code_to_json(qsc.build("cat", 4.0, S=1, K=2)))
    argv = ["perf", "--in", str(path), "--gammas", "0.01", "--json"]
    # what ``python -m qsc.cli perf ...`` runs
    loaded = _qsc_modules_after(f"import runpy; sys.argv = {['qsc', *argv]!r}\n"
                                "runpy.run_module('qsc.cli', run_name='__main__', alter_sys=True)")
    assert "qsc.fock" in loaded
    assert not loaded & {f"qsc.{layer}" for layer in ("kl", "moments", "symmetries",
                                                      "catalog", "css")}
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)[0]["gamma"] == 0.01


def test_every_public_name_is_its_module_attribute():
    assert len(set(qsc.__all__)) == len(qsc.__all__)
    for name in qsc.__all__:
        obj = getattr(qsc, name)
        assert obj.__module__.startswith("qsc."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert qsc.BudgetExceededError is qsc.moments.BudgetExceededError
    assert qsc.BudgetExceededError is qsc.constellation.BudgetExceededError


def test_dir_and_star_import_list_every_public_name():
    assert set(qsc.__all__) <= set(dir(qsc))
    assert "__version__" in dir(qsc)
    namespace: dict = {}
    exec("from qsc import *", namespace)
    assert {name: namespace[name] for name in qsc.__all__} == {
        name: getattr(qsc, name) for name in qsc.__all__}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qsc.no_such_name
    assert not hasattr(qsc, "cmd_perf")


def test_a_public_name_reads_the_current_module_attribute(monkeypatch):
    replaced = object()
    monkeypatch.setattr(qsc.kl, "detection_report", replaced)
    assert qsc.detection_report is replaced
    monkeypatch.undo()
    assert qsc.detection_report is qsc.kl.detection_report
