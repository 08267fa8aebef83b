"""The package's import contract: ``import qsc`` and ``import qsc.cli`` run
no analysis layer, each public name resolves to its module's own object on
first use, and a subcommand loads only the layers it runs."""

from __future__ import annotations

import ast
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
    assert _qsc_modules_after("import qsc; qsc.fock.FockConfig") == {
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


class _NoArrays:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} called before the budget check")


def _no_work(*args, **kwargs):
    raise AssertionError("work done before the budget check")


def _refused(call, *args):
    with pytest.raises(qsc.BudgetExceededError, match="16 entries, above the budget 15$"):
        call(*args)


def test_one_entry_budget_reaches_every_check(tmp_path, monkeypatch, capsys):
    # each input below needs 16 entries: four points or codewords of one mode
    # (16 overlaps, 16 images of 4 candidates, 4 x 4 values to degree 3,
    # 4 x 4 embedding amplitudes, a 4 x 4 Gram matrix), 16 built points, 16 levels
    code = qsc.build("cat", 4.0, S=1, K=4)
    path = tmp_path / "cat4.json"
    path.write_text(qsc.code_to_json(code))
    monkeypatch.setattr(qsc.constellation, "ENTRY_BUDGET", 15)
    with monkeypatch.context() as patched:
        patched.setattr(qsc.catalog, "np", _NoArrays())
        patched.setattr(qsc.catalog, "cmath", _NoArrays())
        _refused(lambda: qsc.build("cat", 4.0, S=1, K=16))
    with monkeypatch.context() as patched:
        patched.setattr(qsc.symmetries, "monomial_values", _no_work)
        _refused(qsc.vanishing_ideal, code, 3)
        patched.setattr(qsc.symmetries.np, "meshgrid", _no_work)
        patched.setattr(qsc.symmetries, "_match_images", _no_work)
        _refused(qsc.enumerate_phase_symmetries, code, 4)
    with monkeypatch.context() as patched:
        patched.setattr(qsc.fock, "np", _NoArrays())
        _refused(qsc.embed_codewords, code, qsc.FockConfig(cutoff=4, modes=1))
        _refused(qsc.loss_channel_fidelity, code, 0.01)
        _refused(qsc.dephasing_channel_fidelity, code, 0.1)
        patched.setattr(qsc.cli, "np", _NoArrays())
        assert run(["perf", "--in", str(path), "--gammas", "0:0.1:16"]) == 1
        assert capsys.readouterr().err.endswith("16 entries, above the budget 15\n")
    _refused(lambda: code.overlap)
    assert not {"overlap", "codeword_norms_sq"} & set(vars(code))


def test_no_module_but_constellation_defines_an_entry_budget():
    # the count budgets bound enumeration work; entries have one budget and one
    # check, and temporaries one block size and one rule
    defined = {}
    for path in Path(qsc.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            names = ([t.id for t in node.targets if isinstance(t, ast.Name)]
                     if isinstance(node, ast.Assign) else [getattr(node, "name", None)])
            defined.update({name: defined.get(name, []) + [path.stem] for name in names
                            if name and (name.endswith(("_BUDGET", "_BLOCK", "_ENTRIES", "_ROWS",
                                                        "_PAIRS"))
                                         or name in ("_check_entries", "_block_rows"))})
    assert defined == {"CODE_SIZE_BUDGET": ["constellation"], "ENTRY_BUDGET": ["constellation"],
                       "_check_entries": ["constellation"], "INDEX_BUDGET": ["moments"],
                       "ERROR_BUDGET": ["kl"], "IDEAL_COLUMN_BUDGET": ["symmetries"],
                       "BLOCK_ENTRIES": ["constellation"], "_block_rows": ["constellation"],
                       "SMALL_PAIRS": ["constellation"]}
