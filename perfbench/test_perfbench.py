"""Tests of the benchmark itself: self-time arithmetic, tracing, and checks.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import qsc  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import Span  # noqa: E402


def nested_spans() -> list[Span]:
    return [
        Span("cli.run", 0.0, 10.0, -1),
        Span("cli.cmd_kl", 1.0, 9.0, 0),
        Span("kl.detection_report", 2.0, 8.0, 1, info=5),
        Span("kl.kl_matrix", 3.0, 6.0, 2),
        Span("moments.count_multi_indices", 4.0, 5.0, 3),
        Span("constellation.code_from_json", 8.5, 8.9, 1),
    ]


def test_self_time_subtracts_other_layers_through_same_layer_chain():
    own = layers.self_times(nested_spans())
    # run: 10 - detection_report 6 - code_from_json 0.4
    assert own == pytest.approx([3.6, 1.6, 5.0, 2.0, 1.0, 0.4])


def test_pass_tallies_attribute_self_time_and_counts():
    tally = layers.pass_tallies(nested_spans())
    assert tally["cli.self_s"] == pytest.approx(3.6)
    assert tally["kl.detection_report_s"] == pytest.approx(5.0)
    assert tally["kl.kl_matrix_s"] == pytest.approx(2.0)
    assert tally["cli.commands"] == 1
    assert tally["kl.errors_evaluated"] == 5
    assert tally["trace.spans"] == 6


def test_error_counted_once_per_layer_it_leaves():
    spans = [
        Span("cli.run", 0.0, 4.0, -1),
        Span("cli.cmd_kl", 0.5, 3.5, 0, error=True),
        Span("kl.detection_report", 1.0, 3.0, 1, error=True, info=0),
        Span("kl.kl_matrix", 1.5, 2.5, 2, error=True),
    ]
    tally = layers.pass_tallies(spans)
    assert tally["kl.errors"] == 1
    assert tally["cli.errors"] == 1


def test_per_layer_metrics_are_per_pass_and_complete():
    tally = layers.pass_tallies(nested_spans())
    metrics = layers.per_layer_metrics([tally, tally], overhead_s=0.25)
    assert set(metrics) == {name for name, _ in layers.PER_LAYER_METRICS}
    assert metrics["cli.commands"]["value"] == 1
    assert metrics["cli.self_s"]["value"] == pytest.approx(3.6)
    assert metrics["trace.overhead_s"]["value"] == 0.25


@pytest.fixture
def catalog_commands(tmp_path):
    commands = workloads.catalog_survey(3, tmp_path, qsc)
    # the two-legged cat: build, design, kl, symmetries, ideal
    return commands[:5]


def test_tracer_covers_names_imported_into_cli(catalog_commands):
    import qsc.cli
    import qsc.kl

    original = qsc.cli.detection_report
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert qsc.cli.detection_report is not original
        assert qsc.cli.detection_report.__wrapped__ is original
        outcomes = run.run_pass(qsc.cli, catalog_commands[2:3])
    finally:
        tracer.uninstall()
    assert qsc.cli.detection_report is original
    assert qsc.kl.kl_matrix.__name__ == "kl_matrix"
    assert outcomes[0].rc == 0
    spans = tracer.take()
    names = [s.name for s in spans]
    assert names[0] == "cli.run"
    assert "constellation.code_from_json" in names
    report = names.index("kl.detection_report")
    assert spans[report].info == len(json.loads(outcomes[0].stdout)["rows"])
    assert spans[names.index("kl.kl_matrix")].parent == report


def test_correct_outputs_pass_their_checks(catalog_commands):
    import qsc.cli

    outcomes = run.run_pass(qsc.cli, catalog_commands)
    assert run.check_pass(catalog_commands, outcomes, set()) == [[]] * len(outcomes)


def corrupt_build(stdout: str) -> str:
    doc = json.loads(stdout)
    doc["radius_sq"] *= 1.0 + 1e-12
    return json.dumps(doc)


def corrupt_kl(stdout: str) -> str:
    doc = json.loads(stdout)
    for row in doc["rows"]:
        row["lambda"][0] += 1e-6
    return json.dumps(doc)


def corrupt_design(stdout: str) -> str:
    doc = json.loads(stdout)
    doc["t_sphere"] += 1
    return json.dumps(doc)


def corrupt_ideal(stdout: str) -> str:
    doc = json.loads(stdout)
    key = next(iter(doc[0]["terms"]))
    doc[0]["terms"][key][0] += 0.1
    return json.dumps(doc)


@pytest.mark.parametrize("index, corrupt", [
    (0, corrupt_build),
    (1, corrupt_design),
    (2, corrupt_kl),
    (3, lambda s: s.replace('"X-type"', '"Z-type"')),
    (4, corrupt_ideal),
    (2, lambda s: s[: len(s) // 2]),
])
def test_corrupted_output_is_a_failure(catalog_commands, index, corrupt):
    import qsc.cli

    outcomes = run.run_pass(qsc.cli, catalog_commands)
    verified: set = set()
    assert run.check_pass(catalog_commands, outcomes, verified)[index] == []
    bad = outcomes[index]
    bad.stdout = corrupt(bad.stdout)
    # the good output was verified already; the corrupted one is checked anew
    assert run.check_pass(catalog_commands, outcomes, verified)[index] != []


def test_nonzero_exit_is_a_failure(catalog_commands):
    outcome = workloads.Outcome(1, "", "error: something broke\n", 0.01)
    assert catalog_commands[1].check(outcome) == ["exit code 1: error: something broke"]


def test_locked_fidelity_mismatch_is_a_failure():
    rows = [{"gamma": 0.001, "fidelity": 0.99206365}, {"gamma": 0.002, "fidelity": 0.98}]
    outcome = workloads.Outcome(0, json.dumps(rows), "", 0.01)
    locked = {0.001: 0.992063658248439}
    assert workloads.check_perf(outcome, "gamma", "0.001:0.002:2", locked, True) != []
    rows[0]["fidelity"] = 0.992063658248
    outcome.stdout = json.dumps(rows)
    assert workloads.check_perf(outcome, "gamma", "0.001:0.002:2", locked, True) == []


def test_compiled_css_file_with_a_moved_point_is_a_failure(tmp_path):
    import qsc.cli

    everything = workloads.css_detect(5, tmp_path, qsc)
    smallest = len(workloads.CSS_SHAPES) - 1
    commands = [everything[workloads.CSS_ORDER.index((smallest, step))] for step in (0, 1)]
    outcomes = run.run_pass(qsc.cli, commands)
    assert run.check_pass(commands, outcomes, set()) == [[], []]
    doc = json.loads(commands[0].out_file.read_text())
    doc["codewords"][0]["points"][0][0][1] += 1e-3
    commands[0].out_file.write_text(json.dumps(doc))
    assert run.check_pass(commands, outcomes, set())[0] != []


def test_error_labels_round_trip():
    assert workloads.parse_error_label("I", 2) == ((0, 0), (0, 0))
    assert workloads.parse_error_label("ad1 a1^2 a2", 2) == ((1, 0), (2, 1))
    with pytest.raises(ValueError):
        workloads.parse_error_label("b1", 2)


def test_stall_count_compares_repeats_of_one_command():
    fast = workloads.Outcome(0, "", "", 0.01)
    slow = workloads.Outcome(0, "", "", 0.45)
    assert run.stalls([[fast, fast], [slow, fast]]) == (1, 4)
    assert run.stalls([[slow, fast]]) == (0, 0)


def test_css_catalog_keeps_each_workloads_order(tmp_path):
    merged = [c.argv for c in workloads.css_catalog(2, tmp_path, qsc)]
    css = [c.argv for c in workloads.css_detect(2, tmp_path, qsc)]
    catalog = [c.argv for c in workloads.catalog_survey(2, tmp_path, qsc)]
    assert len(merged) == len(css) + len(catalog)
    assert [a for a in merged if a in css] == css
    assert [a for a in merged if a in catalog] == catalog
