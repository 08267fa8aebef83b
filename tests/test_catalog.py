from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import qsc
from qsc.catalog import CatalogError, build, list_catalog
from qsc.constellation import code_to_json, min_separation, validate_code
from qsc.moments import BudgetExceededError, design_strength
from qsc.symmetries import enumerate_phase_symmetries

from brute_force import brute_cell600_cosets, brute_cell600_vertices, orbit, symmetry_generators

ENTRIES = list_catalog()


# Every catalog entry at E = 1, 4 and 16, and a sweep over small options and
# every partition at E = 1e-6, 3 and 1e8, each with the SHA-256 of its JSON
# as the builders gave it when the file was written.
LOCKED = json.loads((Path(__file__).parent / "fixtures" / "catalog_sha256.json").read_text())


@pytest.mark.parametrize("case", LOCKED,
                         ids=lambda c: f"{c['name']}{sorted(c['params'].items())}@{c['E']}")
def test_build_keeps_its_bytes(case):
    """Every bit of every point, labels and codeword order included."""
    text = code_to_json(build(case["name"], case["E"], **case["params"]))
    assert hashlib.sha256(text.encode()).hexdigest() == case["sha256"]


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.entry_id)
def test_every_entry_builds_and_validates(entry):
    code = entry.build(1.0)
    assert validate_code(code) == []
    assert code.modes == entry.modes
    assert code.K == entry.num_codewords
    assert sum(len(c) for c in code.codewords) == entry.num_points


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.entry_id)
def test_energy_scaling(entry):
    code = entry.build(6.25)
    for norm_sq in np.sum(np.abs(code.point_array) ** 2, axis=1):
        assert norm_sq == pytest.approx(6.25, abs=1e-9)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.entry_id)
def test_orbit_closure_under_documented_generators(entry):
    code = entry.build(4.0)
    gens = symmetry_generators(entry.name, **entry.params)
    closed = orbit(code.point_array[0], gens, max_size=len(code.point_array))
    assert len(closed) == len(code.point_array)
    for p in closed:
        assert np.min(np.linalg.norm(code.point_array - p, axis=1)) < 1e-9


def test_cat_examples():
    code = build("cat", 4.0, S=2, K=2)
    c0 = sorted(code.codewords[0][:, 0].tolist(), key=lambda z: z.real)
    assert np.allclose(c0, [-2.0, 2.0], atol=1e-12)
    c1 = code.codewords[1][:, 0].tolist()
    assert all(abs(z.real) < 1e-12 for z in c1)
    assert sorted(z.imag for z in c1) == pytest.approx([-2.0, 2.0], abs=1e-12)


def test_cat_rejects_bad_parameters():
    with pytest.raises(CatalogError):
        build("cat", 4.0, S=0, K=2)
    with pytest.raises(CatalogError):
        build("cat", -1.0, S=1, K=2)
    with pytest.raises(CatalogError):
        build("nonexistent", 4.0)
    with pytest.raises(CatalogError):
        build("cell24", 4.0, partition="seven")


_POINTS = "points exceeds the budget 16$"
_AMPLITUDES = "entries, which exceeds the budget 16$"


@pytest.mark.parametrize("budget, name, fits, over, message", [
    ("CODE_SIZE_BUDGET", "cat", {"S": 4, "K": 4}, {"S": 17, "K": 1}, _POINTS),
    ("CODE_SIZE_BUDGET", "hypercube", {"n": 2}, {"n": 3}, _POINTS),
    ("CODE_SIZE_BUDGET", "orthoplex", {"n": 4}, {"n": 5}, _POINTS),
    ("CODE_SIZE_BUDGET", "gamma", {"n": 2, "q": 4}, {"n": 2, "q": 5}, _POINTS),
    ("CODE_SIZE_BUDGET", "beta", {"n": 8, "q": 2}, {"n": 3, "q": 7}, _POINTS),
    # 8 x 2 and 12 x 3 amplitudes, then 8 x 2 and 10 x 2
    ("OVERLAP_BUDGET", "orthoplex", {"n": 2}, {"n": 3}, _AMPLITUDES),
    ("OVERLAP_BUDGET", "beta", {"n": 2, "q": 4}, {"n": 2, "q": 5}, _AMPLITUDES),
])
def test_build_counts_points_and_amplitudes_against_their_budgets(monkeypatch, budget, name,
                                                                   fits, over, message):
    monkeypatch.setattr(qsc.catalog, budget, 16)
    points = build(name, 4.0, **fits).point_array
    assert (len(points) if budget == "CODE_SIZE_BUDGET" else points.size) == 16
    with pytest.raises(BudgetExceededError, match=message):
        build(name, 4.0, **over)


class _NoWork:
    def __getattr__(self, name):
        raise AssertionError(f"{name} called before the size check")


@pytest.mark.parametrize("name, options, message", [
    ("cat", {"S": 1000, "K": 1001}, "1001000 points exceeds the budget 1000000"),
    ("hypercube", {"n": 20}, "4^20 points exceeds the budget 1000000"),
    ("hypercube", {"n": 10 ** 9}, "points exceeds the budget 1000000"),
    ("orthoplex", {"n": 250_001}, "1000004 points exceeds the budget 1000000"),
    ("gamma", {"n": 13, "q": 3}, "3^13 points exceeds the budget 1000000"),
    ("gamma", {"n": 10 ** 9, "q": 2}, "points exceeds the budget 1000000"),
    ("beta", {"n": 500_001, "q": 2}, "1000002 points exceeds the budget 1000000"),
    ("beta", {"n": 300, "q": 300}, "90000 points of 300 modes has 27000000 entries"),
    ("beta", {"n": 1000, "q": 1000}, "1000000 points of 1000 modes has 1000000000 entries"),
    ("orthoplex", {"n": 2049}, "8196 points of 2049 modes has 16793604 entries"),
])
def test_oversized_builds_are_refused_before_any_point(monkeypatch, name, options, message):
    # every array and every root of unity the builders make goes through np or cmath
    monkeypatch.setattr(qsc.catalog, "np", _NoWork())
    monkeypatch.setattr(qsc.catalog, "cmath", _NoWork())
    with pytest.raises(BudgetExceededError, match=re.escape(message)):
        build(name, 4.0, **options)


@pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf, 0.0])
def test_build_rejects_energy_that_is_not_finite_and_positive(energy):
    with pytest.raises(CatalogError, match="E must be finite and positive"):
        build("cat", energy, S=1, K=2)


def test_cell24_three_16cells():
    code = build("cell24", 1.0, partition="three")
    assert [len(c) for c in code.codewords] == [8, 8, 8]
    # each constellation is a cross-polytope: 4 antipodal axis pairs,
    # mutually orthogonal in the real inner product
    for pts in code.codewords:
        real = np.concatenate([pts.real, pts.imag], axis=1)
        gram = real @ real.T
        for i in range(8):
            row = sorted(np.round(gram[i], 9))
            assert row[0] == pytest.approx(-1.0)   # the antipode
            assert all(abs(x) < 1e-9 for x in row[1:7])
            assert row[7] == pytest.approx(1.0)    # itself


def test_cell24_two_partition_sizes():
    code = build("cell24", 1.0, partition="two")
    assert sorted(len(c) for c in code.codewords) == [8, 16]


def test_cell600_counts_and_partition():
    code = build("cell600", 1.0, partition="five")
    assert [len(c) for c in code.codewords] == [24] * 5
    sep, _ = min_separation(code)
    assert sep == pytest.approx(1.0 / ((1 + math.sqrt(5.0)) / 2.0), rel=1e-9)


def test_orthoplex_partition_sizes():
    code = build("orthoplex", 1.0, n=2)
    assert [len(c) for c in code.codewords] == [4, 4]
    assert validate_code(code) == []


def test_hypercube_point_count():
    code = build("hypercube", 1.0, n=2)
    assert sum(len(c) for c in code.codewords) == 16
    assert [len(c) for c in code.codewords] == [8, 8]


def test_cat_x_cycle_property():
    for S, K in [(2, 2), (3, 2), (3, 3)]:
        code = build("cat", 4.0, S=S, K=K)
        actions = enumerate_phase_symmetries(code, S * K)
        cycles = [pi for pi, z in zip(actions.codeword_permutations.tolist(),
                                      actions.z_type.tolist())
                  if not z and _is_full_cycle(pi)]
        assert cycles, f"cat({S},{K})"


def _is_full_cycle(perm: list[int]) -> bool:
    mu, seen = 0, set()
    while mu not in seen:
        seen.add(mu)
        mu = perm[mu]
    return len(seen) == len(perm)


def test_listing_contains_minimum_catalog():
    ids = {e.entry_id for e in ENTRIES}
    assert "cell24(partition=three)" in ids
    assert "cell600(partition=one)" in ids
    assert any(e.name == "cat" for e in ENTRIES)
    assert any(e.name == "hypercube" for e in ENTRIES)
    assert any(e.name == "orthoplex" for e in ENTRIES)
    assert any(e.name in ("gamma", "beta", "hessian") for e in ENTRIES)


def test_expected_properties_fixture_regression():
    """The committed oracle-generated values must match a fresh run."""
    checked = 0
    for entry in ENTRIES:
        props = entry.expected_properties
        assert props, f"missing fixture for {entry.entry_id}; run scripts/gen_fixtures.py"
        code = entry.build(1.0)
        report = design_strength(code, props["tmax"])
        assert report.sphere_strength == props["t_sphere"], entry.entry_id
        assert report.matching_strength == props["t_match"], entry.entry_id
        if props["min_separation"] is None:
            assert code.K == 1
        else:
            sep, _ = min_separation(code)
            assert sep == pytest.approx(props["min_separation"], rel=1e-12)
        checked += 1
    assert checked == len(ENTRIES)


def test_list_catalog_builds_nothing_and_lists_the_built_shapes(monkeypatch):
    calls = []
    monkeypatch.setattr(qsc.catalog, "build", lambda *a, **kw: calls.append(a))
    entries = list_catalog()
    assert calls == []
    monkeypatch.undo()
    for entry in entries:
        for energy in (1.0, 4.0, 16.0):
            code = build(entry.name, energy, **entry.params)
            assert (entry.modes, entry.num_points, entry.num_codewords) == \
                (code.modes, len(code.point_array), code.K), entry.entry_id


def test_cell600_matches_loop_oracle():
    vertices = qsc.catalog._cell600_vertices()
    want = brute_cell600_vertices()
    assert vertices.tobytes() == want.tobytes()   # every bit, signs of zeros included
    cosets = brute_cell600_cosets(want)
    z = qsc.catalog._real_to_complex(want)
    assert qsc.catalog._cell600_cosets(z).tolist() == cosets.tolist()
    code = build("cell600", 1.0, partition="five")
    assert [g.tobytes() for g in code.codewords] == \
        [z[cosets == c].tobytes() for c in range(5)]
