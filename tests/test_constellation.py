from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsc
from qsc.constellation import (
    CodeFormatError,
    DimensionMismatchError,
    QSCode,
    code_from_json,
    code_to_json,
    distance_blocks,
    min_separation,
    validate_code,
)

import qsc.constellation as constellation_mod
from brute_force import (
    OrbitOverflowError,
    brute_code_to_json,
    brute_min_separation,
    brute_overlap,
    brute_pairs_within,
    brute_violations,
    orbit,
    symmetry_generators,
)
from conftest import CSS_SHAPES, code_of, constellations_as_lists, css_of_shape, random_unitary


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("points", [np.zeros((0, 2)), np.zeros((2, 0)), np.ones(2), [[]],
                                    [[1.0], [1.0, 0.0]]],
                         ids=["no-points", "no-modes", "one-axis", "empty-row", "ragged"])
def test_code_requires_a_nonempty_stack_of_points(points):
    with pytest.raises(ValueError):
        QSCode(2, 1.0, points, [2], ["0"])


@pytest.mark.parametrize("bad", [float("nan"), complex(1.0, float("inf"))])
def test_code_requires_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="finite"):
        QSCode(1, 1.0, [[1.0], [bad]], [2], ["0"])


def test_code_stores_one_read_only_copy():
    rows = np.array([[1.0, 0.0], [0.0, 1j]])
    code = QSCode(2, 1.0, rows, [1, 1], ["0", "1"])
    rows[0, 0] = 5.0
    assert code.point_array[0, 0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        code.point_array[0, 0] = 0
    assert not code.codeword_sizes.flags.writeable
    assert code == code_of(2, 1.0, {"0": [[1.0, 0.0]], "1": [[0.0, 1j]]})
    assert hash(code) == hash(code_of(2, 1.0, [[[1.0, 0.0]], [[0.0, 1j]]]))
    assert code != code_of(2, 1.0, {"0": [[1.0, 0.0]], "2": [[0.0, 1j]]})
    assert code != QSCode(2, 1.0, rows, [2], ["0"])


def test_signed_zeros_compare_and_hash_equal():
    def code(zero):
        return code_of(2, 4.0, [[[2.0, zero]], [[zero, 2.0]]])

    a, b = code(0j), code(complex(-0.0, -0.0))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1 and b in {a}


def test_code_rejects_mode_mismatch():
    with pytest.raises(DimensionMismatchError):
        QSCode(2, 1.0, [[1.0]], [1], ["0"])


@pytest.mark.parametrize("radius_sq", [float("nan"), float("inf"), -1.0])
def test_code_rejects_bad_radius(radius_sq):
    with pytest.raises(ValueError):
        QSCode(1, radius_sq, [[1.0]], [1], ["0"])


# ---------------------------------------------------------------------------
# the stacked frame
# ---------------------------------------------------------------------------

def test_frame_is_stacked_by_codeword_cached_and_read_only(cat33):
    Z = cat33.point_array
    assert Z is cat33.point_array
    assert np.array_equal(Z, np.concatenate(cat33.codewords))
    assert cat33.codeword_index.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert cat33.codeword_starts.tolist() == [0, 3, 6]
    for arr in (Z, cat33.codeword_index, cat33.overlap, cat33.codeword_norms_sq):
        assert not arr.flags.writeable


def test_frame_overlap_matches_pairwise_overlaps(repetition_css):
    points = repetition_css.point_array
    expected = np.array([[brute_overlap(p, q) for q in points] for p in points])
    assert np.max(np.abs(repetition_css.overlap - expected)) < 1e-14
    norms = [sum(brute_overlap(z, w) for z in c for w in c).real
             for c in repetition_css.codewords]
    assert np.allclose(repetition_css.codeword_norms_sq, norms, rtol=1e-14, atol=0.0)


def test_overlap_is_refused_above_its_budget(monkeypatch):
    # the budget admits the q = 2, length-12 CSS code: 4,096 points, 256 MB
    assert constellation_mod.OVERLAP_BUDGET == 4096 ** 2
    monkeypatch.setattr(constellation_mod, "OVERLAP_BUDGET", 16)
    four, five = (QSCode(1, 4.0, 2.0 * np.exp(2j * np.pi * np.arange(n) / n)[:, None], [n], ["0"])
                  for n in (4, 5))
    assert four.scaled_overlap(0.5).shape == four.overlap.shape == (4, 4)
    with pytest.raises(qsc.BudgetExceededError, match="overlap matrix of 5 points has 25 "
                                                  "entries, which exceeds the budget 16"):
        five.scaled_overlap(0.5)
    with pytest.raises(qsc.BudgetExceededError, match="exceeds the budget"):
        qsc.detection_report(five, 1, 1e-6)


def test_codewords_are_views_of_the_frame(cat33):
    code = QSCode(1, 4.0, cat33.point_array, cat33.codeword_sizes, cat33.labels)
    assert code == cat33
    assert [c.tolist() for c in code.codewords] == [code.point_array[a:a + 3].tolist()
                                                    for a in (0, 3, 6)]
    assert all(np.shares_memory(c, code.point_array) and not c.flags.writeable
               for c in code.codewords)
    assert code.codewords is code.codewords


@pytest.mark.parametrize("sizes, labels", [
    ([3, 3, 2], ["0", "1", "2"]), ([3, 3, 4], ["0", "1", "2"]), ([3, 6], ["0", "1", "2"]),
    ([3, 0, 6], ["0", "1", "2"]), ([], []),
])
def test_code_rejects_sizes_that_do_not_cover_the_points(cat33, sizes, labels):
    with pytest.raises(ValueError):
        QSCode(1, 4.0, cat33.point_array, sizes, labels)


_EQUAL_SIZE_CODES = ([(e.entry_id, e.build(4.0)) for e in qsc.list_catalog()
                      if e.entry_id != "cell24(partition=two)"]
                     + [(f"css{shape}", css_of_shape(*shape)) for shape in CSS_SHAPES])


@pytest.mark.parametrize("code", [code for _, code in _EQUAL_SIZE_CODES],
                         ids=[name for name, _ in _EQUAL_SIZE_CODES])
def test_block_sums_of_equal_codewords_match_reduceat(code):
    # the reshaped sums add in another order: each may differ from reduceat's
    # by rounding, far below 1e-15 of the sum of its terms' magnitudes
    assert code._common_size * code.K == len(code.point_array)
    rng = np.random.default_rng(len(code.point_array))
    N, K, starts = len(code.point_array), code.K, code.codeword_starts
    for M, axis in ((code.overlap, 0), (code.overlap, 1),
                    (rng.standard_normal((N, 3)) + 1j * rng.standard_normal((N, 3)), 0),
                    (rng.standard_normal((K, N, 2)) + 1j * rng.standard_normal((K, N, 2)), 1)):
        scale = np.add.reduceat(np.abs(M), starts, axis=axis)
        assert np.all(np.abs(code._block_sums(M, axis) - np.add.reduceat(M, starts, axis=axis))
                      <= 1e-15 * scale)
    sums, scale = (np.diag(np.add.reduceat(np.add.reduceat(M, starts, axis=0), starts, axis=1))
                   for M in (code.overlap, np.abs(code.overlap)))
    assert np.all(np.abs(code.codeword_norms_sq - sums) <= 1e-15 * scale)


def test_overlap_of_a_point_with_itself_is_one_at_a_large_energy():
    # conj(z).z - |z|^2 rounds to about E eps, a phase that read as a spurious
    # imaginary codeword norm from E = 1e6; at E = 1e8 every other overlap of
    # the gamma code underflows, so each norm is its codeword's size
    from qsc.fock import loss_channel_fidelity
    from qsc.kl import detection_report

    code = qsc.build("gamma", 1e8, n=2, q=3)
    assert np.all(np.diag(code.overlap) == 1.0)
    assert np.array_equal(code.codeword_norms_sq, code.codeword_sizes.astype(float))
    assert detection_report(code, 1, 1e-6).detection_degree == 1
    assert 0.0 <= loss_channel_fidelity(code, 0.01) <= 1.0


# ---------------------------------------------------------------------------
# validate_code: violations are data
# ---------------------------------------------------------------------------

def test_validate_valid_two_legged_cat(two_legged):
    assert validate_code(two_legged) == []


def test_validate_reports_sphere_violation():
    alpha = 2.0
    code = code_of(1, alpha ** 2, [[[alpha]], [[-alpha], [alpha * 1.01]]])
    violations = validate_code(code)
    assert len(violations) == 1
    v = violations[0]
    assert v.kind == "sphere"
    assert v.constellation == "1"
    assert v.point_index == 1
    assert math.isclose(v.residual, abs((alpha * 1.01) ** 2 - alpha ** 2))


def test_validate_reports_shared_point():
    alpha = 2.0
    code = code_of(1, alpha ** 2, [[[alpha]], [[-alpha], [alpha]]])
    kinds = {v.kind for v in validate_code(code)}
    assert kinds == {"disjoint"}


def _planted_code(scale: float = 1.0) -> QSCode:
    """Every kind of violation, interleaved across codewords: duplicates,
    off-sphere points, points shared between codewords and a near-duplicate
    (distance 1e-12 scale) shared three ways; on the sphere E = 4 scale^2."""
    rows = {
        "a": [[2.0, 0.0], [0.0, 2j], [2.0, 0.0], [2.5, 0.0]],
        "b": [[-2.0, 0.0], [0.0, 2j], [0.0, 2j + 1e-12], [0.0, 3.0]],
        "c": [[0.0, -2.0], [2.0, 0.0], [-2.0, 0.0], [0.0, 2.0]],
    }
    return code_of(2, 4.0 * scale ** 2,
                   {label: np.array(r) * scale for label, r in rows.items()})


def _tiny_planted_code() -> QSCode:
    """The planted code at scale 1e-9, where every point lies within 1e-9 of
    every other: in units of the radius it has the same violations."""
    return _planted_code(1e-9)


def _as_tuples(violations):
    return [(v.kind, v.constellation, v.point_index, v.other_constellation,
             v.other_point_index, v.residual) for v in violations]


# Blocks of 5 point pairs split the 12 x 12 pass into many row blocks.
@pytest.mark.parametrize("block_pairs", [constellation_mod.DISTANCE_BLOCK_PAIRS, 5])
@pytest.mark.parametrize("build", [_planted_code, _tiny_planted_code,
                                   lambda: qsc.build("cell24", 4.0),
                                   lambda: qsc.build("cell600", 1.0, partition="five")],
                         ids=["planted", "planted-tiny", "cell24", "cell600-five"])
def test_validate_matches_brute_force(build, block_pairs, monkeypatch):
    monkeypatch.setattr(constellation_mod, "DISTANCE_BLOCK_PAIRS", block_pairs)
    code = build()
    mine = _as_tuples(validate_code(code))
    brute = brute_violations(code.radius_sq, list(code.labels), constellations_as_lists(code))
    assert [v[:5] for v in mine] == [v[:5] for v in brute]
    for a, b in zip(mine, brute):
        assert abs(a[5] - b[5]) <= 1e-12
    if build in (_planted_code, _tiny_planted_code):
        assert {v[0] for v in mine} == {"sphere", "duplicate", "disjoint"}
        assert [v[:5] for v in mine] == [v[:5] for v in _as_tuples(validate_code(_planted_code()))]


def test_validate_reports_duplicate_point():
    code = code_of(1, 4.0, [[[2.0], [2.0]]])
    violations = validate_code(code)
    assert [v.kind for v in violations] == ["duplicate"]
    assert "coincide" in violations[0].describe()


def test_a_negative_point_tolerance_matches_nothing_at_e_zero():
    # in units of the radius the threshold is tol_point sqrt(0): 0.0 for the
    # default, which finds the coincident points, and -0.0 for -1.0
    code = code_of(1, 0.0, [[[0.0], [0.0]]])
    assert [v.kind for v in validate_code(code)] == ["duplicate"]
    assert validate_code(code, tol_point=-1.0) == []


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def distances(rows) -> np.ndarray:
    """Every distance |a - b| between the rows, by distance_blocks."""
    rows = np.array(rows, dtype=np.complex128)
    return np.vstack([block for _, _, block in distance_blocks(rows, rows)])


def test_distance_examples():
    assert distances([[2.0], [-2.0]])[0, 1] == 4.0
    p = [1.3 - 0.2j, 0.4j]
    assert distances([p, p])[0, 1] == 0.0
    assert math.isclose(distances([[1.0, 0.0], [0.0, 1.0]])[0, 1], math.sqrt(2.0))


def test_frame_rejects_rows_of_another_mode_count():
    with pytest.raises(DimensionMismatchError):
        QSCode(2, 1.0, [[1.0], [-1.0]], [2], ["0"])


finite_complex = st.builds(
    complex,
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
)


@given(st.lists(finite_complex, min_size=2, max_size=2),
       st.lists(finite_complex, min_size=2, max_size=2),
       st.lists(finite_complex, min_size=2, max_size=2))
def test_triangle_inequality(a, b, c):
    d = distances([a, b, c])
    assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-9


@settings(max_examples=25)
@given(st.integers(0, 2 ** 32 - 1))
def test_unitary_is_isometry(seed):
    rng = np.random.default_rng(seed)
    u = random_unitary(3, rng)
    p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert abs(np.linalg.norm(u @ p - u @ q) - np.linalg.norm(p - q)) < 1e-12


# ---------------------------------------------------------------------------
# min separation
# ---------------------------------------------------------------------------

def test_min_separation_two_legged(two_legged):
    dist, witness = min_separation(two_legged)
    assert dist == 4.0
    assert witness == (0, 1, 0, 0)


def test_min_separation_four_legged_alpha_one():
    code = qsc.build("cat", 1.0, S=2, K=2)
    dist, _ = min_separation(code)
    assert math.isclose(dist, math.sqrt(2.0))


def test_min_separation_cell24_matches_brute_force():
    code = qsc.build("cell24", 1.0, partition="three")
    dist, witness = min_separation(code)
    assert math.isclose(dist, 1.0, rel_tol=1e-12)
    expected = brute_min_separation(constellations_as_lists(code))
    assert math.isclose(dist, expected, rel_tol=1e-12)
    mu, nu, i, j = witness
    d = np.linalg.norm(code.codewords[mu][i] - code.codewords[nu][j])
    assert d == dist


@pytest.mark.parametrize("block_pairs", [constellation_mod.DISTANCE_BLOCK_PAIRS, 1])
def test_min_separation_tie_breaks_by_codeword_pair_first(block_pairs, monkeypatch):
    # d(a1, b0) = d(a0, c0) = 1: the witness orders (mu, nu) before (i, j),
    # so the pair in codewords (0, 1) wins even though a0 comes before a1
    monkeypatch.setattr(constellation_mod, "DISTANCE_BLOCK_PAIRS", block_pairs)
    code = code_of(1, 0.0, {"a": [[0.0], [10.0]], "b": [[11.0]], "c": [[1.0]]})
    assert min_separation(code) == (1.0, (0, 1, 1, 0))


def test_min_separation_requires_two_codewords():
    code = qsc.build("cell600", 1.0)
    with pytest.raises(ValueError):
        min_separation(code)


def test_min_separation_witness_is_lexicographically_first():
    # all cross distances equal: the witness must be (0, 1, 0, 0)
    code = qsc.build("cat", 1.0, S=2, K=2)
    _, witness = min_separation(code)
    assert witness == (0, 1, 0, 0)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def test_orbit_fourth_roots():
    c = orbit([2.0], [np.array([[1j]])], max_size=8)
    assert len(c) == 4
    values = sorted(c[:, 0].tolist(), key=lambda z: (z.real, z.imag))
    expected = sorted([2 + 0j, 2j, -2 + 0j, -2j], key=lambda z: (z.real, z.imag))
    assert np.allclose(values, expected)


def test_orbit_swap():
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    c = orbit([1.0, 0.0], [swap], max_size=4)
    assert len(c) == 2


def test_orbit_24cell_closure():
    code = qsc.build("cell24", 1.0, partition="one")
    gens = symmetry_generators("cell24")
    c = orbit(code.point_array[0], gens, max_size=24)
    assert len(c) == 24
    for p in c:
        assert np.min(np.linalg.norm(code.point_array - p, axis=1)) < 1e-9


def test_orbit_is_closed_under_generators():
    gens = symmetry_generators("cell600")
    c = orbit([1.0, 0.0], gens, max_size=120)
    assert len(c) == 120
    for g in gens:
        for p in c[:10]:
            assert np.min(np.linalg.norm(c - g @ p, axis=1)) < 1e-9


def test_orbit_overflow():
    with pytest.raises(OrbitOverflowError):
        orbit([2.0], [np.array([[1j]])], max_size=3)


def test_non_unitary_generator_rejected():
    with pytest.raises(qsc.QscError, match="preserve the sphere radius"):
        orbit([0.0, 1.0], [np.array([[1.0, 0.0], [0.0, 1.5]])], max_size=4)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def test_json_two_legged_document(two_legged):
    doc = json.loads(code_to_json(two_legged))
    assert doc["modes"] == 1
    assert doc["radius_sq"] == 4.0
    assert len(doc["codewords"]) == 2
    assert doc["codewords"][0]["points"] == [[[2.0, 0.0]]]


# at E = 1e7 and above rounding alone puts |z|^2 more than 1e-9 off E
@pytest.mark.parametrize("energy", [4.0, 1e7, 1e8, 1e12])
@pytest.mark.parametrize("entry", qsc.list_catalog(), ids=lambda e: e.entry_id)
def test_json_round_trip_catalog(entry, energy):
    code = entry.build(energy)
    text = code_to_json(code)
    loaded = code_from_json(text)
    assert loaded == code
    assert code_to_json(loaded) == text


def test_json_round_trip_irrational_coordinates():
    code = qsc.build("cell600", 3.7)
    assert code_from_json(code_to_json(code)) == code


def test_json_missing_codewords():
    with pytest.raises(CodeFormatError):
        code_from_json('{"modes": 1, "radius_sq": 4.0}')


def test_json_parse_error_reports_position():
    with pytest.raises(CodeFormatError, match="line"):
        code_from_json('{"modes": 1,,}')


_GOOD_CODEWORDS = [{"label": "0", "points": [[[2.0, 0.0]]]}]


def _neighbours(size: int, width: int, radius: float) -> list[dict]:
    """Two valid codewords of ``size`` points each, of ``width`` modes, on the
    sphere of the given radius and away from every point the malformed
    documents below hold (phases 0.3 and up, 2.3 and up, on mode 1)."""
    return [{"label": label, "points": [
        [[radius * math.cos(t), radius * math.sin(t)]] + [[0.0, 0.0]] * (width - 1)
        for t in (base + 0.2 * k for k in range(size))]}
        for label, base in (("a", 0.3), ("c", 2.3))]


def _with_neighbours(doc: dict) -> dict:
    """The document with a valid codeword before and after its first, each
    of as many 1-mode points on the radius-2 sphere."""
    points = doc["codewords"][0]["points"]
    a, c = _neighbours(max(1, len(points)), 1, 2.0)
    return {**doc, "codewords": [a] + doc["codewords"] + [c]}


# each malformed document is read on its own and between two valid codewords
# of equal size, so that it also passes through the parse of many codewords
neighbours = pytest.mark.parametrize("neighbours", [False, True],
                                     ids=["one-codeword", "equal-sizes"])


@pytest.mark.parametrize("doc", [
    {"modes": 1, "radius_sq": 4.0, "codewords": [{"label": "0", "points": []}]},
    {"modes": "abc", "radius_sq": 4.0, "codewords": _GOOD_CODEWORDS},
    {"modes": 1, "radius_sq": -4.0, "codewords": _GOOD_CODEWORDS},
    {"modes": 1, "radius_sq": 4.0,
     "codewords": [{"label": "0", "points": [[[2.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]]}]},
    {"modes": 1, "radius_sq": float("nan"), "codewords": _GOOD_CODEWORDS},
    {"modes": 1.9, "radius_sq": 4.0, "codewords": _GOOD_CODEWORDS},
    {"modes": "1", "radius_sq": 4.0, "codewords": _GOOD_CODEWORDS},
    {"modes": True, "radius_sq": 4.0, "codewords": _GOOD_CODEWORDS},
    {"modes": 1, "radius_sq": "4", "codewords": _GOOD_CODEWORDS},
] + [{"modes": 1, "radius_sq": 4.0, "codewords": [{"label": label, "points": [[[2.0, 0.0]]]}]}
     for label in (None, 5, [1, 2], {}, True)],
    ids=["empty-points", "modes-not-integer", "negative-radius", "ragged-points", "nan-radius",
         "modes-float", "modes-string", "modes-bool", "radius-string", "label-null",
         "label-number", "label-list", "label-object", "label-bool"])
@neighbours
def test_json_malformed_documents_raise_code_format_error(doc, neighbours):
    with pytest.raises(CodeFormatError):
        code_from_json(json.dumps(_with_neighbours(doc) if neighbours else doc))


def _document(points: str, modes: int = 1, label: str = "0", neighbours: bool = False,
              width: int | None = None) -> str:
    """A document on the unit sphere whose codeword ``label`` has the given
    ``points`` text: its only codeword, or with ``neighbours`` the middle one
    of three, the other two valid, of as many points of ``width`` modes
    (``modes`` by default)."""
    codewords = '{"label": %s, "points": %s}' % (json.dumps(label), points)
    if neighbours:
        parsed = json.loads(points)   # NaN, Infinity and booleans parse too
        size = len(parsed) if isinstance(parsed, list) and parsed else 1
        a, c = (json.dumps(cw) for cw in _neighbours(size, width or modes, 1.0))
        codewords = f"{a}, {codewords}, {c}"
    return '{"modes": %d, "radius_sq": 1.0, "codewords": [%s]}' % (modes, codewords)


@neighbours
def test_json_reads_the_document(neighbours):
    code = code_from_json(_document("[[[1.0, 0.0]], [[0, 1]]]", neighbours=neighbours))
    assert code.codewords[code.labels.index("0")].tolist() == [[1.0 + 0j], [1j]]
    assert code.codeword_sizes.tolist() == ([2, 2, 2] if neighbours else [2])


@neighbours
@pytest.mark.parametrize("points", ['[[["1", 0.0]]]', '[[["1", "0"]]]', '[[[1.0, "0"]]]'])
def test_json_rejects_string_coordinates(points, neighbours):
    with pytest.raises(CodeFormatError, match="JSON numbers"):
        code_from_json(_document(points, neighbours=neighbours))


@neighbours
@pytest.mark.parametrize("points", ['[[[true, 0.0]]]', '[[[1, false]]]', '[[[true, false]]]',
                                    '[[[0.0, 1.0]], [[true, 0.0]]]'])
def test_json_rejects_boolean_coordinates(points, neighbours):
    with pytest.raises(CodeFormatError, match="JSON numbers"):
        code_from_json(_document(points, neighbours=neighbours))
    # a label that spells a boolean is still a label
    code = code_from_json(_document("[[[1.0, 0.0]]]", label="true or false",
                                    neighbours=neighbours))
    assert "true or false" in code.labels


@neighbours
@pytest.mark.parametrize("points,modes", [
    ("[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0]]]", 2),
    ("[[[1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]", 1),
    ("[[[1.0, 0.0], [0.0]]]", 2),
])
def test_json_rejects_ragged_points(points, modes, neighbours):
    with pytest.raises(CodeFormatError):
        code_from_json(_document(points, modes, neighbours=neighbours))


@neighbours
@pytest.mark.parametrize("points", ["[[[1.0, 0.0, 0.0]]]", "[[[1.0]]]", "[[1.0, 0.0]]",
                                    "[[[[1.0, 0.0]]]]", "[[]]", "[[[]]]", "[1.0]", '"1"',
                                    "[]"])
def test_json_rejects_points_that_are_not_pairs(points, neighbours):
    with pytest.raises(CodeFormatError):
        code_from_json(_document(points, neighbours=neighbours))


@neighbours
@pytest.mark.parametrize("modes,width", [(2, 1), (1, 2), (3, 2)])
def test_json_rejects_wrong_mode_count(modes, width, neighbours):
    # every point, in every codeword, has ``width`` modes where the document
    # declares ``modes``
    points = json.dumps([[[1.0, 0.0]] + [[0.0, 0.0]] * (width - 1)])
    with pytest.raises(CodeFormatError, match="mode count"):
        code_from_json(_document(points, modes, neighbours=neighbours, width=width))


@neighbours
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_json_rejects_non_finite_tokens(token, neighbours):
    for points in (f"[[[{token}, 0.0]]]", f"[[[1.0, {token}]]]"):
        with pytest.raises(CodeFormatError, match="finite"):
            code_from_json(_document(points, neighbours=neighbours))


# ---------------------------------------------------------------------------
# the JSON writer against the per-coordinate oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("energy", [1.0, 4.0, 16.0])
def test_json_writer_matches_oracle_on_catalog(energy):
    for entry in qsc.list_catalog():
        code = entry.build(energy)
        assert code_to_json(code) == brute_code_to_json(code), entry.entry_id


@pytest.mark.parametrize("alpha", [1.7, 1.3 + 0.4j])
@pytest.mark.parametrize("spec", [
    qsc.ClassicalCodeSpec(2, 4, gen_x=[[1, 1, 1, 1]], gen_z=[[1, 1, 0, 0]]),
    qsc.ClassicalCodeSpec(3, 4, gen_x=[[1, 2, 0, 1]], gen_z=[[2, 0, 0, 1]]),
], ids=["q2", "q3"])
def test_json_writer_matches_oracle_on_css(spec, alpha):
    code = qsc.compile_css(spec, alpha)
    assert code_to_json(code) == brute_code_to_json(code)


# integral values below and at the 17-digit switch to exponent notation,
# subnormal and extreme magnitudes, both zeros
_EDGE_COORDINATES = [0.0, -0.0, 1.0, -2.0, 3.0, 1e16, -1e17, 2.0 ** 60, 1e-300, -1e-300,
                     1e300, -1e300, 5e-324]


@st.composite
def raw_codes(draw):
    """Codes with arbitrary finite coordinates, off any sphere."""
    n = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    count = 2 * n * sum(sizes)
    coordinate = st.one_of(st.sampled_from(_EDGE_COORDINATES),
                           st.floats(allow_nan=False, allow_infinity=False))
    Z = np.array(draw(st.lists(coordinate, min_size=count, max_size=count)))
    Z = Z.view(np.complex128).reshape(-1, n)
    return QSCode(n, draw(st.sampled_from([0.0, 1.0, 2.5, 1e-300, 1e300])), Z, sizes,
                  [str(mu) for mu in range(len(sizes))])


@settings(max_examples=200, deadline=None)
@given(raw_codes())
def test_json_writer_round_trip_keeps_every_bit(code):
    text = code_to_json(code)
    assert text == brute_code_to_json(code)
    # no tolerance admits an off-sphere point; squaring 1e300 overflows there
    with np.errstate(over="ignore"):
        loaded = code_from_json(text, tol_sphere=math.inf, tol_point=-1.0)
    assert loaded == code
    assert loaded.point_array.tobytes() == code.point_array.tobytes()


def test_json_rejects_invalid_code_on_load():
    text = json.dumps({
        "modes": 1,
        "radius_sq": 4.0,
        "codewords": [
            {"label": "0", "points": [[[2.0, 0.0]]]},
            {"label": "1", "points": [[[1.0, 0.0]]]},
        ],
    })
    with pytest.raises(CodeFormatError, match="sphere"):
        code_from_json(text)


@pytest.mark.parametrize("block_pairs", [constellation_mod.DISTANCE_BLOCK_PAIRS, 7])
def test_distance_blocks_start_at_their_first_column(block_pairs, monkeypatch):
    monkeypatch.setattr(constellation_mod, "DISTANCE_BLOCK_PAIRS", block_pairs)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
    full = np.sqrt(np.sum(np.abs(A[:, None, :] - A[None, :, :]) ** 2, axis=2))
    first_columns = np.array([1, 1, 3, 3, 3, 9, 9, 9, 9])
    covered = np.zeros((9, 9), dtype=bool)
    for first, col, d in constellation_mod.distance_blocks(A, A, first_columns):
        assert col == first_columns[first] < 9
        assert np.allclose(d, full[first:first + len(d), col:], rtol=1e-15, atol=0)
        covered[first:first + len(d), col:] = True
    # every pair a row needs is measured
    assert all(covered[i, first_columns[i]:].all() for i in range(9))


def _matched(A, B, tol):
    i, j, d = constellation_mod._pairs_within(A, B, tol)
    return sorted(zip(i.tolist(), j.tolist(), d.tolist()))


def _flat_direction(n: int) -> np.ndarray:
    """A real direction of C^n (re z_1, im z_1, ...) orthogonal to the
    matcher's projection direction u_k ~ 1/(k + pi)."""
    u = 1.0 / (np.arange(2 * n) + np.pi)
    w = np.zeros(2 * n)
    w[0], w[1] = u[1], -u[0]
    return w.view(np.complex128)


def _matcher_inputs():
    rng = np.random.default_rng(9)
    cases = []
    # a pair at distance d exactly, matched at d and d + 1 ulp, not at d - 1 ulp
    a = np.array([[0.3 + 0.1j, -1.2 + 0.4j]])
    b = a + np.array([[1e-9 + 2e-10j, -3e-10 + 0j]])
    d = brute_pairs_within(a, b, math.inf)[0][2]
    for tol in (np.nextafter(d, 0.0), d, np.nextafter(d, math.inf)):
        cases.append((f"ulp-{tol!r}", np.vstack([a, b]), None, float(tol)))
        cases.append((f"ulp-ab-{tol!r}", a, b, float(tol)))
    # no tolerance below zero matches anything, not even a duplicate
    cases.append(("negative", np.vstack([a, a, b]), None, -1.0))
    cases.append(("nan", np.vstack([a, a, b]), None, math.nan))
    # coordinates near 1e300: distinct points overflow to infinity, while
    # duplicates are matched
    huge = 1e300 * (rng.uniform(-1.5, 1.5, (40, 2)) + 1j * rng.uniform(-1.5, 1.5, (40, 2)))
    cases.append(("huge", np.vstack([huge, huge[::3]]), None, 1e-9))
    cases.append(("huge-ab", huge, huge[::-2], 1.0))
    # pairs a few ulps apart, where rounding in the projections is as large
    # as the tolerance: at unit scale and near 1e150 (squares near 1e300
    # would overflow)
    for name, points, tol in (("ulps-apart", rng.uniform(-2, 2, (60, 4)), 6e-16),
                              ("large-ulps-apart", rng.uniform(-2e150, 2e150, (60, 4)), 6e134)):
        nudged = points.copy()
        for _ in range(3):
            pick = rng.random(points.shape) < 0.5
            nudged[pick] = np.nextafter(nudged[pick], np.where(rng.random(pick.sum()) < 0.5,
                                                               -np.inf, np.inf))
        both = np.vstack([points, nudged]).view(np.complex128)
        cases.append((name, both, None, tol))
        cases.append((name + "-ab", both[:len(points)], both[len(points):], tol))
    # pairs just within the tolerance that share a coordinate of 1e7, whose
    # projections round to multiples of an ulp larger than the tolerance
    small = rng.uniform(-1, 1, (300, 3))
    base = np.column_stack([1e7 + 1j * small[:, 0], small[:, 1] + 1j * small[:, 2]])
    step = rng.standard_normal((300, 3))
    step *= 0.95e-10 / np.linalg.norm(step, axis=1, keepdims=True)
    partner = base + np.column_stack([1j * step[:, 0], step[:, 1] + 1j * step[:, 2]])
    cases.append(("large-offset", np.vstack([base, partner]), None, 1e-10))
    cases.append(("large-offset-ab", base, partner, 1e-10))
    # points at the origin with a zero tolerance: every pair, and no margin
    cases.append(("origin", np.zeros((30, 2), dtype=np.complex128), None, 0.0))
    # many points sharing one projection, some within the tolerance of another
    line = (0.5 - 0.25j) + np.outer(np.cumsum(rng.choice([0.5e-9, 2e-9], 700)), _flat_direction(1))
    cases.append(("one-projection", line, None, 1e-9))
    cases.append(("one-projection-ab", line[::2], line[1::2], 1e-9))
    # duplicates across codewords, and pairs of two disjoint point sets
    code = qsc.build("cell600", 4.0, partition="five")
    Z = code.point_array
    cases.append(("shared-points", np.vstack([Z, Z[::7], Z[3::11] + 1e-10]), None, 1e-9))
    cases.append(("images", Z @ random_unitary(2, rng).T, Z, 1e-9))
    cases.append(("images-near", np.vstack([Z[::5] * np.exp(0.3j), Z[1::4] + 3e-10]), Z, 1e-9))
    cases.append(("everything", Z[:50], Z[10:90], math.inf))
    return cases


MATCHER_INPUTS = _matcher_inputs()


# Blocks of 7 candidate pairs split each pass into many blocks; SMALL_PAIRS 0
# sends every input through the sorted projections, 10**9 none.
@pytest.mark.parametrize("block_pairs", [constellation_mod.DISTANCE_BLOCK_PAIRS, 7])
@pytest.mark.parametrize("small_pairs", [0, constellation_mod.SMALL_PAIRS, 10 ** 9])
@pytest.mark.parametrize("name, A, B, tol", MATCHER_INPUTS,
                         ids=[case[0] for case in MATCHER_INPUTS])
def test_pairs_within_match_all_pairs_loop(name, A, B, tol, block_pairs, small_pairs,
                                           monkeypatch):
    monkeypatch.setattr(constellation_mod, "DISTANCE_BLOCK_PAIRS", block_pairs)
    monkeypatch.setattr(constellation_mod, "SMALL_PAIRS", small_pairs)
    with np.errstate(over="ignore"):
        mine = _matched(A, B, tol)
    assert mine == brute_pairs_within(A, B, tol)


def test_matcher_inputs_are_not_vacuous():
    found = {name: len(brute_pairs_within(A, B, tol)) for name, A, B, tol in MATCHER_INPUTS}
    assert [found[name] for name in found if name.startswith("ulp-")] == [0, 0, 1, 1, 1, 1]
    assert found["negative"] == found["nan"] == 0
    assert found["huge"] == 14 and found["huge-ab"] == 20
    for name in ("one-projection", "one-projection-ab", "shared-points", "images-near",
                 "ulps-apart", "ulps-apart-ab", "large-ulps-apart", "large-ulps-apart-ab"):
        assert found[name] > 0
    assert found["everything"] == 50 * 80
    assert found["large-offset"] == found["large-offset-ab"] == 300
    assert found["origin"] == 30 * 29 // 2


def test_pairs_within_measure_only_candidates(monkeypatch):
    """On a code whose points lie far apart, the pass measures the few pairs
    whose projections come within reach, not the N (N - 1) / 2 pairs."""
    calls, measured = [], []
    candidate_blocks = constellation_mod._candidate_blocks

    def counting(*args):
        calls.append(args)
        for i, j in candidate_blocks(*args):
            measured.append(len(i))
            yield i, j
    monkeypatch.setattr(constellation_mod, "_candidate_blocks", counting)
    code = qsc.build("cell600", 4.0, partition="five")
    assert validate_code(code) == []
    assert len(calls) == 1 and sum(measured) <= len(code.point_array)
    # no tolerance below zero, or NaN, matches a pair: none is measured
    for tol in (-1.0, math.nan):
        assert validate_code(code, tol_point=tol) == []
    assert len(calls) == 1
    duplicated = QSCode(2, 4.0, np.vstack([code.point_array, code.codewords[2]]),
                        [*code.codeword_sizes, code.codeword_sizes[2]], [*code.labels, "2"])
    assert len(validate_code(duplicated)) == 24
    assert sum(measured) <= 2 * len(duplicated.point_array)
