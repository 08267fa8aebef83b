from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsc
from qsc.constellation import QSCode, code_from_json, code_to_json
from qsc.moments import BudgetExceededError
from qsc.symmetries import (
    PhaseSymmetries,
    VanishingIdeal,
    _least_denominators,
    enumerate_phase_symmetries,
    vanishing_ideal,
    verify_jump_annihilates,
)

from brute_force import (
    brute_binary_css_translations,
    brute_least_denominator,
    brute_multi_indices,
    brute_phase_symmetries,
    brute_vanishing_ideal,
)
from conftest import code_of, rotation_action


def _terms(ideal: VanishingIdeal) -> list[dict]:
    """Each generator as a dict {exponents: coefficient} of its nonzero terms."""
    exponents = list(map(tuple, ideal.exponents.tolist()))
    return [{exponents[j]: complex(row[j]) for j in np.flatnonzero(row)}
            for row in ideal.coefficients]


def _ideal_of(*polys: dict) -> VanishingIdeal:
    """The ideal with the given {exponents: coefficient} generators."""
    exponents = sorted({d for g in polys for d in g}, key=lambda d: (sum(d), d))
    return VanishingIdeal(np.array(exponents),
                          np.array([[g.get(d, 0.0) for d in exponents] for g in polys], dtype=complex),
                          np.array([max(map(sum, g)) for g in polys]))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _action(actions: PhaseSymmetries, phases) -> tuple[tuple[int, ...], bool]:
    """The codeword permutation and Z-type flag of the action with these phases."""
    row = actions.phases.tolist().index(list(phases))
    return (tuple(actions.codeword_permutations[row].tolist()), bool(actions.z_type[row]))


def test_pi_rotation_is_z_type(four_legged):
    assert _action(enumerate_phase_symmetries(four_legged, 4), [math.pi]) == ((0, 1), True)
    assert rotation_action(four_legged, [math.pi]) == (0, 1)


def test_half_pi_rotation_is_x_type(four_legged):
    assert _action(enumerate_phase_symmetries(four_legged, 4), [math.pi / 2]) == ((1, 0), False)
    assert rotation_action(four_legged, [math.pi / 2]) == (1, 0)


def test_third_rotation_is_not_a_symmetry(four_legged):
    assert rotation_action(four_legged, [math.pi / 3]) is None
    assert [math.pi / 3] not in enumerate_phase_symmetries(four_legged, 6).phases.tolist()


def test_point_targets_are_a_bijection(four_legged):
    actions = enumerate_phase_symmetries(four_legged, 4)
    assert len(actions) == 4
    for targets in actions.targets.tolist():
        assert sorted(targets) == list(range(len(four_legged.point_array)))


def test_images_match_their_nearest_point():
    # points 0.5e-9 apart, both within the tolerance of each image: each
    # image goes to its nearest point, not to the first point in reach
    code = code_of(1, 4.0, [[[2.0], [2.0 + 0.5e-9j]], [[-2.0]]])
    actions = enumerate_phase_symmetries(code, 2)
    assert actions.phases.tolist() == [[0.0]]
    assert actions.targets.tolist() == [[0, 1, 2]] and actions.z_type.tolist() == [True]


def test_an_image_matching_no_point_is_not_a_symmetry():
    code = code_of(1, 4.0, [[[2.0]]])
    assert rotation_action(code, [0.3]) is None
    assert rotation_action(code, [0.0]) == (0,)
    assert enumerate_phase_symmetries(code, 8).phases.tolist() == [[0.0]]


def test_symmetries_compose(cat33):
    # the rotations by 2 pi/9 and 2 pi/3 compose to the one by 2 pi 4/9, and
    # its codeword permutation is the composition of theirs
    actions = enumerate_phase_symmetries(cat33, 9)
    a, _ = _action(actions, [2 * math.pi / 9])
    b, _ = _action(actions, [2 * math.pi / 3])
    composed, _ = _action(actions, [2 * math.pi * 4 / 9])
    assert composed == tuple(a[b[mu]] for mu in range(cat33.K))
    assert rotation_action(cat33, [2 * math.pi / 9 + 2 * math.pi / 3]) == composed


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_four_legged(four_legged):
    actions = enumerate_phase_symmetries(four_legged, 4)
    assert actions.orders.tolist() == [1, 2, 4, 4]
    assert actions.numerators.tolist() == [[0], [1], [1], [3]]
    assert actions.z_type.tolist() == [True, True, False, False]
    assert actions.codeword_permutations.tolist() == [[0, 1], [0, 1], [1, 0], [1, 0]]


def test_enumerate_repetition_css(repetition_css):
    actions = enumerate_phase_symmetries(repetition_css, 2)
    assert _action(actions, [math.pi, math.pi]) == ((0, 1), True)


def test_enumerate_single_point_code_finds_only_identity():
    code = code_of(2, 4.0, [[[2.0, 0.0]]])
    actions = enumerate_phase_symmetries(code, 2)
    assert len(actions) == 1
    assert actions.phases.tolist() == [[0.0, 0.0]]
    assert actions.z_type.tolist() == [True]


def test_enumerate_cat_finds_x_cycle():
    for S, K in [(1, 2), (2, 2), (3, 3)]:
        code = qsc.build("cat", 4.0, S=S, K=K)
        actions = enumerate_phase_symmetries(code, S * K)
        full_cycle = [pi for pi, z in zip(actions.codeword_permutations.tolist(),
                                          actions.z_type.tolist())
                      if not z and sorted(_cycle_lengths(pi)) == [K]]
        assert full_cycle, f"cat({S},{K}) should have a K-cycle X gate"


def _cycle_lengths(perm: list[int]) -> list[int]:
    seen = set()
    lengths = []
    for start in range(len(perm)):
        if start in seen:
            continue
        size = 0
        mu = start
        while mu not in seen:
            seen.add(mu)
            mu = perm[mu]
            size += 1
        lengths.append(size)
    return lengths


def test_z_type_actions_fix_every_codeword():
    for name, params in [("cat", {"S": 2, "K": 2}), ("gamma", {"n": 2, "q": 3})]:
        code = qsc.build(name, 4.0, **params)
        actions = enumerate_phase_symmetries(code, 6)
        assert actions.z_type.any() and not actions.z_type.all()
        for pi, z in zip(actions.codeword_permutations.tolist(), actions.z_type.tolist()):
            assert z == (pi == list(range(code.K)))


def _no_work(*args, **kwargs):
    raise AssertionError("work done before the budget guard")


def test_enumerate_budget(monkeypatch):
    # one pivot with 4 targets, each sending the 4 points of n = 1 mode: 16 images
    code = qsc.build("cat", 4.0, S=2, K=2)
    monkeypatch.setattr(qsc.symmetries, "PHASE_IMAGE_BUDGET", 16)
    assert len(enumerate_phase_symmetries(code, 4)) == 4
    monkeypatch.setattr(qsc.symmetries, "PHASE_IMAGE_BUDGET", 15)
    monkeypatch.setattr(np, "meshgrid", _no_work)
    monkeypatch.setattr(qsc.symmetries, "_match_images", _no_work)
    with pytest.raises(BudgetExceededError, match="16 candidate images exceed the budget 15"):
        enumerate_phase_symmetries(code, 4)


def test_orthoplex_group_of_4_to_the_12_rotations_is_refused_before_any_candidate(monkeypatch):
    # twelve pivots, each with its four images i^j e_k: 4^12 candidates of 48 points
    code = qsc.build("orthoplex", 4.0, n=12)
    monkeypatch.setattr(np, "meshgrid", _no_work)
    monkeypatch.setattr(qsc.symmetries, "_match_images", _no_work)
    with pytest.raises(BudgetExceededError,
                       match=f"{4 ** 12 * 48 * 12} candidate images exceed the budget"):
        enumerate_phase_symmetries(code, 8)


def test_an_order_beyond_every_denominator_changes_nothing(two_legged):
    # the candidates come from the points, so an order of a billion costs
    # what order 8 costs, and finds the same rotations
    assert _actions(enumerate_phase_symmetries(two_legged, 10 ** 9)) == \
        _actions(enumerate_phase_symmetries(two_legged, 8))


@pytest.mark.parametrize("seed", range(4))
def test_least_denominators_match_a_search_over_every_denominator(seed):
    # centers anywhere in a turn, half-widths from 1e-6 (least denominators
    # beyond the limit) to a half turn (always 0/1)
    rng = np.random.default_rng(seed)
    center = rng.uniform(-0.5, 0.5, 200)
    half = 10.0 ** rng.uniform(-6.0, math.log10(0.5), 200)
    k, m = _least_denominators(center - half, center + half, 300)
    want = [brute_least_denominator(c - h, c + h, 300) for c, h in zip(center, half)]
    assert list(zip(k.tolist(), m.tolist())) == want
    assert 0 < np.sum(m == 0) < 200


def test_least_denominators_recover_exact_phases():
    # each k/m, m <= 60, within 1e-10 of a turn, at a limit past int32
    fractions = sorted({(k % m, m) for m in range(1, 61) for k in range(-m, m)
                        if math.gcd(k, m) == 1})
    center = np.array([k / m if 2 * k <= m else k / m - 1.0 for k, m in fractions])
    k, m = _least_denominators(center - 1e-10, center + 1e-10, 10 ** 12)
    assert list(zip(k.tolist(), m.tolist())) == fractions


def test_orders_above_max_order_are_dropped(cat33):
    assert enumerate_phase_symmetries(cat33, 8).orders.tolist() == [1, 3, 3]
    assert enumerate_phase_symmetries(cat33, 9).orders.tolist() == [1, 3, 3, 9, 9, 9, 9, 9, 9]


# ---------------------------------------------------------------------------
# vanishing ideal
# ---------------------------------------------------------------------------

def test_four_legged_ideal_is_z4_minus_alpha4():
    code = qsc.build("cat", 2.0, S=2, K=2)  # alpha = sqrt(2), alpha^4 = 4
    ideal = vanishing_ideal(code, 4)
    assert ideal.degrees.tolist() == [4]
    g, = _terms(ideal)
    assert set(g) == {(0,), (4,)}
    assert g[(0,)] / g[(4,)] == pytest.approx(-4.0, rel=1e-9)
    assert verify_jump_annihilates(code, ideal)[0] < 1e-12


def test_two_legged_ideal_is_z2_minus_alpha2(two_legged):
    g, = _terms(vanishing_ideal(two_legged, 2))
    assert set(g) == {(0,), (2,)}
    assert g[(0,)] / g[(2,)] == pytest.approx(-4.0, rel=1e-9)


def test_cell24_ideal_nonempty_with_tiny_residuals():
    code = qsc.build("cell24", 1.0, partition="three")
    ideal = vanishing_ideal(code, 6)
    assert len(ideal.degrees)
    assert np.all(verify_jump_annihilates(code, ideal) <= 1e-9)


def test_verify_jump_examples(four_legged):
    alpha_sq = 4.0
    good = {(0,): -alpha_sq ** 2, (4,): 1.0}
    bad = {(0,): -alpha_sq, (2,): 1.0}
    residuals = verify_jump_annihilates(four_legged, _ideal_of(good, bad))
    assert residuals[0] < 1e-12
    assert residuals[1] == pytest.approx(2 * alpha_sq)  # (i alpha)^2 - alpha^2 = -2 alpha^2


def test_repetition_css_jumps(repetition_css):
    ideal = _ideal_of({(0, 0): -4.0, (2, 0): 1.0}, {(0, 0): -4.0, (0, 2): 1.0})
    assert np.all(verify_jump_annihilates(repetition_css, ideal) < 1e-12)


def test_ideal_outputs_all_verify():
    for name, params, degree in [
        ("cat", {"S": 2, "K": 2}, 5),
        ("orthoplex", {"n": 2}, 4),
        ("hessian", {}, 3),
    ]:
        code = qsc.build(name, 4.0, **params)
        assert np.all(verify_jump_annihilates(code, vanishing_ideal(code, degree)) <= 1e-9)


def test_ideal_invariant_under_relabeling():
    code = qsc.build("cell24", 1.0, partition="three")
    permuted = code_of(code.modes, code.radius_sq,
                       {code.labels[i]: code.codewords[i] for i in (2, 0, 1)})
    a = vanishing_ideal(code, 5)
    b = vanishing_ideal(permuted, 5)
    assert a.coefficients.shape == b.coefficients.shape

    def projector(ideal):
        q, _ = np.linalg.qr(ideal.coefficients.T)
        return q @ q.conj().T

    assert np.max(np.abs(projector(a) - projector(b))) < 1e-9


def test_ideal_generators_have_minimal_degree():
    # a^2 - alpha^2 is the only generator; its multiples fill degrees 3..6
    ideal = vanishing_ideal(qsc.build("cat", 4.0, S=1, K=2), 6)
    assert ideal.degrees.tolist() == [2]
    assert set(_terms(ideal)[0]) == {(0,), (2,)}


@pytest.mark.parametrize("name, params, degree", [
    ("hessian", {}, 6),
    ("cell24", {"partition": "three"}, 5),
    ("orthoplex", {"n": 2}, 4),
    ("beta", {"n": 2, "q": 3}, 4),
])
def test_ideal_generator_multiples_span_every_vanishing_polynomial(name, params, degree):
    code = qsc.build(name, 4.0, **params)
    ideal = vanishing_ideal(code, degree)
    monomials = list(brute_multi_indices(code.modes, degree))
    lookup = {d: j for j, d in enumerate(monomials)}
    multiples = []
    for g_degree, terms in zip(ideal.degrees.tolist(), _terms(ideal)):
        for m in brute_multi_indices(code.modes, degree - g_degree):
            row = np.zeros(len(monomials), dtype=complex)
            for d, c in terms.items():
                row[lookup[tuple(a + b for a, b in zip(d, m))]] = c
            multiples.append(row / np.linalg.norm(row))
    # evaluation matrix with unit-scaled columns: its null space is the
    # space of vanishing polynomials of degree <= `degree`
    V = np.array([[np.prod(p ** np.array(d)) for d in monomials]
                  for p in code.point_array])
    scales = np.max(np.abs(V), axis=0)
    scales[scales == 0.0] = 1.0   # a monomial that vanishes at every point
    sigma = np.linalg.svd(V / scales, compute_uv=False)
    nullity = len(monomials) - int(np.sum(sigma > 1e-8 * sigma[0]))
    s = np.linalg.svd(np.array(multiples) * scales, compute_uv=False)
    assert int(np.sum(s > 1e-8 * s[0])) == nullity
    assert np.max(np.abs(V @ np.array(multiples).T)) < 1e-9


def test_ideal_budget(monkeypatch):
    code = qsc.build("cell24", 1.0, partition="three")
    monkeypatch.setattr(qsc.symmetries, "IDEAL_COLUMN_BUDGET", 10)
    vanishing_ideal(code, 3)   # 10 monomials of degree <= 3 on 2 modes
    monkeypatch.setattr(qsc.symmetries, "monomial_values", _no_work)
    with pytest.raises(BudgetExceededError, match="needs 15 columns, budget is 10"):
        vanishing_ideal(code, 4)


# ---------------------------------------------------------------------------
# candidates read off the points against the exhaustive enumeration
# ---------------------------------------------------------------------------

def _actions(actions: PhaseSymmetries):
    return (actions.phases.tolist(), actions.targets.tolist(),
            actions.codeword_permutations.tolist(), actions.z_type.tolist())


@pytest.mark.parametrize("energy", [1.0, 4.0, 16.0])
def test_phase_symmetries_match_exhaustive_enumeration(energy):
    for entry in qsc.list_catalog():
        code = entry.build(energy)
        assert _actions(enumerate_phase_symmetries(code, 8)) == \
            _actions(brute_phase_symmetries(code, 8)), entry.entry_id


@pytest.mark.parametrize("energy", [1e-24, 1e-17, 1e-6, 1e12, 1e14, 1e20])
def test_phase_symmetries_do_not_depend_on_the_energy(energy):
    for entry in qsc.list_catalog():
        want = _actions(enumerate_phase_symmetries(entry.build(4.0), 8))
        code = code_from_json(code_to_json(entry.build(energy)))
        assert _actions(enumerate_phase_symmetries(code, 8)) == want, entry.entry_id


def test_candidates_that_map_the_pivot_but_not_every_point_are_rejected():
    # the pivot is the first point, 2: the rotations by pi and pi/2 map it
    # onto a point, but send 2i and -2 to -2i, which is not a point
    code = code_of(1, 4.0, [[[2.0], [-2.0]], [[2j]]])
    actions = enumerate_phase_symmetries(code, 8)
    assert _actions(actions) == _actions(brute_phase_symmetries(code, 8))
    assert actions.phases.tolist() == [[0.0]]
    assert rotation_action(code, [math.pi]) is None
    assert rotation_action(code, [math.pi / 2]) is None


def test_candidates_agree_on_the_modes_pivots_share(monkeypatch):
    # the pivots (2, 1) of mode 1 and (1, 2) of mode 2 each have two targets,
    # themselves and the copy rotated by a third of a turn on their own mode;
    # every choice but the identity rotates the other pivot off its target
    w = np.exp(2j * np.pi / 3)
    code = code_of(2, 5.0, [[[2, 1], [1, 2], [2 * w, 1], [1, 2 * w]]])
    classified = []
    match = qsc.symmetries._match_images

    def recording(c, phases, tol):
        classified.append(phases.tolist())
        return match(c, phases, tol)

    monkeypatch.setattr(qsc.symmetries, "_match_images", recording)
    actions = enumerate_phase_symmetries(code, 6)
    assert classified == [[[0.0, 0.0]]]
    assert _actions(actions) == _actions(brute_phase_symmetries(code, 6))


@st.composite
def phase_pattern_codes(draw):
    """Codes whose points are alpha (w^b_1, ..., w^b_n), w = exp(2 pi i/q),
    for distinct random patterns b on 1 or 2 modes, split into codewords."""
    n = draw(st.integers(1, 2))
    q = draw(st.integers(2, 6))
    patterns = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n),
                             min_size=1, max_size=12, unique=True))
    K = draw(st.integers(1, len(patterns)))
    alpha = draw(st.sampled_from([0.7, 1.0, 1.5]))
    groups = [patterns[mu::K] for mu in range(K)]
    w = np.exp(2j * np.pi / q)
    return code_of(n, n * alpha ** 2,
                   [alpha * w ** np.array(g, dtype=float).reshape(len(g), n) for g in groups])


@settings(max_examples=60, deadline=None)
@given(code=phase_pattern_codes(), max_order=st.integers(1, 8))
def test_phase_symmetries_of_phase_patterns_match_exhaustive_enumeration(code, max_order):
    assert _actions(enumerate_phase_symmetries(code, max_order)) == \
        _actions(brute_phase_symmetries(code, max_order))


@pytest.mark.parametrize("name, params, max_order", [
    ("cat", {"S": 2, "K": 2}, 8),
    ("gamma", {"n": 2, "q": 3}, 8),
    ("cell600", {"partition": "five"}, 6),
    ("hessian", {}, 6),
    ("css", {"q": 2, "length": 7}, 2),
])
def test_phase_symmetries_match_exhaustive_enumeration_at_other_orders(name, params, max_order):
    if name == "css":   # 128 singleton codewords
        code = qsc.compile_css(qsc.ClassicalCodeSpec(params["q"], params["length"], [], []), 2.0)
        assert (code.K, len(code.point_array)) == (128, 128)
    else:
        code = qsc.build(name, 4.0, **params)
    assert _actions(enumerate_phase_symmetries(code, max_order)) == \
        _actions(brute_phase_symmetries(code, max_order))


def test_phase_symmetries_of_the_256_point_css_code_are_its_word_translations():
    # K = 64 codewords of 4 points: every y in F_2^8 maps the words onto
    # themselves, so the rotations by pi y are its 256 symmetries, of order 2
    gen_x = [[1, 0, 0, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0, 0, 1]]
    code = qsc.compile_css(qsc.ClassicalCodeSpec(2, 8, gen_x, []), 1.8)
    assert (code.K, len(code.point_array)) == (64, 256)
    actions = enumerate_phase_symmetries(code, 8)
    assert len(actions) == 256 and int(np.sum(actions.z_type)) == 4
    assert _actions(actions) == _actions(brute_binary_css_translations(code, gen_x))


# ---------------------------------------------------------------------------
# vanishing ideal against the per-degree full-SVD oracle
# ---------------------------------------------------------------------------

def _span_projectors(polys: list[dict], monomials: list) -> dict:
    """Projector onto the span of each degree's generators (as term dicts)."""
    lookup = {d: j for j, d in enumerate(monomials)}
    out = {}
    for degree in sorted({max(map(sum, terms)) for terms in polys}):
        rows = [terms for terms in polys if max(map(sum, terms)) == degree]
        basis = np.zeros((len(rows), len(monomials)), dtype=complex)
        for i, terms in enumerate(rows):
            for d, c in terms.items():
                basis[i, lookup[d]] = c
        q, _ = np.linalg.qr(basis.T)
        out[degree] = q @ q.conj().T
    return out


def _permuted_within_codewords(code: QSCode, seed: int) -> QSCode:
    rng = np.random.default_rng(seed)
    order = np.concatenate([start + rng.permutation(size) for start, size in
                            zip(code.codeword_starts.tolist(), code.codeword_sizes.tolist())])
    return QSCode(code.modes, code.radius_sq, code.point_array[order], code.codeword_sizes,
                  code.labels)


@pytest.mark.parametrize("energy", [1.0, 4.0, 16.0])
def test_vanishing_ideal_matches_full_svd_oracle(energy):
    # on nine of the catalog codes vanishing_ideal stops below degree 8 (at
    # D + 1, once degree D reaches full rank); the oracle runs every degree
    for entry in qsc.list_catalog():
        code = entry.build(energy)
        monomials = list(brute_multi_indices(code.modes, 8))
        want = brute_vanishing_ideal(code, 8)
        want_spans = _span_projectors([terms for _, terms in want], monomials)
        for c in (code, _permuted_within_codewords(code, 1)):
            got = vanishing_ideal(c, 8)
            assert got.degrees.tolist() == [degree for degree, _ in want], entry.entry_id
            got_spans = _span_projectors(_terms(got), monomials)
            assert got_spans.keys() == want_spans.keys()
            for degree, projector in got_spans.items():
                assert np.max(np.abs(projector - want_spans[degree])) < 1e-12, \
                    (entry.entry_id, degree)
            assert np.all(verify_jump_annihilates(c, got) < 1e-9 * max(1.0, energy ** 3))


@pytest.mark.parametrize("seed", range(6))
def test_vanishing_ideal_matches_oracle_on_random_points(seed):
    # N generic points of C^2 with N = 5, 8 or 9 vanish on generators of two
    # degrees, so that one degree holds both multiples and new generators
    rng = np.random.default_rng(seed)
    N = (5, 8, 9)[seed % 3]
    g = rng.standard_normal((N, 2)) + 1j * rng.standard_normal((N, 2))
    energy = float(rng.uniform(1.0, 16.0))
    z = g / np.linalg.norm(g, axis=1, keepdims=True) * math.sqrt(energy)
    code = QSCode(2, energy, z, [2, N - 2], ["0", "1"])
    monomials = list(brute_multi_indices(2, 5))
    want = brute_vanishing_ideal(code, 5)
    got = vanishing_ideal(code, 5)
    assert got.degrees.tolist() == [degree for degree, _ in want]
    assert len({degree for degree, _ in want}) == 2
    got_spans = _span_projectors(_terms(got), monomials)
    want_spans = _span_projectors([terms for _, terms in want], monomials)
    for degree, projector in got_spans.items():
        assert np.max(np.abs(projector - want_spans[degree])) < 1e-10


# ---------------------------------------------------------------------------
# the canonical form: independent of point order, rounding and energy
# ---------------------------------------------------------------------------

def _moved_within_rounding(code: QSCode, seed: int) -> QSCode:
    """The code with its points permuted within codewords and each real and
    imaginary part moved by up to 4 ulps."""
    rng = np.random.default_rng(seed)
    parts = _permuted_within_codewords(code, seed).point_array.view(np.float64)
    moved = parts + rng.integers(-4, 5, size=parts.shape) * np.spacing(parts)
    return QSCode(code.modes, code.radius_sq, moved.view(np.complex128), code.codeword_sizes,
                  code.labels)


@pytest.mark.parametrize("energy", [1.0, 4.0, 16.0])
def test_vanishing_ideal_is_canonical(energy):
    for entry in qsc.list_catalog():
        code = entry.build(energy)
        want = vanishing_ideal(code, 6)
        for seed in range(2):
            got = vanishing_ideal(_moved_within_rounding(code, seed), 6)
            assert got.degrees.tolist() == want.degrees.tolist(), entry.entry_id
            assert np.max(np.abs(got.coefficients - want.coefficients), initial=0.0) < 1e-12, \
                (entry.entry_id, seed)


def _unit_sphere_coefficients(ideal: VanishingIdeal, energy: float) -> np.ndarray:
    """Coefficients on u = z / sqrt(E), each row of unit norm."""
    c = ideal.coefficients * energy ** (ideal.exponents.sum(axis=1) / 2)
    return c / np.linalg.norm(c, axis=1, keepdims=True)


def test_vanishing_ideal_does_not_depend_on_the_energy():
    for entry in qsc.list_catalog():
        want = vanishing_ideal(entry.build(4.0), 6)
        for energy in (1e-6, 1e-3, 1e2, 1e4, 1e6, 1e8, 1e12):
            got = vanishing_ideal(entry.build(energy), 6)
            assert got.degrees.tolist() == want.degrees.tolist(), (entry.entry_id, energy)
            assert np.max(np.abs(_unit_sphere_coefficients(got, energy)
                                 - _unit_sphere_coefficients(want, 4.0)), initial=0.0) < 1e-10


@pytest.mark.parametrize("energy, max_degree", [(1e300, 6), (1e-300, 6), (1e120, 6), (0.0, 1)])
def test_vanishing_ideal_refuses_an_energy_beyond_the_float_range(energy, max_degree, monkeypatch):
    code = QSCode(1, energy, [[math.sqrt(energy)]], [1], ["0"])
    monkeypatch.setattr(qsc.symmetries, "monomial_values", _no_work)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(qsc.QscError, match="leaves the float range"):
            vanishing_ideal(code, max_degree)


def test_vanishing_ideal_at_the_edge_of_the_float_range():
    # E^3 = 1e306 still fits: z^6 - E^3 is found, its z^6 coefficient 1e-306
    code = qsc.build("cat", 1e102, S=3, K=2)
    ideal = vanishing_ideal(code, 6)
    assert ideal.degrees.tolist() == [6]
    g, = _terms(ideal)
    assert g[(6,)] == pytest.approx(1e-306, rel=1e-9)
    assert g[(0,)].real == pytest.approx(-1.0)
