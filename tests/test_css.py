from __future__ import annotations

import cmath
import math
from itertools import product

import numpy as np
import pytest

import qsc
from qsc.constellation import BudgetExceededError, min_separation, validate_code
from qsc.css import ClassicalCodeSpec, CssError, compile_css, css_properties

from conftest import rotation_action


def brute_dual(gen_z: list[tuple[int, ...]], n: int, q: int) -> set[tuple[int, ...]]:
    """All strings orthogonal to every generator row, by direct enumeration."""
    out = set()
    for word in product(range(q), repeat=n):
        if all(sum(a * b for a, b in zip(word, row)) % q == 0 for row in gen_z):
            out.add(word)
    return out


def brute_span(gen: list[tuple[int, ...]], n: int, q: int) -> set[tuple[int, ...]]:
    out = set()
    for coeffs in product(range(q), repeat=len(gen)):
        word = tuple(sum(c * row[i] for c, row in zip(coeffs, gen)) % q
                     for i in range(n))
        out.add(word)
    return out


# small valid CSS pairs: (q, n, gen_x, gen_z)
CSS_BATTERY = [
    (2, 2, [(1, 1)], []),
    (2, 2, [(1, 1)], [(1, 1)]),
    (2, 1, [], [(1,)]),
    (2, 4, [(1, 1, 1, 1)], [(1, 1, 1, 1)]),
    (2, 4, [(1, 1, 1, 1), (0, 1, 1, 0)], [(1, 1, 1, 1), (0, 1, 1, 0)]),
    (2, 6, [(1, 1, 0, 0, 1, 1), (0, 0, 1, 1, 1, 1)], [(1, 1, 0, 0, 1, 1)]),
    (3, 3, [(1, 1, 1)], [(1, 1, 1)]),
    (3, 2, [(1, 2)], [(1, 1)]),
    (3, 3, [], [(1, 2, 0)]),
    (3, 4, [(1, 1, 1, 0)], [(1, 2, 0, 0), (0, 0, 0, 1)]),
]

# q = 5 and q = 7 pairs; in the first, d_x = 2 yet the separation is |alpha| sqrt(5),
# not the Hamming-weight guess |alpha| sqrt(2 |w - 1|^2) = 1.66 |alpha|
LARGER_Q = [
    (5, 2, [], [(2, 4)]),
    (5, 3, [(1, 1, 3)], [(1, 2, 4)]),
    (7, 3, [(1, 1, 1)], [(1, 2, 4)]),
    (7, 2, [], []),
]


def brute_min_weight_outside(words: set, subspace: set):
    return min((sum(map(bool, w)) for w in words - subspace), default=None)


def test_css_condition_enforced():
    with pytest.raises(CssError, match="CSS condition"):
        ClassicalCodeSpec(2, 2, gen_x=[(1, 0)], gen_z=[(1, 1)])


def test_non_prime_modulus_rejected():
    with pytest.raises(CssError, match="prime"):
        ClassicalCodeSpec(4, 1, gen_x=[], gen_z=[(1,)])
    with pytest.raises(CssError, match="prime"):
        ClassicalCodeSpec(1, 1)


def test_alpha_must_be_nonzero():
    spec = ClassicalCodeSpec(2, 2, gen_x=[(1, 1)], gen_z=[])
    with pytest.raises(CssError):
        compile_css(spec, 0.0)


def test_repetition_example():
    spec = ClassicalCodeSpec(2, 2, gen_x=[(1, 1)], gen_z=[])
    code = compile_css(spec, 2.0)
    assert code.K == 2
    assert code.modes == 2
    assert code.radius_sq == pytest.approx(8.0)
    def as_real_set(c):
        return {tuple(np.round(p.real, 9)) for p in c}

    a = 2.0
    assert as_real_set(code.codewords[0]) == {(a, a), (-a, -a)}
    assert as_real_set(code.codewords[1]) == {(a, -a), (-a, a)}
    assert np.max(np.abs(code.point_array.imag)) < 1e-12
    assert validate_code(code) == []


def test_degenerate_limit_is_two_legged_cat():
    spec = ClassicalCodeSpec(2, 1, gen_x=[], gen_z=[])
    code = compile_css(spec, 2.0)
    assert code.K == 2
    values = sorted(c[0, 0].real for c in code.codewords)
    assert values == pytest.approx([-2.0, 2.0])


def test_degenerate_limit_is_product_of_cats():
    spec = ClassicalCodeSpec(3, 2, gen_x=[], gen_z=[])
    code = compile_css(spec, 1.0)
    assert code.K == 9
    assert all(len(c) == 1 for c in code.codewords)
    w = cmath.exp(2j * math.pi / 3)
    seen = {tuple(np.round(c[0], 9)) for c in code.codewords}
    expected = {tuple(np.round([w ** a, w ** b], 9)) for a in range(3) for b in range(3)}
    assert seen == expected


@pytest.mark.parametrize("q,n,gen_x,gen_z", CSS_BATTERY)
def test_counting_identities(q, n, gen_x, gen_z):
    spec = ClassicalCodeSpec(q, n, gen_x=gen_x, gen_z=gen_z)
    code = compile_css(spec, 1.5)
    c_x = brute_span([tuple(r) for r in gen_x], n, q)
    dual_z = brute_dual([tuple(r) for r in gen_z], n, q)
    assert all(len(c) == len(c_x) for c in code.codewords)
    assert code.K * len(c_x) == len(dual_z)
    assert validate_code(code) == []


@pytest.mark.parametrize("q,n,gen_x,gen_z", CSS_BATTERY)
def test_points_are_exactly_the_dual_strings(q, n, gen_x, gen_z):
    spec = ClassicalCodeSpec(q, n, gen_x=gen_x, gen_z=gen_z)
    alpha = 1.0
    code = compile_css(spec, alpha)
    w = cmath.exp(2j * math.pi / q)
    dual_z = brute_dual([tuple(r) for r in gen_z], n, q)
    expected = {tuple(np.round([alpha * w ** b for b in word], 9)) for word in dual_z}
    seen = {tuple(np.round(p, 9)) for p in code.point_array}
    assert seen == expected


def test_coset_leaders_are_weight_then_lex_ordered():
    # dual of [1111] = even-weight strings; cosets of {0000, 1111} get the
    # lexicographically first lowest-weight unused representative
    spec = ClassicalCodeSpec(2, 4, gen_x=[(1, 1, 1, 1)], gen_z=[(1, 1, 1, 1)])
    code = compile_css(spec, 1.0)
    assert list(code.labels) == ["0000", "0011", "0101", "0110"]
    # the coset {011, 100} is led by its weight-1 word, not by the
    # lexicographically first word 011
    code = compile_css(ClassicalCodeSpec(2, 3, gen_x=[(1, 1, 1)]), 1.0)
    assert list(code.labels) == ["000", "001", "010", "100"]


def test_gen_z_row_rotation_is_z_type_when_contained_in_cx():
    """Rotations along gen_Z rows act as logical identity when C_Z <= C_X
    (e.g. the self-orthogonal gen_x == gen_z pairs)."""
    cases = [
        (2, 2, [(1, 1)], [(1, 1)]),
        (2, 4, [(1, 1, 1, 1)], [(1, 1, 1, 1)]),
        (3, 3, [(1, 1, 1)], [(1, 1, 1)]),
    ]
    for q, n, gen_x, gen_z in cases:
        spec = ClassicalCodeSpec(q, n, gen_x=gen_x, gen_z=gen_z)
        code = compile_css(spec, 2.0)
        for row in gen_z:
            pi = rotation_action(code, [2 * math.pi * r / q for r in row])
            assert pi == tuple(range(code.K)), (q, n, row)


def test_css_properties_repetition():
    spec = ClassicalCodeSpec(2, 2, gen_x=[(1, 1)], gen_z=[])
    props = css_properties(spec, alpha=2.0)
    assert props.K == 2
    assert props.points_per_codeword == 2
    assert props.dual_z_size == 4
    assert props.d_x == 1    # C_Z^perp \ C_X = {01, 10}
    assert props.d_z == 2    # C_X^perp \ C_Z = {11}
    assert props.min_separation == pytest.approx(4.0)  # 2|alpha|


def test_css_properties_four_mode():
    spec = ClassicalCodeSpec(2, 4, gen_x=[(1, 1, 1, 1)], gen_z=[(1, 1, 1, 1)])
    props = css_properties(spec, alpha=2.0)
    assert props.K == 4
    assert props.points_per_codeword == 2
    assert props.d_x == 2
    assert props.d_z == 2
    # nearest cosets differ in d_x modes, each contributing |2 alpha|^2
    assert props.min_separation == pytest.approx(4.0 * math.sqrt(2.0))


def test_css_properties_trivial_cat():
    spec = ClassicalCodeSpec(2, 1, gen_x=[], gen_z=[])
    props = css_properties(spec, alpha=2.0)
    assert props.d_x == 1
    assert props.d_z == 1
    assert props.min_separation == pytest.approx(4.0)


@pytest.mark.parametrize("q,n,gen_x,gen_z",
                         [case for case in CSS_BATTERY if case[0] == 2])
def test_separation_distance_dictionary_binary(q, n, gen_x, gen_z):
    """For q = 2 the compiled separation is exactly 2|alpha| sqrt(d_x):
    coset differences live in C_Z^perp \\ C_X, and each differing mode
    contributes |alpha - (-alpha)|^2 to the squared distance."""
    spec = ClassicalCodeSpec(q, n, gen_x=gen_x, gen_z=gen_z)
    props = css_properties(spec, alpha=1.5)
    d_x = brute_min_weight_outside(brute_dual(gen_z, n, q), brute_span(gen_x, n, q))
    if props.K < 2:
        assert d_x is None
        return
    assert props.min_separation == pytest.approx(2.0 * 1.5 * math.sqrt(d_x), rel=1e-12)


@pytest.mark.parametrize("q,n,gen_x,gen_z", CSS_BATTERY + LARGER_Q)
def test_distances_match_enumerated_word_sets(q, n, gen_x, gen_z):
    props = css_properties(ClassicalCodeSpec(q, n, gen_x=gen_x, gen_z=gen_z), alpha=1.5)
    c_x, c_z = brute_span(gen_x, n, q), brute_span(gen_z, n, q)
    dual_z, dual_x = brute_dual(gen_z, n, q), brute_dual(gen_x, n, q)
    assert props.d_x == brute_min_weight_outside(dual_z, c_x)
    assert props.d_z == brute_min_weight_outside(dual_x, c_z)
    assert (props.points_per_codeword, props.dual_z_size) == (len(c_x), len(dual_z))


@pytest.mark.parametrize("q,n,gen_x,gen_z", CSS_BATTERY + LARGER_Q)
@pytest.mark.parametrize("alpha", [1.0, 1.5 - 0.7j])
def test_separation_matches_the_measured_points(q, n, gen_x, gen_z, alpha):
    """The derived separation and the one measured pairwise on the compiled
    points round differently: each sums n terms of size up to 4|alpha|^2, so
    they may part by a few ulps of the result, far below 1e-12 relative."""
    props = css_properties(ClassicalCodeSpec(q, n, gen_x=gen_x, gen_z=gen_z), alpha=alpha)
    if props.K < 2:
        assert props.min_separation == 0.0
        return
    assert props.min_separation == pytest.approx(min_separation(props.code)[0], rel=1e-12)


def test_separation_is_not_the_hamming_weight_guess():
    props = css_properties(ClassicalCodeSpec(5, 2, gen_z=[(2, 4)]), alpha=1.0)
    assert props.d_x == 2
    assert props.min_separation == pytest.approx(2.2360679774997894, rel=1e-15)   # sqrt(5)


def test_css_properties_measures_no_pair_of_points(monkeypatch):
    def no_pairs(*args, **kwargs):
        raise AssertionError("a pairwise distance was computed")
    monkeypatch.setattr(qsc.constellation, "distance_blocks", no_pairs)
    props = css_properties(ClassicalCodeSpec(3, 4, [(1, 1, 1, 0)], [(1, 2, 0, 0)]), alpha=2.0)
    assert props.K == 9 and props.min_separation > 0


def test_huge_modulus_refused_before_the_primality_test(monkeypatch):
    def no_trial_division(q):
        raise AssertionError("primality tested before the budget guard")
    monkeypatch.setattr(qsc.css, "_is_prime", no_trial_division)
    with pytest.raises(BudgetExceededError, match="q=1000000000000000003"):
        ClassicalCodeSpec(1000000000000000003, 1)


def test_css_properties_beyond_length_20():
    # seven blocks of three modes: C_X spanned by each block's all-ones word,
    # C_Z by even words inside the blocks, all but (0, 1, 1) on the last (K = 2).
    # So C_Z^perp \ C_X holds e_20 (d_x = 1), and C_X^perp \ C_Z the words
    # (1, 0, 1) and (0, 1, 1) on the last block (d_z = 2).
    blocks = [[3 * b + i for i in range(3)] for b in range(7)]
    gen_x = [[int(j in block) for j in range(21)] for block in blocks]
    gen_z = [[int(j in (block[i], block[i + 1])) for j in range(21)]
             for block in blocks for i in range(2)][:13]
    props = css_properties(ClassicalCodeSpec(2, 21, gen_x, gen_z), alpha=1.5)
    assert (props.K, props.points_per_codeword, props.dual_z_size) == (2, 128, 256)
    assert props.d_x == 1 and props.d_z == 2
    assert props.min_separation == pytest.approx(2.0 * 1.5 * math.sqrt(props.d_x), rel=1e-12)


def test_css_properties_budget_checked_before_enumeration(monkeypatch):
    from qsc.moments import BudgetExceededError
    # C_Z^perp has 2^6 words, but C_X^perp has 2^20, above the budget
    gen_x = [[1] * 21]
    gen_z = [[1 if j in (0, i) else 0 for j in range(21)] for i in range(1, 16)]
    spec = ClassicalCodeSpec(2, 21, gen_x, gen_z)

    def no_work(*args):
        raise AssertionError("words enumerated before the budget guard")
    monkeypatch.setattr(qsc.css, "_span", no_work)
    with pytest.raises(BudgetExceededError, match="2\\^20 words"):
        css_properties(spec)


def test_css_properties_enumerates_the_dual_once(monkeypatch):
    spec = ClassicalCodeSpec(2, 5, gen_x=[(1, 1, 1, 1, 1)], gen_z=[(1, 1, 0, 0, 0)])
    want = css_properties(spec, 2.0)
    calls = []
    dual = ClassicalCodeSpec.c_z_dual
    monkeypatch.setattr(ClassicalCodeSpec, "c_z_dual",
                        lambda self: calls.append(self) or dual(self))
    got = css_properties(spec, 2.0)
    assert len(calls) == 1
    assert got == want
    assert got.code == compile_css(spec, 2.0)


def test_css_properties_row_reduces_each_generator_matrix_once(monkeypatch):
    spec = ClassicalCodeSpec(3, 4, gen_x=[(1, 1, 1, 0)], gen_z=[(1, 2, 0, 0)])
    calls = []
    rref = qsc.css._rref
    monkeypatch.setattr(qsc.css, "_rref", lambda *a: calls.append(a) or rref(*a))
    props = css_properties(spec, 2.0)
    assert len(calls) == 2
    assert props.code == compile_css(ClassicalCodeSpec(3, 4, spec.gen_x, spec.gen_z), 2.0)
