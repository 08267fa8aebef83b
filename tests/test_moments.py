from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsc
from qsc.constellation import DimensionMismatchError, QSCode
from qsc.moments import (
    BudgetExceededError,
    _degree_table,
    _index_blocks,
    _index_position,
    _index_table,
    _moment_values,
    count_multi_indices,
    design_strength,
    monomial_values,
    sphere_average,
)

from brute_force import (
    all_indices,
    brute_match_strength,
    brute_multi_indices,
    brute_moment,
    brute_sphere_average,
    brute_sphere_strength,
    monte_carlo_sphere_average,
)
from conftest import code_of, constellations_as_lists, random_unitary


def fourth_roots() -> np.ndarray:
    return np.array([[1.0], [1j], [-1.0], [-1j]])


# ---------------------------------------------------------------------------
# monomial evaluation
# ---------------------------------------------------------------------------

@settings(max_examples=40)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 3), st.integers(1, 5))
def test_monomial_values_match_plain_powers(seed, n_points, n, n_monomials):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_points, n)) + 1j * rng.standard_normal((n_points, n))
    exps = rng.integers(0, 7, size=(n_monomials, n))
    expected = np.array([[math.prod(complex(z[k, i]) ** int(e[i]) for i in range(n))
                          for e in exps] for k in range(n_points)])
    np.testing.assert_allclose(monomial_values(z, exps), expected, rtol=1e-12, atol=0)


def test_monomial_values_rejects_bad_exponents():
    z = np.ones((3, 2), dtype=np.complex128)
    with pytest.raises(ValueError):
        monomial_values(z, [[1, -1]])
    with pytest.raises(DimensionMismatchError):
        monomial_values(z, [[1, 2, 3]])


@pytest.mark.parametrize("exponent", [0.5, 1.7, 2.000001, math.nan, math.inf, 1e30])
def test_fractional_exponents_are_refused_not_truncated(exponent):
    # a cast to integers would read 1.5 as 1, and sphere_average([[1.5]], [[1.2]], 1)
    # as the average 1 of |z|^2
    z = np.full((3, 1), 0.5 + 0.5j)
    with pytest.raises(ValueError, match="nonnegative integers"):
        monomial_values(z, [[exponent]])
    with pytest.raises(ValueError, match="nonnegative integers"):
        sphere_average([[exponent]], [[1]], 1)
    with pytest.raises(ValueError, match="nonnegative integers"):
        sphere_average([[1.5]], [[1.2]], 1)
    # integer-valued floats are integers
    assert np.array_equal(monomial_values(z, [[2.0]]), monomial_values(z, [[2]]))
    assert sphere_average([[2.0]], [[2.0]], 1).tolist() == [1.0]


# ---------------------------------------------------------------------------
# single moments
# ---------------------------------------------------------------------------

def moment(c: np.ndarray, p, q) -> complex:
    """Average of z^p conj(z)^q over the unit-normalized point rows of c, by
    the evaluator design_strength averages over each codeword."""
    z = c / np.linalg.norm(c, axis=1, keepdims=True)
    return complex(np.mean(_moment_values(z, [p], [q])))


def test_trivial_moment_is_one():
    c = np.array([[0.3 + 0.4j, 1.0]])
    assert moment(c, (0, 0), (0, 0)) == 1.0


def test_fourth_roots_first_moment_vanishes():
    assert abs(moment(fourth_roots(), (1,), (0,))) < 1e-15


def test_fourth_roots_fourth_moment_is_one():
    assert abs(moment(fourth_roots(), (4,), (0,)) - 1.0) < 1e-15


def test_moment_matches_brute_force():
    code = qsc.build("cell24", 2.5, partition="three")
    lists = constellations_as_lists(code)
    for e in brute_multi_indices(4, 4):
        for c, pts in zip(code.codewords, lists):
            assert abs(moment(c, e[:2], e[2:]) - brute_moment(pts, e[:2], e[2:])) < 1e-12


@settings(max_examples=40)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 3))
def test_moment_conjugation_symmetry(seed, p1, p2, q1, q2):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    a = moment(z, (p1, p2), (q1, q2))
    b = moment(z, (q1, q2), (p1, p2))
    assert a == pytest.approx(b.conjugate(), abs=1e-13)


# ---------------------------------------------------------------------------
# sphere averages
# ---------------------------------------------------------------------------

def test_sphere_average_closed_form_small_cases():
    assert sphere_average([[1]], [[1]], 1).tolist() == [1.0]
    # E|z1|^4 on C^2: 2!*1!/3! = 1/3
    averages = sphere_average([[1, 0], [2, 0], [2, 0]], [[1, 0], [0, 2], [2, 0]], 2)
    assert averages[:2].tolist() == [0.5, 0.0]
    assert averages[2] == pytest.approx(1 / 3)
    # an off-diagonal exponent beyond 170 (171! overflows a float) is never
    # turned into a factorial: |z|^200 averages to 1 on the circle
    assert sphere_average([[171], [100]], [[0], [100]], 1).tolist() == pytest.approx([0.0, 1.0])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_average_matches_loop_oracle(n):
    table = _index_table(2 * n, 6)
    want = [brute_sphere_average(tuple(e[:n]), tuple(e[n:]), n) for e in table.tolist()]
    assert sphere_average(table[:, :n], table[:, n:], n).tolist() == want


@pytest.mark.parametrize("n", [1, 2, 4])
def test_sphere_average_is_the_exact_ratio_rounded_once(n):
    # entries up to 299, far past 170 (171! overflows a float): each average is
    # the nearest float to prod_i p_i! (n-1)! / (n-1+|p|)!, as float() rounds a Fraction
    rows = np.random.default_rng(n).integers(0, 300, size=(20, n))
    want = [float(Fraction(math.prod(map(math.factorial, row)) * math.factorial(n - 1),
                           math.factorial(n - 1 + sum(row)))) for row in rows.tolist()]
    assert sphere_average(rows, rows, n).tolist() == want


def test_sphere_average_monte_carlo_degree_two():
    est, se = monte_carlo_sphere_average((2, 0), (0, 2), 2, samples=200_000, seed=7)
    assert abs(est) < max(3.0 * se, 3e-3)


@pytest.mark.parametrize("n", [1, 2])
def test_sphere_average_monte_carlo_all_low_degree(n):
    base_seed = 1000 * n
    for k, e in enumerate(brute_multi_indices(2 * n, 3)):
        p, q = e[:n], e[n:]
        est, se = monte_carlo_sphere_average(p, q, n, samples=100_000, seed=base_seed + k)
        assert abs(est - sphere_average([p], [q], n)[0]) <= 3.0 * se + 1e-12, e


# ---------------------------------------------------------------------------
# design strengths
# ---------------------------------------------------------------------------

def test_four_legged_cat_strengths_match_brute_force(four_legged):
    # Expected values frozen from the brute-force oracle below:
    # the z^2 moment is +1 on {+-alpha} and -1 on {+-i alpha}, so both the
    # sphere and the cross-constellation checks first fail at degree 2.
    lists = constellations_as_lists(four_legged)
    assert brute_sphere_strength(lists, 6) == 1
    assert brute_match_strength(lists, 6) == 1
    report = design_strength(four_legged, 6)
    assert report.sphere_strength == 1
    assert report.matching_strength == 1
    assert report.match_residual_per_degree[2] == pytest.approx(2.0)


def test_cell24_single_constellation_is_a_five_design():
    code = qsc.build("cell24", 1.0, partition="one")
    report = design_strength(code, 7)
    assert report.sphere_strength == 5
    assert report.sphere_residual_per_degree[6] > 1e-3
    assert brute_sphere_strength(constellations_as_lists(code), 7) == 5


def test_cell600_is_an_eleven_design():
    code = qsc.build("cell600", 1.0)
    report = design_strength(code, 12)
    assert report.sphere_strength == 11
    assert report.sphere_residual_per_degree[12] > 1e-3


def test_design_report_match_at_least_sphere():
    for entry in qsc.list_catalog():
        report = design_strength(entry.build(1.0), 4)
        assert report.matching_strength >= report.sphere_strength, entry.entry_id


def test_phase_rotation_shifts_moment_by_phase():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    thetas = rng.uniform(0, 2 * math.pi, size=2)
    rotated = z * np.exp(1j * thetas)
    p, q = (2, 1), (0, 3)
    phase = np.exp(1j * (np.array(p) - np.array(q)) @ thetas)
    assert moment(rotated, p, q) == pytest.approx(moment(z, p, q) * phase, abs=1e-12)


@pytest.mark.parametrize("name,params", [
    ("cat", {"S": 2, "K": 2}),
    ("cell24", {"partition": "three"}),
])
def test_strengths_invariant_under_phase_rotations(name, params):
    code = qsc.build(name, 4.0, **params)
    base = design_strength(code, 6)
    rng = np.random.default_rng(3)
    thetas = rng.uniform(0, 2 * math.pi, size=code.modes)
    rotated = QSCode(code.modes, code.radius_sq, code.point_array * np.exp(1j * thetas),
                     code.codeword_sizes, code.labels)
    report = design_strength(rotated, 6)
    assert report.sphere_strength == base.sphere_strength
    assert report.matching_strength == base.matching_strength


def test_sphere_strength_invariant_under_random_unitary():
    code = qsc.build("cell24", 1.0, partition="one")
    base = design_strength(code, 6)
    rng = np.random.default_rng(17)
    for _ in range(3):
        u = random_unitary(2, rng)
        rotated = QSCode(2, 1.0, code.point_array @ u.T, code.codeword_sizes, code.labels)
        assert design_strength(rotated, 6).sphere_strength == base.sphere_strength


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2), st.integers(1, 3), st.integers(0, 4),
       st.booleans())
def test_design_residuals_match_brute_force(seed, n, K, t_max, equal):
    rng = np.random.default_rng(seed)
    # codewords of one size are summed by a reshape, of several by reduceat
    sizes = np.repeat(rng.integers(1, 5), K) if equal else rng.integers(1, 5, size=K)
    N = int(sizes.sum())
    code = QSCode(n, 1.0, rng.standard_normal((N, n)) + 1j * rng.standard_normal((N, n)), sizes,
                  [str(mu) for mu in range(K)])
    lists = constellations_as_lists(code)
    report = design_strength(code, t_max)
    for degree in range(t_max + 1):
        sphere, match = 0.0, 0.0
        for p, q in all_indices(n, degree):
            vals = [brute_moment(points, p, q) for points in lists]
            target = brute_sphere_average(p, q, n)
            sphere = max(sphere, max(abs(v - target) for v in vals))
            match = max(match, max(abs(a - b) for a in vals for b in vals))
        assert report.sphere_residual_per_degree[degree] == pytest.approx(sphere, abs=1e-12)
        assert report.match_residual_per_degree[degree] == pytest.approx(match, abs=1e-12)


@pytest.mark.parametrize("name,params", [
    ("cell600", {"partition": "five"}),
    ("cat", {"S": 3, "K": 3}),
])
def test_design_report_independent_of_block_size(monkeypatch, name, params):
    code = qsc.build(name, 4.0, **params)
    default = design_strength(code, 6)
    n_points = len(code.point_array)
    monkeypatch.setattr("qsc.constellation.BLOCK_ENTRIES", 3 * max(n_points, code.K))
    assert design_strength(code, 6) == default


def test_design_budget_guard(monkeypatch):
    code = qsc.build("cat", 1.0, S=1, K=2)
    monkeypatch.setattr(qsc.moments, "INDEX_BUDGET", 100)
    design_strength(code, 12)   # 91 indices of degree <= 12 on 1 mode

    def no_work(*args):
        raise AssertionError("moments evaluated before the budget guard")
    monkeypatch.setattr(qsc.moments, "_moment_values", no_work)
    with pytest.raises(BudgetExceededError, match="needs 105 indices, budget is 100"):
        design_strength(code, 13)


def test_point_at_the_origin_is_named_not_a_nan():
    origin = code_of(1, 0.0, [[[0.0]]])
    with pytest.raises(qsc.QscError, match="point 0 of codeword '0' lies at the origin"):
        design_strength(origin, 2)
    code = code_of(2, 1.0, {"c": [[1.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(qsc.QscError, match="point 1 of codeword 'c' lies at the origin"):
        design_strength(code, 2)


def test_enumeration_is_graded_lexicographic():
    # (p, q) of the moments z^p conj(z)^q on one mode, as design_strength
    # takes them from the rows of the graded table
    seen = [(e[:1], e[1:]) for e in _index_table(2, 2).tolist()]
    assert seen == [([0], [0]), ([0], [1]), ([1], [0]), ([0], [2]), ([1], [1]), ([2], [0])]


# Every degree 0-8 on dimensions 1-16, up to 20,000 tuples per dimension:
# the recursive oracle needs seconds for the largest tables.
@pytest.mark.parametrize("dim", range(1, 17))
def test_multi_indices_match_recursive_oracle(dim):
    top = max(d for d in range(9) if count_multi_indices(dim, d) <= 20_000)
    oracle = list(brute_multi_indices(dim, top))
    for degree in range(top + 1):
        assert list(map(tuple, _index_table(dim, degree).tolist())) == \
            oracle[:count_multi_indices(dim, degree)]
        table = _index_table(dim, degree)
        assert table.shape == (count_multi_indices(dim, degree), dim)
        assert np.array_equal(_index_position(table), np.arange(len(table)))
    blocks = list(_index_blocks(dim, top, 7))
    assert all(len(b) == 7 for b in blocks[:-1]) and 0 < len(blocks[-1]) <= 7
    assert np.array_equal(np.vstack(blocks), _index_table(dim, top))


def test_index_position_of_sums():
    # position(d + m) for every pair in the degree-3 table of 3 modes
    table = _index_table(3, 3)
    lookup = {d: j for j, d in enumerate(brute_multi_indices(3, 6))}
    sums = table[:, None, :] + table[None, :, :]
    want = [[lookup[tuple(row)] for row in block.tolist()] for block in sums]
    assert np.array_equal(_index_position(sums), np.array(want))


def test_degree_tables_are_built_once_and_read_only(monkeypatch):
    table = _degree_table(4, 3)
    assert table is _degree_table(4, 3)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 7
    # a table above one block of entries is built on each call, as read-only
    monkeypatch.setattr(qsc.constellation, "BLOCK_ENTRIES", table.size - 1)
    large = _degree_table(4, 3)
    assert large is not _degree_table(4, 3) and np.array_equal(large, table)
    with pytest.raises(ValueError, match="read-only"):
        large[0, 0] = 7
