from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsc
from qsc.kl import (
    _summarize,
    dephasing_kl_matrix,
    detection_report,
    kl_matrix,
    stirling2,
)
from qsc.constellation import QscError
from qsc.moments import BudgetExceededError

from brute_force import brute_kl_matrix, brute_multi_indices, brute_overlap
from conftest import code_of, constellations_as_lists, css_of_shape, random_three_point_code


# ---------------------------------------------------------------------------
# overlaps and norms, read from the code's frame
# ---------------------------------------------------------------------------

def frame_overlap(z, w) -> complex:
    """<z|w> as the overlap frame of a one-codeword code on z and w holds it."""
    return complex(code_of(len(z), 0.0, [[z, w]]).overlap[0, 1])


def frame_norm_sq(rows) -> float:
    """The squared norm of sum_z |z> over the point rows, from the frame of a
    code on them."""
    return float(code_of(len(rows[0]), 0.0, [rows]).codeword_norms_sq[0])


def test_overlap_of_identical_states_is_one():
    z = [1.3 - 0.7j, 0.2j]
    assert frame_overlap(z, z) == pytest.approx(1.0)


def test_overlap_antipodal_unit():
    assert frame_overlap([1.0], [-1.0]) == pytest.approx(math.exp(-2.0))


def test_overlap_magnitude_identity_for_equal_norms():
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w *= np.linalg.norm(z) / np.linalg.norm(w)
        expected = math.exp(-0.5 * float(np.linalg.norm(z - w)) ** 2)
        assert abs(frame_overlap(z, w)) == pytest.approx(expected, rel=1e-12)


def test_codeword_norm_single_point():
    assert frame_norm_sq([[2.0]]) == pytest.approx(1.0)


def test_codeword_norm_two_legs():
    assert frame_norm_sq([[2.0], [-2.0]]) == pytest.approx(2.0 + 2.0 * math.exp(-8.0), rel=1e-14)


def test_codeword_norm_degenerate():
    c = [[1e-9], [-1e-9]]
    # the superposition of two nearly identical states is fine, but a
    # +/- cat at tiny amplitude has norm ~ 2 + 2*(1 - eps) which is fine too;
    # force degeneracy with opposite-sign duplicates of the same state
    degenerate = code_of(1, 0.0, [[[0.0], [0.0]]])
    # duplicate points are a validity violation, but the norm itself is 4 > 0
    assert degenerate.codeword_norms_sq[0] == pytest.approx(4.0)
    assert frame_norm_sq(c) > 0.0


# ---------------------------------------------------------------------------
# KL matrices
# ---------------------------------------------------------------------------

def test_identity_error_gives_gram_matrix(four_legged):
    m = kl_matrix(four_legged, (0,), (0,))
    assert np.allclose(np.diag(m), 1.0)
    assert np.allclose(m, m.conj().T)
    assert np.min(np.linalg.eigvalsh(m)) >= -1e-10
    # off-diagonal = 4 e^{-a^2} cos(a^2) / (2 + 2 e^{-2a^2}) at alpha = 2
    expected = 4 * math.exp(-4.0) * math.cos(4.0) / (2 + 2 * math.exp(-8.0))
    assert m[0, 1] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("entry", [e for e in qsc.list_catalog() if e.modes <= 2],
                         ids=lambda e: e.entry_id)
def test_gram_psd_across_catalog(entry):
    code = entry.build(4.0)
    m = kl_matrix(code, (0,) * code.modes, (0,) * code.modes)
    assert np.allclose(np.diag(m), 1.0, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(m)) >= -1e-10


def test_four_legged_loss_cancels_exactly(four_legged):
    m = kl_matrix(four_legged, (0,), (1,))
    assert np.max(np.abs(m)) < 1e-12


def test_two_legged_loss_not_detected(two_legged):
    m = kl_matrix(two_legged, (0,), (1,))
    assert np.max(np.abs(m)) > 0.1
    assert m[0, 0] == pytest.approx(2.0)
    assert m[1, 1] == pytest.approx(-2.0)
    assert abs(m[0, 1]) == pytest.approx(2.0 * math.exp(-8.0), rel=1e-12)


def test_kl_matches_brute_force(cat33):
    lists = constellations_as_lists(cat33)
    for combined in brute_multi_indices(2, 2):
        r, s = combined[:1], combined[1:]
        mine = kl_matrix(cat33, r, s)
        brute = np.array(brute_kl_matrix(lists, r, s))
        assert np.max(np.abs(mine - brute)) < 1e-12


def test_dagger_symmetry(repetition_css):
    rng = np.random.default_rng(23)
    for _ in range(6):
        r = tuple(rng.integers(0, 3, size=2))
        s = tuple(rng.integers(0, 3, size=2))
        a = kl_matrix(repetition_css, r, s)
        b = kl_matrix(repetition_css, s, r)
        assert np.max(np.abs(a - b.conj().T)) < 1e-12


def test_offdiagonals_shrink_with_radius():
    for name, params in [("cat", {"S": 1, "K": 2}), ("cat", {"S": 2, "K": 2}),
                         ("cat", {"S": 3, "K": 3})]:
        for s_power in (0, 1, 2):
            prev = None
            for E in (1.0, 4.0, 9.0):
                code = qsc.build(name, E, **params)
                m = kl_matrix(code, (0,), (s_power,))
                off = float(np.max(np.abs(m - np.diag(np.diag(m)))))
                if prev is not None:
                    assert off <= prev + 1e-9
                prev = off


HIGH_ENERGY_CODES = [("cat", {"S": 1, "K": 2}), ("cell24", {"partition": "three"}),
                     ("hypercube", {"n": 2})]


@pytest.mark.parametrize("energy", [700.0, 1000.0, 5000.0])
@pytest.mark.parametrize("name, params", HIGH_ENERGY_CODES,
                         ids=[name for name, _ in HIGH_ENERGY_CODES])
def test_high_energy_matrices_match_brute_force(name, params, energy):
    # at high energy the overlaps of distant points, exp(-|z - w|^2 / 2),
    # underflow to zero, which is also what their exact values round to
    code = qsc.build(name, energy, **params)
    cws = constellations_as_lists(code)
    report = detection_report(code, 2, tol=1e-6)
    for label, r, s, degree, lam, _ in monomial_rows(report):
        brute = np.array(brute_kl_matrix(cws, r, s))
        scale = 1e-15 * energy ** (degree / 2)
        assert np.max(np.abs(kl_matrix(code, r, s) - brute)) <= scale, label
        assert abs(lam - np.trace(brute) / code.K) <= scale, label


def test_dimension_mismatch():
    code = qsc.build("cat", 4.0, S=1, K=2)
    for r, s in [((0, 0), (1, 0)), ((0,), (1, 0)), ((0, 0), (1,)), ((), ())]:
        with pytest.raises(qsc.DimensionMismatchError, match="code has n=1"):
            kl_matrix(code, r, s)
    with pytest.raises(ValueError, match="nonnegative"):
        kl_matrix(code, (-1,), (0,))


def test_fractional_exponents_are_refused(two_legged):
    # a cast to integers would give the matrix of (0,), (1,)
    with pytest.raises(ValueError, match="nonnegative integers"):
        kl_matrix(two_legged, (0.5,), (1.7,))
    assert np.array_equal(kl_matrix(two_legged, (2.0,), (1.0,)), kl_matrix(two_legged, (2,), (1,)))


# ---------------------------------------------------------------------------
# Stirling numbers and dephasing rows
# ---------------------------------------------------------------------------

def test_stirling_numbers():
    assert stirling2(0) == [1]
    assert stirling2(1) == [0, 1]
    assert stirling2(4) == [0, 1, 7, 6, 1]
    # row sums are the Bell numbers
    assert sum(stirling2(5)) == 52
    assert sum(stirling2(10)) == 115975
    with pytest.raises(ValueError):
        stirling2(21)


def test_dephasing_first_power_is_number_operator(four_legged):
    direct = kl_matrix(four_legged, (1,), (1,))
    assert np.allclose(dephasing_kl_matrix(four_legged, 0, 1), direct)


@pytest.mark.parametrize("mode", [5, -1, 1])
def test_dephasing_refuses_a_mode_the_code_lacks(four_legged, mode):
    with pytest.raises(qsc.DimensionMismatchError, match=f"mode {mode} .* 1 modes"):
        dephasing_kl_matrix(four_legged, mode, 2)


def test_dephasing_expansion_against_fock(four_legged):
    from qsc.fock import FockConfig, embed_codewords
    cfg = FockConfig(cutoff=60, modes=1)
    psis = embed_codewords(four_legged, cfg)
    n_diag = np.arange(cfg.cutoff, dtype=float)
    for k in (2, 3):
        mine = dephasing_kl_matrix(four_legged, 0, k)
        expected = np.array([[np.vdot(a, (n_diag ** k) * b) for b in psis]
                             for a in psis])
        assert np.max(np.abs(mine - expected)) < 1e-8


# ---------------------------------------------------------------------------
# detection report
# ---------------------------------------------------------------------------

def monomial_rows(report):
    """(label, r, s, degree, lambda, delta) of each monomial row of a report,
    r and s its exponent rows as tuples."""
    n = report.exponents.shape[1] // 2
    return zip(report.labels(), (tuple(e[:n]) for e in report.exponents.tolist()),
               (tuple(e[n:]) for e in report.exponents.tolist()), report.degrees.tolist(),
               report.lam.tolist(), report.delta.tolist())


def test_detection_trivial_single_codeword():
    code = qsc.build("cell24", 4.0, partition="one")
    report = detection_report(code, 2, tol=1e-12)
    assert report.detection_degree == 2
    assert all(delta < 1e-12 for delta in report.delta)


def test_detection_four_legged_cat(four_legged):
    # at alpha = 2 the codeword overlap floor is 2 e^{-4} cos(4) ~ -0.024,
    # so at tol 1e-6 even the identity fails; at tol 0.05 one loss is covered
    report = detection_report(four_legged, 1, tol=1e-6)
    assert report.detection_degree == -1
    assert report.exponents[0].tolist() == [0, 0]
    assert report.delta[0] == pytest.approx(
        abs(4 * math.exp(-4.0) * math.cos(4.0) / (2 + 2 * math.exp(-8.0))), rel=1e-9)
    relaxed = detection_report(four_legged, 1, tol=0.05)
    assert relaxed.detection_degree == 1


def test_detection_four_legged_cat_high_energy():
    code = qsc.build("cat", 16.0, S=2, K=2)
    report = detection_report(code, 1, tol=1e-6, include_dephasing_to=2)
    assert report.detection_degree == 1
    labels = report.labels()
    assert "n1" in labels and "n1^2" in labels


def test_detection_two_legged_cat(two_legged):
    report = detection_report(two_legged, 1, tol=0.05)
    assert report.detection_degree == 0
    loss_row = report.exponents.tolist().index([0, 1])
    assert report.delta[loss_row] == pytest.approx(2.0)


def test_detection_report_columns_match_its_rows():
    code = qsc.build("cat", 16.0, S=2, K=2)
    report = detection_report(code, 2, tol=1e-6, include_dephasing_to=2)
    rows = report.rows
    assert len(rows) == len(report.exponents) + len(report.dephasing) == len(report.lam)
    assert report.labels() == [label for label, _, _, _ in rows]
    assert report.degrees.tolist() == [degree for _, degree, _, _ in rows]
    assert report.lam.tolist() == [lam for _, _, lam, _ in rows]
    assert report.delta.tolist() == [delta for _, _, _, delta in rows]
    assert report.exponents.tolist() == [list(e) for e in brute_multi_indices(2, 2)]
    assert report.dephasing.tolist() == [[0, 1], [0, 2]]
    assert report.labels()[-2:] == ["n1", "n1^2"]
    assert report.degrees[-2:].tolist() == [2, 4]


def test_detection_budget(monkeypatch):
    code = qsc.build("cat", 4.0, S=1, K=2)
    monkeypatch.setattr(qsc.kl, "ERROR_BUDGET", 10)   # degree 3 on 1 mode: 10 errors
    detection_report(code, 3, tol=1e-6)

    def no_work(*args):
        raise AssertionError("monomials evaluated before the budget guard")
    monkeypatch.setattr(qsc.kl, "monomial_values", no_work)
    with pytest.raises(BudgetExceededError, match="15 monomials, budget is 10"):
        detection_report(code, 4, tol=1e-6)


def _no_monomials(*args):
    raise AssertionError("monomials evaluated before the guard")


def test_detection_arrays_are_checked_against_the_entry_budget(monkeypatch):
    monkeypatch.setattr(qsc.kl, "monomial_values", _no_monomials)
    # two points on 8,000 modes at degree 1: 16,001 errors of 16,000 exponents
    wide = np.zeros((2, 8000))
    wide[:, 0] = [2.0, -2.0]
    with pytest.raises(BudgetExceededError, match="the exponent rows of 16001 errors would "
                                                  "hold 256016000 entries"):
        detection_report(code_of(8000, 4.0, [wide[:1], wide[1:]]), 1, tol=1e-6)
    # degree 10 on 2 modes: 1,001 errors of 4 exponents, but 66^2 entries in
    # each of the lambda and delta grids
    monkeypatch.setattr(qsc.constellation, "ENTRY_BUDGET", 66 ** 2 - 1)
    with pytest.raises(BudgetExceededError, match="delta grids would hold 4356 entries"):
        detection_report(qsc.build("orthoplex", 4.0, n=2), 10, tol=1e-6)


def test_detection_degree_beyond_the_float_range_is_refused(monkeypatch):
    # points +-8: 2^2 sums of 8^D leave the float range from D = 341 on
    cat = qsc.build("cat", 64.0, S=1, K=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = detection_report(cat, 340, tol=1e-6)
    assert np.all(np.isfinite(report.lam)) and np.all(np.isfinite(report.delta))
    monkeypatch.setattr(qsc.kl, "monomial_values", _no_monomials)
    with pytest.raises(QscError, match="out of range for KL errors of degree 341"):
        detection_report(cat, 341, tol=1e-6)
    # the dephasing powers count twice: n^20 holds monomials of degree 40
    far = qsc.build("cat", 1e16, S=1, K=2)
    with pytest.raises(QscError, match="out of range for KL errors of degree 40"):
        detection_report(far, 1, tol=1e-6, include_dephasing_to=20)


def test_detection_rows_conjugate_pairs(four_legged):
    report = detection_report(four_legged, 2, tol=1e-6)
    by_error = {(r, s): kl_matrix(four_legged, r, s) for _, r, s, _, _, _ in monomial_rows(report)}
    for (r, s), m in by_error.items():
        assert np.max(np.abs(by_error[s, r] - m.conj().T)) < 1e-12


amplitude = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@st.composite
def small_codes(draw):
    """Random 1- and 2-mode codes: 1-3 codewords of 1-3 arbitrary points."""
    n = draw(st.sampled_from([1, 2]))
    point = st.lists(amplitude, min_size=n, max_size=n)
    return [draw(st.lists(point, min_size=1, max_size=3)) for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=40, deadline=None)
@given(small_codes())
def test_detection_rows_match_brute_force(cws):
    code = code_of(len(cws[0][0]), 0.0, cws)
    report = detection_report(code, 2, tol=1e-6)
    for _, r, s, _, row_lam, row_delta in monomial_rows(report):
        brute = np.array(brute_kl_matrix(cws, r, s))
        scale = 1e-12 * max(1.0, np.max(np.abs(brute)))
        assert np.max(np.abs(kl_matrix(code, r, s) - brute)) <= scale
        # the report's own summary, not only the recomputed matrix
        lam = np.trace(brute) / len(cws)
        assert abs(row_lam - lam) <= scale
        assert abs(row_delta - np.max(np.abs(brute - lam * np.eye(len(cws))))) <= scale
    # the identity row is the Gram matrix of the normalized codewords
    sums = np.array([[sum(brute_overlap(z, w) for z in a for w in b) for b in cws] for a in cws])
    gram = sums / np.sqrt(np.outer(np.diag(sums).real, np.diag(sums).real))
    n = code.modes
    assert report.exponents[0].tolist() == [0] * (2 * n)
    assert np.max(np.abs(kl_matrix(code, report.exponents[0, :n], report.exponents[0, n:])
                         - gram)) <= 1e-12


def _assert_same_report(a, b):
    # the block width changes only the order of some sums, hence the last bit
    assert a.detection_degree == b.detection_degree
    assert (a.labels(), a.degrees.tolist()) == (b.labels(), b.degrees.tolist())
    for x_lam, y_lam, x_delta, y_delta in zip(a.lam, b.lam, a.delta, b.delta):
        assert abs(x_lam - y_lam) <= 1e-14 * max(1.0, abs(x_lam))
        assert abs(x_delta - y_delta) <= 1e-14 * max(1.0, x_delta)


@pytest.mark.parametrize("code", [
    qsc.build("cat", 4.0, S=3, K=3),
    qsc.build("cell600", 4.0, partition="five"),
    qsc.build("hessian", 4.0),
    qsc.compile_css(qsc.ClassicalCodeSpec(2, 4, gen_x=[[1, 1, 1, 1]], gen_z=[]), 2.0),
    # singleton codewords: K = N = 128, so no block sum is shared
    qsc.compile_css(qsc.ClassicalCodeSpec(2, 7, gen_x=[], gen_z=[]), 2.0),
], ids=["cat33", "cell600-five", "hessian", "css-L4", "css-singletons"])
def test_detection_report_independent_of_block_size(code, monkeypatch):
    degree = 2 if code.modes <= 3 else 1
    default = detection_report(code, degree, tol=1e-6)
    monkeypatch.setattr(qsc.constellation, "BLOCK_ENTRIES", 1)
    _assert_same_report(detection_report(code, degree, tol=1e-6), default)


@st.composite
def unequal_codes(draw):
    """Random 1- to 3-mode codes of 2 or 3 codewords with distinct sizes 1-4."""
    n = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3, unique=True))
    point = st.lists(amplitude, min_size=n, max_size=n)
    cws = [draw(st.lists(point, min_size=m, max_size=m)) for m in sizes]
    return code_of(n, 0.0, cws)


def _assert_rows_match_kl_matrix(code):
    report = detection_report(code, 2, tol=1e-6)
    errors = {(r, s) for _, r, s, _, _, _ in monomial_rows(report)}
    # the report holds both (r, s) and (s, r): half of them filled by the dagger
    assert {(s, r) for r, s in errors} == errors
    for _, r, s, _, row_lam, row_delta in monomial_rows(report):
        (lam,), (delta,) = _summarize(kl_matrix(code, r, s)[:, :, None])
        scale = 1e-12 * max(1.0, abs(lam))
        assert abs(row_lam - lam) <= scale and abs(row_delta - delta) <= scale
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qsc.constellation, "BLOCK_ENTRIES", 1)
        _assert_same_report(detection_report(code, 2, tol=1e-6), report)


@settings(max_examples=40, deadline=None)
@given(unequal_codes())
def test_detection_rows_of_unequal_codewords_match_kl_matrix(code):
    _assert_rows_match_kl_matrix(code)


def test_detection_rows_of_cell24_two_match_kl_matrix():
    code = qsc.build("cell24", 4.0, partition="two")
    assert sorted(len(c) for c in code.codewords) == [8, 16]
    _assert_rows_match_kl_matrix(code)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("shape", [(2, 7, 0, 0), (2, 7, 3, 0)], ids=["K128", "K16x8"])
def test_detection_rows_of_css_codes_match_brute_force(shape, degree):
    # K = 128 singleton codewords, and K = 16 codewords of 8 points: both
    # summed by reshaping; the oracle takes a tenth of a second per row, so
    # five rows spread over the report are checked, the last of top degree
    code = css_of_shape(*shape)
    cws = constellations_as_lists(code)
    report = detection_report(code, degree, tol=1e-6)
    assert report.degrees[-1] == degree
    rows = list(monomial_rows(report))
    for i in np.linspace(0, len(rows) - 1, 5).astype(int):
        label, r, s, _, row_lam, row_delta = rows[i]
        brute = np.array(brute_kl_matrix(cws, r, s))
        lam = np.trace(brute) / code.K
        scale = 1e-12 * max(1.0, np.max(np.abs(brute)))
        assert abs(row_lam - lam) <= scale, label
        assert abs(row_delta - np.max(np.abs(brute - lam * np.eye(code.K)))) <= scale, label
