from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import qsc
from qsc.constellation import BudgetExceededError, QSCode
from qsc.kl import MonomialError, kl_matrix
from qsc.fock import (
    FockConfig,
    TruncationError,
    dephasing_channel_fidelity,
    embed_codewords,
    loss_channel_fidelity,
)

from brute_force import (
    annihilation,
    brute_multi_indices,
    codeword_vector,
    coherent_amplitudes,
    fock_loss_fidelity,
    kl_matrix_fock,
    quadrature_dephasing_fidelity,
)
from conftest import code_of, random_three_point_code


CFG1 = FockConfig(cutoff=60, modes=1)


def test_config_validation(monkeypatch):
    with pytest.raises(ValueError):
        FockConfig(cutoff=1, modes=1)
    with pytest.raises(ValueError):
        FockConfig(cutoff=10, modes=0)
    # no cap on cutoff^modes: the budget is on the entries of what is built,
    # here the embedding, N cutoff^modes
    assert FockConfig(cutoff=17, modes=3).dim == 4913
    assert FockConfig(cutoff=100, modes=4).dim == 10 ** 8
    hessian = qsc.build("hessian", 1.0)
    with pytest.raises(BudgetExceededError, match="embedding of 27 points at cutoff 70 would "
                                                  "hold 9261000 entries, above the budget 9000000"):
        embed_codewords(hessian, FockConfig(cutoff=70, modes=3))
    # at the budget the check passes
    monkeypatch.setattr(qsc.fock, "ENTRY_BUDGET", 27 * 16 ** 3)
    assert embed_codewords(hessian, FockConfig(cutoff=16, modes=3)).shape == (3, 4096)
    with pytest.raises(BudgetExceededError,
                       match="27 points at cutoff 17 would hold 132651 entries"):
        embed_codewords(hessian, FockConfig(cutoff=17, modes=3))


def test_vacuum_embedding():
    code = code_of(1, 0.0, [[[0.0]]])
    vec = embed_codewords(code, CFG1)[0]
    assert vec[0] == pytest.approx(1.0)
    assert np.max(np.abs(vec[1:])) == 0.0


def test_two_leg_constellation_has_even_support():
    # the uniform superposition over {+alpha, -alpha} only occupies even
    # photon numbers
    vec = codeword_vector(np.array([[2.0], [-2.0]]), CFG1)
    assert np.max(np.abs(vec[1::2])) < 1e-15
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_embedded_norm_matches_coherent_frame(four_legged):
    for c, norm_sq in zip(four_legged.codewords, four_legged.codeword_norms_sq):
        raw = codeword_vector(c, CFG1, normalized=False)
        assert np.linalg.norm(raw) ** 2 == pytest.approx(norm_sq, abs=1e-10)


def test_truncation_error_reported():
    code = qsc.build("cat", 100.0, S=1, K=2)
    with pytest.raises(TruncationError, match="tail"):
        embed_codewords(code, FockConfig(cutoff=16, modes=1))


def test_coherent_amplitudes_poisson():
    vec = coherent_amplitudes(1.5, 40)
    expected = np.array([math.exp(-0.5 * 1.5 ** 2) * 1.5 ** k
                         / math.sqrt(math.factorial(k)) for k in range(40)])
    assert np.allclose(vec, expected)


def test_identity_error_reproduces_gram(four_legged):
    psis = embed_codewords(four_legged, CFG1)
    gram = np.array([[np.vdot(a, b) for b in psis] for a in psis])
    oracle = kl_matrix_fock(four_legged, MonomialError((0,), (0,)), CFG1)
    assert np.allclose(oracle, gram, atol=1e-12)


def test_four_legged_loss_zero_in_fock(four_legged):
    m = kl_matrix_fock(four_legged, MonomialError((0,), (1,)), CFG1)
    assert np.max(np.abs(m)) < 1e-10


def test_random_code_number_operator_matches_exact():
    for alpha in (1.0, 2.0):
        code = random_three_point_code(alpha)
        e = MonomialError((1,), (1,))
        assert np.max(np.abs(kl_matrix(code, e) -
                             kl_matrix_fock(code, e, CFG1))) < 1e-8


def test_oracle_equivalence_degree_three(cat33):
    for combined in brute_multi_indices(2, 3):
        e = MonomialError(combined[:1], combined[1:])
        dev = np.max(np.abs(kl_matrix(cat33, e) - kl_matrix_fock(cat33, e, CFG1)))
        assert dev < 1e-8, e


def test_monomial_degree_cap():
    code = qsc.build("cat", 1.0, S=1, K=2)
    with pytest.raises(qsc.QscError, match="degree"):
        kl_matrix_fock(code, MonomialError((4,), (3,)), CFG1)


def test_annihilation_matrix():
    a = annihilation(4)
    assert a[0, 1] == 1.0
    assert a[2, 3] == pytest.approx(math.sqrt(3.0))
    n_op = a.T @ a
    assert np.allclose(np.diag(n_op), [0, 1, 2, 3])


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def test_loss_gamma_zero_is_identity(two_legged):
    assert loss_channel_fidelity(two_legged, 0.0) == pytest.approx(1.0, abs=1e-10)


def test_loss_parameter_validation(two_legged):
    with pytest.raises(ValueError):
        loss_channel_fidelity(two_legged, 1.0)
    single = qsc.build("cell24", 1.0, partition="one")
    with pytest.raises(ValueError):
        loss_channel_fidelity(single, 0.01)


def test_two_legged_infidelity_grows_linearly(two_legged):
    f1 = loss_channel_fidelity(two_legged, 1e-3)
    f2 = loss_channel_fidelity(two_legged, 2e-3)
    assert 0.0 < 1.0 - f1 < 1.0 - f2
    slope1 = (1.0 - f1) / 1e-3
    slope2 = (1.0 - f2) / 2e-3
    assert slope1 > 1.0                      # loss is undetected: O(gamma)
    assert slope2 == pytest.approx(slope1, rel=0.05)


def test_four_legged_suppresses_loss(two_legged, four_legged):
    gamma = 1e-3
    r2 = (1.0 - loss_channel_fidelity(two_legged, gamma)) / gamma
    r4 = (1.0 - loss_channel_fidelity(four_legged, gamma)) / gamma
    assert r4 * 10.0 < r2


def test_loss_fidelity_monotone_for_catalog_one_mode():
    for entry in qsc.list_catalog():
        if entry.modes != 1 or entry.num_codewords < 2:
            continue
        code = entry.build(4.0)
        f_small = loss_channel_fidelity(code, 0.01)
        f_large = loss_channel_fidelity(code, 0.05)
        assert -1e-9 <= f_large <= f_small <= 1.0 + 1e-9, entry.entry_id


def test_perf_regression_fixtures(two_legged, four_legged):
    import json
    import os
    path = os.path.join(os.path.dirname(__file__), "fixtures", "perf.json")
    locked = json.load(open(path))
    for name, code in (("two_legged_E4", two_legged), ("four_legged_E4", four_legged)):
        for gamma_text, value in locked["loss"][name].items():
            fresh = loss_channel_fidelity(code, float(gamma_text))
            assert fresh == pytest.approx(value, abs=1e-9), (name, gamma_text)
    assert dephasing_channel_fidelity(two_legged, 0.1, CFG1) == pytest.approx(
        locked["dephasing"]["two_legged_E4_sigma0.1"], abs=1e-9)
    assert dephasing_channel_fidelity(four_legged, 0.1, CFG1) == pytest.approx(
        locked["dephasing"]["four_legged_E4_sigma0.1"], abs=1e-9)


def test_css_dephasing_regression_fixture():
    import json
    import os
    path = os.path.join(os.path.dirname(__file__), "fixtures", "perf.json")
    locked = json.load(open(path))
    spec = qsc.ClassicalCodeSpec(2, 2, gen_x=[[1, 1]], gen_z=[])
    code = qsc.compile_css(spec, complex(math.sqrt(2.0)))
    cfg = FockConfig(cutoff=60, modes=2)
    f = dephasing_channel_fidelity(code, 0.1, cfg)
    assert f == pytest.approx(locked["dephasing"]["css_rep2_E4_sigma0.1"], abs=1e-9)


def test_dephasing_sigma_zero(two_legged):
    assert dephasing_channel_fidelity(two_legged, 0.0, CFG1) == pytest.approx(
        1.0, abs=1e-10)


@pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
def test_dephasing_rejects_sigma_that_is_not_finite_and_nonnegative(two_legged, sigma):
    with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
        dephasing_channel_fidelity(two_legged, sigma, CFG1)


def test_dephasing_quadrature_convergence(two_legged):
    f32 = quadrature_dephasing_fidelity(two_legged, 0.1, CFG1, nodes=32,
                                        check_convergence=False)
    f64 = quadrature_dephasing_fidelity(two_legged, 0.1, CFG1, nodes=64,
                                        check_convergence=False)
    assert abs(f64 - f32) < 1e-9
    # the checked variant runs both and returns the refined value
    assert quadrature_dephasing_fidelity(two_legged, 0.1, CFG1, nodes=32) == f64


def test_fidelities_within_unit_interval(four_legged):
    for gamma in (0.0, 0.01, 0.2):
        f = loss_channel_fidelity(four_legged, gamma)
        assert -1e-9 <= f <= 1.0 + 1e-9
    for sigma in (0.05, 0.3):
        f = dephasing_channel_fidelity(four_legged, sigma, CFG1)
        assert -1e-9 <= f <= 1.0 + 1e-9


def test_jump_operator_annihilates_embedded_codeword():
    # vanishing polynomial z^4 - alpha^4 on the four-legged cat, realized as
    # the operator a^4 - alpha^4 acting on the embedded codewords
    code = qsc.build("cat", 2.0, S=2, K=2)  # alpha^2 = 2
    ideal = qsc.vanishing_ideal(code, 4)
    assert len(ideal.degrees) == 1
    a = annihilation(CFG1.cutoff)
    op = np.zeros((CFG1.cutoff, CFG1.cutoff), dtype=complex)
    for d, coeff in zip(ideal.exponents.tolist(), ideal.coefficients[0]):
        op += coeff * np.linalg.matrix_power(a, d[0])
    for psi in embed_codewords(code, CFG1):
        assert np.linalg.norm(op @ psi) < 1e-9


# ---------------------------------------------------------------------------
# exact channels against the Fock oracles in tests/brute_force.py
# ---------------------------------------------------------------------------

# 30 photons per mode hold every amplitude with |z|^2 <= 4 to a tail mass far
# below TAIL_TOL (embedding raises TruncationError otherwise)
ORACLE_CUTOFF = 30
LOSS_LEVELS = (0.005, 0.01, 0.02)


@st.composite
def loss_codes(draw):
    """Random 1- and 2-mode codes on the sphere |z|^2 = E <= 4: 2-3 codewords
    of 1-3 points each, any two points at distance >= 1 so that the codeword
    Gram matrix stays well conditioned."""
    n = draw(st.sampled_from([1, 2]))
    E = draw(st.floats(1.0, 4.0))
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    coords = st.floats(-1.0, 1.0)
    raw = draw(st.lists(st.lists(coords, min_size=2 * n, max_size=2 * n),
                        min_size=sum(sizes), max_size=sum(sizes)))
    vecs = np.array([[complex(v[2 * i], v[2 * i + 1]) for i in range(n)] for v in raw])
    norms = np.linalg.norm(vecs, axis=1)
    assume(np.min(norms) > 0.1)
    pts = vecs * (math.sqrt(E) / norms)[:, None]
    dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    assume(np.min(dists + 10.0 * np.eye(len(pts))) >= 1.0)
    return QSCode(n, E, pts, sizes, [str(mu) for mu in range(len(sizes))])


# loss_codes rejects short points and close pairs by design; Hypothesis also
# feeds it the float literals of the scanned source files (tiny ones among
# them), so for some seeds 50 draws fail before 10 pass
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(loss_codes())
def test_exact_loss_matches_fock_oracle(code):
    assert loss_channel_fidelity(code, 0.0) == pytest.approx(1.0, abs=1e-12)
    fids = [loss_channel_fidelity(code, g) for g in LOSS_LEVELS]
    assert fids[0] > fids[1] > fids[2]
    cfg = FockConfig(cutoff=ORACLE_CUTOFF, modes=code.modes)
    assert abs(fids[1] - fock_loss_fidelity(code, LOSS_LEVELS[1], cfg)) <= 1e-10


def test_loss_on_three_modes_matches_one_mode(two_legged):
    # the points (z, 0, 0): the two idle modes stay in vacuum under loss
    padded = QSCode(3, two_legged.radius_sq, np.pad(two_legged.point_array, ((0, 0), (0, 2))),
                    two_legged.codeword_sizes, two_legged.labels)
    one_mode = loss_channel_fidelity(two_legged, 0.01)
    assert abs(loss_channel_fidelity(padded, 0.01) - one_mode) <= 1e-12
    assert abs(one_mode - fock_loss_fidelity(two_legged, 0.01, CFG1)) <= 1e-10


@pytest.mark.parametrize("S,K", [(1, 2), (2, 2), (3, 3)])
@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.2])
def test_exact_dephasing_matches_quadrature_oracle(S, K, sigma):
    code = qsc.build("cat", 4.0, S=S, K=K)
    oracle = quadrature_dephasing_fidelity(code, sigma, CFG1, nodes=64, check_convergence=False)
    assert abs(dephasing_channel_fidelity(code, sigma, CFG1) - oracle) <= 1e-10


def test_channels_reject_a_single_codeword():
    single = qsc.build("cell24", 1.0, partition="one")
    with pytest.raises(ValueError, match="at least two codewords"):
        loss_channel_fidelity(single, 0.01)
    with pytest.raises(ValueError, match="at least two codewords"):
        dephasing_channel_fidelity(single, 0.1, FockConfig(cutoff=20, modes=2))


def test_channels_refuse_more_codewords_than_the_budget_before_any_work(monkeypatch):
    # one Kraus operator per codeword is the least a Gram matrix can have:
    # K = 3001 codewords make 3001^2 entries, above 3000^2
    code = QSCode(1, 4.0, 2.0 * np.exp(2j * np.pi * np.arange(3001) / 3001)[:, None],
                  [1] * 3001, [str(mu) for mu in range(3001)])
    for channel, level in ((loss_channel_fidelity, 0.01), (dephasing_channel_fidelity, 0.1)):
        with pytest.raises(BudgetExceededError, match="Gram matrix of 3001 codewords would hold "
                                                      "9006001 entries, above the budget 9000000"):
            channel(code, level)
    assert not {"overlap", "codeword_norms_sq"} & set(vars(code))
    # at the budget the check passes: without loss the environment keeps one state
    monkeypatch.setattr(qsc.fock, "ENTRY_BUDGET", 4 ** 2)
    four, five = (qsc.build("cat", 4.0, S=1, K=K) for K in (4, 5))
    assert loss_channel_fidelity(four, 0.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(BudgetExceededError,
                       match="Gram matrix of 5 codewords would hold 25 entries"):
        loss_channel_fidelity(five, 0.0)


# cell600(partition=five) at E = 1 is refused as ill-conditioned (below)
LOSS_SYMMETRY_CASES = [(entry, energy) for entry in qsc.list_catalog() for energy in (1.0, 4.0)
                       if entry.num_codewords >= 2
                       and (entry.entry_id, energy) != ("cell600(partition=five)", 1.0)]


@pytest.mark.parametrize("entry, energy", LOSS_SYMMETRY_CASES,
                         ids=[f"{e.entry_id} E={E:g}" for e, E in LOSS_SYMMETRY_CASES])
def test_loss_is_invariant_under_a_global_phase_and_the_point_order(entry, energy):
    # loss commutes with a global phase, and the order of a codeword's points
    # leaves the codeword as it is; F is computed in whatever Kraus basis the
    # environment eigenvectors of each variant give
    code = entry.build(energy)
    rng = np.random.default_rng(2302)
    order = np.concatenate([start + rng.permutation(size) for start, size in
                            zip(code.codeword_starts.tolist(), code.codeword_sizes.tolist())])
    variants = [QSCode(code.modes, code.radius_sq, z, code.codeword_sizes, code.labels)
                for z in (code.point_array * cmath.exp(0.7j), code.point_array[order])]
    for gamma in (0.01, 0.1):
        f = loss_channel_fidelity(code, gamma)
        for variant in variants:
            assert abs(loss_channel_fidelity(variant, gamma) - f) <= 1e-12


def test_dephasing_gram_budget():
    # q = 3, length 2, no generators: nine single-point codewords at alpha = 2.
    # At sigma = 0.5 each mode keeps 26 Kraus operators after compression, so
    # the second mode's pair tensor would hold 9^2 x (26 x 26)^2 entries (590 MB)
    code = qsc.compile_css(qsc.ClassicalCodeSpec(3, 2, gen_x=[], gen_z=[]), 2.0)
    assert code.K == 9
    with pytest.raises(BudgetExceededError,
                       match="pair tensor of 676 Kraus operators x 9 codewords at mode 1 "
                             "would hold 37015056 entries"):
        dephasing_channel_fidelity(code, 0.5, FockConfig(cutoff=60, modes=2))


def test_dephasing_refuses_a_pair_tensor_past_the_budget_before_building_it(monkeypatch):
    # q = 2, length 3, gen_x = 111: K = 4 codewords of two points at alpha = 2,
    # derived cutoff 30.  At sigma = 0.2 the second mode's pair tensor would
    # hold 4^2 x 30 x 225^2 entries (389 MB): no array that large is built
    code = qsc.compile_css(qsc.ClassicalCodeSpec(2, 3, gen_x=[[1, 1, 1]], gen_z=[]), 2.0)
    sizes, tensordot = [], np.tensordot

    def recorded(*args, **kwargs):
        result = tensordot(*args, **kwargs)
        sizes.append(result.size)
        return result
    monkeypatch.setattr(np, "tensordot", recorded)
    assert dephasing_channel_fidelity(code, 0.1) == pytest.approx(0.999997052975, abs=1e-12)
    with pytest.raises(BudgetExceededError,
                       match="pair tensor of 225 Kraus operators x 4 codewords at mode 1 "
                             "would hold 24300000 entries"):
        dephasing_channel_fidelity(code, 0.2)
    assert max(sizes) <= qsc.fock.ENTRY_BUDGET


def test_dephasing_beyond_old_budget(repetition_css):
    # without compression sigma = 0.5 keeps all 60 Kraus operators per mode
    # (Gram dimension 7,200); compressed, 26 per mode act on the code
    cfg = FockConfig(cutoff=60, modes=2)
    f3, f5 = (dephasing_channel_fidelity(repetition_css, s, cfg) for s in (0.3, 0.5))
    assert 0.0 < f5 < f3 < 1.0


def test_two_mode_dephasing_matches_quadrature_oracle(repetition_css):
    cfg = FockConfig(cutoff=ORACLE_CUTOFF, modes=2)
    oracle = quadrature_dephasing_fidelity(repetition_css, 0.2, cfg, nodes=16,
                                           check_convergence=False)
    assert abs(dephasing_channel_fidelity(repetition_css, 0.2, cfg) - oracle) <= 1e-10


@pytest.mark.parametrize("energy", [700.0, 1000.0, 5000.0])
@pytest.mark.parametrize("name, params", [("cat", {"S": 1, "K": 2}),
                                          ("cell24", {"partition": "three"}),
                                          ("hypercube", {"n": 2})],
                         ids=["cat", "cell24", "hypercube"])
def test_high_energy_loss_limits(name, params, energy):
    # no loss recovers the code exactly; at gamma = 0.5 the environment
    # tells every point apart, which dephases the code completely: F = 1/K
    code = qsc.build(name, energy, **params)
    assert abs(loss_channel_fidelity(code, 0.0) - 1.0) <= 1e-14
    assert abs(loss_channel_fidelity(code, 0.5) - 1.0 / code.K) <= 1e-12


@pytest.mark.parametrize("sigma", [0.1, 0.3])
def test_dephasing_on_three_modes_matches_one_mode(sigma):
    # points (z, 0, 0): the two empty modes hold the vacuum, which
    # dephasing leaves alone
    cat = qsc.build("cat", 1.0, S=1, K=2)
    padded = QSCode(3, cat.radius_sq, np.pad(cat.point_array, ((0, 0), (0, 2))),
                    cat.codeword_sizes, cat.labels)
    one = dephasing_channel_fidelity(cat, sigma, FockConfig(cutoff=16, modes=1))
    three = dephasing_channel_fidelity(padded, sigma, FockConfig(cutoff=16, modes=3))
    assert abs(three - one) <= 1e-13


# ---------------------------------------------------------------------------
# the per-point embedding oracle, the derived cutoff and the joint compression
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def _poisson_tail(a, c):
    """sum_{n >= c} e^-a a^n / n!, term by term far past the mode."""
    term, terms = math.exp(-a), []
    for n in range(400):
        if n >= c:
            terms.append(term)
        term *= a / (n + 1)
    return math.fsum(terms)


def _rep2(alpha):
    return qsc.compile_css(qsc.ClassicalCodeSpec(2, 2, gen_x=[[1, 1]], gen_z=[]), complex(alpha))


def _catalog_codes(energies, max_modes):
    for entry in qsc.list_catalog():
        if entry.modes <= max_modes:
            for E in energies:
                yield f"{entry.entry_id}@E={E:g}", entry.build(E)


def test_embedding_matches_per_point_oracle():
    codes = list(_catalog_codes([1.0], 3)) + list(_catalog_codes([4.0], 2))
    for name, code in codes:
        cfg = FockConfig.for_code(code)
        oracle = np.array([codeword_vector(c, cfg) for c in code.codewords])
        assert np.max(np.abs(embed_codewords(code, cfg) - oracle)) <= 1e-14, name


def test_truncation_error_names_the_worst_point():
    # only the second point's first mode is past the cutoff
    code = code_of(2, 1.0, [[[0.5, 0.5]], [[4.0, 0.1]]])
    cfg = FockConfig(cutoff=20, modes=2)
    with pytest.raises(TruncationError, match="beyond cutoff 20 for amplitude 4"):
        embed_codewords(code, cfg)
    with pytest.raises(TruncationError):
        codeword_vector(code.codewords[1], cfg)


@pytest.mark.parametrize("code, a, cutoff", [
    (qsc.build("cat", 1.0, S=1, K=2), 1.0, 18),
    (qsc.build("cat", 4.0, S=2, K=2), 4.0, 30),
    (qsc.build("cat", 16.0, S=1, K=2), 16.0, 59),
    (_rep2(math.sqrt(2.0)), 2.0, 23),
    (qsc.build("hessian", 1.0), 0.5, 15),
], ids=["cat E=1", "cat E=4", "cat E=16", "rep2 E=4", "hessian E=1"])
def test_derived_cutoff_is_the_smallest_with_a_tail_below_epsilon(code, a, cutoff):
    assert float(np.max(np.abs(code.point_array) ** 2)) == pytest.approx(a, rel=1e-12)
    assert _poisson_tail(a, cutoff) <= EPS < _poisson_tail(a, cutoff - 1)
    assert FockConfig.for_code(code) == FockConfig(cutoff=cutoff, modes=code.modes)


def test_derived_cutoff_has_no_cap():
    # the tail alone sets the cutoff, on any number of modes: 23 for the
    # hessian at E = 4 (a = 2) on three, 96 for alpha = 6 on two
    for code, a, cutoff in ((qsc.build("hessian", 4.0), 2.0, 23), (_rep2(6.0), 36.0, 96)):
        assert FockConfig.for_code(code) == FockConfig(cutoff=cutoff, modes=code.modes)
        assert _poisson_tail(a, cutoff) <= EPS < _poisson_tail(a, cutoff - 1)


def _no_work(*args, **kwargs):
    raise AssertionError("work done before the budget check")


def test_a_multiplier_past_the_budget_is_refused_before_any_series(monkeypatch):
    # the cutoff exceeds |z|^2 = a: at E = 1e10 its Poisson series would take
    # 2e10 terms (149 GiB) and its multiplier 1e20 entries, and at E = 3000
    # the least cutoff, 3001, already leaves the 3000 x 3000 budget
    for energy, least in ((1e10, 10000000001), (3000.0, 3001)):
        code = qsc.build("cat", energy, S=1, K=2)
        message = f"multiplier at cutoff {least} .* above the budget 9000000"
        with monkeypatch.context() as patched:
            patched.setattr(qsc.fock.np, "arange", _no_work)
            patched.setattr(qsc.fock, "_dephasing_kraus", _no_work)
            with pytest.raises(BudgetExceededError, match=message):
                FockConfig.for_code(code)
            with pytest.raises(BudgetExceededError, match=message):
                dephasing_channel_fidelity(code, 0.1)
    # just inside, the series is summed (2 x 2999 + 63 terms) and the derived
    # cutoff's multiplier is refused before the embedding or the multiplier
    code = qsc.build("cat", 2999.0, S=1, K=2)
    cutoff = FockConfig.for_code(code).cutoff
    assert 3000 < cutoff < 2999 + 9 * math.sqrt(2999)
    monkeypatch.setattr(qsc.fock, "embed_codewords", _no_work)
    monkeypatch.setattr(qsc.fock, "_dephasing_kraus", _no_work)
    with pytest.raises(BudgetExceededError, match=f"multiplier at cutoff {cutoff} would hold"):
        dephasing_channel_fidelity(code, 0.1)


def test_truncated_embedding_builds_no_multiplier(monkeypatch):
    # 16 photons leave the E = 100 cat a tail far above TAIL_TOL: the
    # embedding refuses it before the multiplier is built or decomposed
    monkeypatch.setattr(qsc.fock, "_dephasing_kraus", _no_work)
    with pytest.raises(TruncationError, match="beyond cutoff 16"):
        dephasing_channel_fidelity(qsc.build("cat", 100.0, S=1, K=2), 0.1, FockConfig(16, 1))


def _convergence_codes():
    yield "two_legged_E4", qsc.build("cat", 4.0, S=1, K=2)
    yield "four_legged_E4", qsc.build("cat", 4.0, S=2, K=2)
    yield "css_rep2_E4", _rep2(math.sqrt(2.0))
    for name, code in _catalog_codes([1.0, 4.0], 2):
        # one codeword has no channel fidelity; the Gram matrix of
        # cell600(partition=five) at E = 1 is refused (condition 1.9e12)
        if code.K > 1 and name != "cell600(partition=five)@E=1":
            yield name, code


@pytest.mark.parametrize("sigma", [0.1, 0.3])
def test_derived_cutoff_converges(sigma):
    for name, code in _convergence_codes():
        c = FockConfig.for_code(code).cutoff
        f = dephasing_channel_fidelity(code, sigma)
        assert f == dephasing_channel_fidelity(code, sigma, FockConfig(c, code.modes))
        for other in (c + 4, 60):
            g = dephasing_channel_fidelity(code, sigma, FockConfig(other, code.modes))
            assert abs(f - g) <= 1e-10, (name, c, other)


@pytest.mark.parametrize("sigma, fidelity", [(0.1, 0.994350682313), (0.2, 0.975304957384)])
def test_derived_cutoff_converges_on_three_modes(sigma, fidelity):
    # the hessian at E = 4: cutoff 23 against 27 (3.3e-14 and 6.4e-14 apart);
    # at sigma = 0.3 its pair tensor would leave the budget
    code = qsc.build("hessian", 4.0)
    f = dephasing_channel_fidelity(code, sigma)
    assert abs(f - dephasing_channel_fidelity(code, sigma, FockConfig(27, 3))) <= 1e-12
    assert f == pytest.approx(fidelity, abs=1e-12)


def test_three_mode_dephasing_matches_quadrature_oracle():
    # q = 2, length 3: C_X the repetition code {000, 111}, K = 2 codewords of
    # two points each at alpha = 0.5 per mode; the oracle averages 8^3 phase
    # triples on the 10^3-dimensional Fock space
    code = qsc.compile_css(qsc.ClassicalCodeSpec(2, 3, gen_x=[[1, 1, 1]], gen_z=[[1, 1, 0]]), 0.5)
    assert (code.K, len(code.point_array)) == (2, 4)
    cfg = FockConfig(cutoff=10, modes=3)
    oracle = quadrature_dephasing_fidelity(code, 0.2, cfg, nodes=8, check_convergence=False)
    assert abs(dephasing_channel_fidelity(code, 0.2, cfg) - oracle) <= 1e-10


@pytest.mark.parametrize("spec", [qsc.ClassicalCodeSpec(2, 2, gen_x=[[1, 1]], gen_z=[]),
                                  qsc.ClassicalCodeSpec(2, 3, gen_x=[[1, 1, 1]], gen_z=[[1, 1, 0]])],
                         ids=["2 modes", "3 modes"])
def test_real_and_complex_arithmetic_agree(spec):
    # a code on the real axis runs in real arithmetic; a global phase, which
    # dephasing does not see, sends the same code through complex arithmetic.
    # At sigma = 0.3 the two read 2.5e-13 to 2.8e-13 apart, the size of the
    # rounding spread the square root of the Gram matrix gives small codes
    real, rotated = (qsc.compile_css(spec, 0.8 * phase) for phase in (1.0, cmath.exp(0.3j)))
    for sigma in (0.1, 0.3):
        assert abs(dephasing_channel_fidelity(real, sigma) - dephasing_channel_fidelity(rotated, sigma)) <= 1e-12


def test_channels_refuse_an_ill_conditioned_codeword_gram():
    # cell600(partition=five) at E = 1: Gram eigenvalues from 2.7e-12 to 5.0
    code = qsc.build("cell600", 1.0, partition="five")
    with pytest.raises(qsc.QscError, match=r"condition number 1\.\d+e\+12, above 6\.7"):
        loss_channel_fidelity(code, 0.01)
    with pytest.raises(qsc.QscError, match=r"condition number \d\.\d+e\+12, above 6\.7"):
        dephasing_channel_fidelity(code, 0.1)
    # at E = 4 the same entry's condition number is 7.8e3
    assert 0.0 < loss_channel_fidelity(qsc.build("cell600", 4.0, partition="five"), 0.01) < 1.0
