"""Channel fidelities with transpose-channel recovery, and a truncated-Fock
embedding of codes.

Both channels are evaluated on the maximally mixed code state followed by the
transpose-channel recovery (Barnum-Knill, quant-ph/0004088; Ng-Mandayam,
arXiv:0909.0931).  Each reduces to the Gram matrix of the corrupted
orthonormal codewords E_j |e_mu>, which one function turns into the fidelity.

* Loss is exact, in the coherent frame of the code, for any number of modes
  and with no cutoff.  Pure loss maps |z> to |sqrt(eta) z> (x) |sqrt(gamma) z>
  (eta = 1 - gamma, the second factor in the environment), so the kept
  eigenpairs of the N x N environment overlap matrix give an orthonormal
  Kraus basis of at most N operators, and the Gram matrix, built in that
  basis with no further rotation, needs only the overlaps of the damped
  points.  One Gram eigendecomposition gives the fidelity.
* Dephasing is the Schur multiplier rho_mn -> exp(-sigma^2 (m-n)^2/2) rho_mn
  on a Fock space truncated at a cutoff per mode, by default the one the code
  derives (``FockConfig.for_code``).  The multiplier's eigenpairs give its
  exact Kraus operators, diagonal in the number basis, which are contracted
  with the code one mode at a time and compressed after each, since their
  joint index would otherwise grow as a power of the mode count.  No quadrature.

Each array a channel builds is checked against the package's one budget of
entries before it is built, so no cutoff or mode count is capped as such.
``embed_codewords`` writes every codeword as a number-basis vector on any
number of modes; the test suite's Fock oracles start from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import QSCode, QscError, _check_entries

TAIL_TOL = 1e-12
COMPLETENESS_TOL = 1e-8
# Eigenvalues below this share of the largest are dropped.  The matrices
# decomposed (environment overlaps of loss, the dephasing multiplier, Kraus
# weights and the corrupted-codeword Gram matrix) are positive semidefinite,
# and below it an eigenvalue is within rounding of the largest.
EIGEN_FLOOR = 1e-14
EPS = np.finfo(float).eps
# Past this codeword Gram condition number G^(-1/2) keeps under half its digits.
GRAM_CONDITION_LIMIT = 1.0 / math.sqrt(EPS)


class TruncationError(QscError):
    """Coherent-state tail mass beyond the cutoff is too large."""


class KrausCompletenessError(QscError):
    """The truncated Kraus set is not close enough to trace preserving."""


@dataclass(frozen=True)
class FockConfig:
    """Per-mode cutoff and mode count for the truncated simulation."""

    cutoff: int
    modes: int

    def __post_init__(self):
        if self.cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        if self.modes < 1:
            raise ValueError("modes must be at least 1")

    @property
    def dim(self) -> int:
        return self.cutoff ** self.modes

    @classmethod
    def for_code(cls, code: QSCode) -> FockConfig:
        """The smallest c at which the Poisson tail sum_{n >= c} e^-a a^n / n!
        of the largest |z_m|^2 = a is at most machine epsilon.  The tail at any
        c <= a is about 1/2 or more, so c > a: a code whose c x c dephasing
        multiplier cannot fit the budget is refused before any series is summed."""
        a = max(float(np.max(np.abs(code.point_array) ** 2)), np.finfo(float).tiny)
        least = math.floor(a) + 1
        _check_entries(least ** 2, f"the dephasing multiplier at cutoff {least} (|z|^2 = {a:.4g})")
        # past n = 2a the terms at least halve: 64 more leave out < 2^-63 of them
        n = np.arange(1, 2 * math.ceil(a) + 64)
        terms = np.exp(-a + np.concatenate(([0.0], np.cumsum(np.log(a / n)))))
        c = int(np.argmax(np.cumsum(terms[::-1])[::-1] <= EPS))
        return cls(cutoff=max(2, c), modes=code.modes)


def embed_codewords(code: QSCode, cfg: FockConfig) -> np.ndarray:
    """Normalized number-basis vectors of the codewords, (K, cutoff^modes);
    ``TruncationError`` names the largest tail mass above TAIL_TOL, and a point
    whose e^(-|z_k|^2/2) underflows is refused: its tail mass would be wrong."""
    if code.modes != cfg.modes:
        raise QscError(f"code has {code.modes} modes, config expects {cfg.modes}")
    Z = code.point_array
    _check_entries(len(Z) * cfg.dim, f"the embedding of {len(Z)} points at cutoff {cfg.cutoff}")
    top = float(np.max(np.abs(Z) ** 2))
    if top > -2.0 * math.log(np.finfo(float).tiny):   # 1416.8: e^(-top/2) is subnormal
        raise QscError(f"|z_k|^2 = {top:.6g} underflows the Fock embedding's e^(-|z_k|^2/2)")
    steps = Z[:, :, None] / np.sqrt(np.arange(1, cfg.cutoff))
    # e^{-|z|^2/2} z^k / sqrt(k!) of every point and mode, (N, n, cutoff)
    amps = np.cumprod(np.dstack((np.exp(-0.5 * np.abs(Z) ** 2), steps)), axis=2)
    tails = 1.0 - np.sum(np.abs(amps) ** 2, axis=2)
    worst = np.unravel_index(np.argmax(tails), tails.shape)
    if tails[worst] > TAIL_TOL:
        raise TruncationError(
            f"coherent tail mass {tails[worst]:.3e} beyond cutoff {cfg.cutoff} "
            f"for amplitude {Z[worst]:.4g}")
    vecs = amps[:, 0]
    for m in range(1, cfg.modes):
        vecs = (vecs[:, :, None] * amps[:, m, None, :]).reshape(len(Z), -1)
    sums = code._block_sums(vecs, 0)
    return sums / np.linalg.norm(sums, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Channel fidelity with transpose-channel recovery
# ---------------------------------------------------------------------------

def _check_codeword_count(code: QSCode) -> None:
    """At least two codewords, whose Gram matrix fits: checked before any frame is built."""
    if code.K < 2:
        raise ValueError("channel fidelity needs at least two codewords")
    _check_entries(code.K ** 2, f"the Gram matrix of {code.K} codewords")


def _kept_eigenpairs(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a Hermitian positive semidefinite matrix above the floor."""
    vals, vecs = np.linalg.eigh(M)
    keep = vals > max(float(vals.max()), 0.0) * EIGEN_FLOOR
    return vals[keep], vecs[:, keep]


def _inverse_sqrt(gram: np.ndarray) -> np.ndarray:
    """G^(-1/2) of a codeword Gram matrix of condition at most GRAM_CONDITION_LIMIT:
    the Loewdin (symmetric) orthogonalisation, e_mu = sum_nu G^(-1/2)[nu, mu] c_nu."""
    vals, vecs = np.linalg.eigh(gram)
    condition = vals[-1] / vals[0] if vals[0] > 0 else math.inf
    if condition > GRAM_CONDITION_LIMIT:
        raise QscError(f"codewords are numerically linearly dependent: their Gram matrix "
                       f"has condition number {condition:.3g}, above {GRAM_CONDITION_LIMIT:.3g}")
    return (vecs / np.sqrt(vals)) @ vecs.conj().T


def _transpose_recovery_fidelity(gram: np.ndarray, J: int, K: int) -> float:
    """Entanglement fidelity of channel + transpose-channel recovery from
    ``gram[(j, mu), (k, nu)]`` = <E_j e_mu|E_k e_nu> for J Kraus operators and
    K orthonormal codewords, j major.  With H the (pseudo) square root of the
    Gram matrix, F = (1/K^2) sum_{j,k} |sum_mu H[(j,mu),(k,mu)]|^2; the sums
    over mu are taken from the eigenvectors, without forming H.  F does not
    depend on the Kraus representation (Nielsen-Chuang, Thm 8.2), so any
    basis of the operators will do.  Only dephasing rotates its joint index
    (to the eigenvectors of the weights on the code, dropping those below the
    floor), because only that index outgrows the code; loss passes its at
    most N environment eigenvectors as they are.
    """
    vals, vecs = _kept_eigenpairs(gram)
    Y = vecs.reshape(J, K, -1)
    T = np.tensordot(Y * np.sqrt(vals), Y.conj(), axes=([1, 2], [1, 2]))
    return float(np.sum(np.abs(T) ** 2)) / K ** 2


def loss_channel_fidelity(code: QSCode, gamma: float) -> float:
    """Entanglement fidelity of pure loss followed by transpose recovery,
    evaluated on the maximally mixed code state; exact, for any mode count.

    With A the K x N Loewdin coefficients of the codewords on the points
    (e_mu = sum_i A[mu, i] |z_i>), (lambda_a, V[:, a]) the kept eigenpairs of
    S = <sqrt(gamma) z|sqrt(gamma) w> and P = <sqrt(eta) z|sqrt(eta) w>, the
    Kraus operator of environment state a sends e_mu to sum_i X[(a, mu), i]
    |sqrt(eta) z_i> with X[(a, mu), i] = sqrt(lambda_a) conj(V[i, a]) A[mu, i],
    so the Gram matrix is conj(X) P X^T, already (a, mu)-major: it goes to the
    fidelity as it is, one eigendecomposition, with no rotation of the Kraus
    index.  A code whose Gram matrix cannot fit the budget even with one Kraus
    operator is refused before its overlaps are built.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    _check_codeword_count(code)
    norms = code.codeword_norms_sq
    index = code.codeword_index
    inv_sqrt = _inverse_sqrt(code.codeword_sums(code.overlap) / np.sqrt(np.outer(norms, norms)))
    A = inv_sqrt.T[:, index] / np.sqrt(norms[index])
    lam, V = _kept_eigenpairs(code.scaled_overlap(gamma))
    J, K = len(lam), code.K
    _check_entries((J * K) ** 2, f"the Gram matrix of {J} Kraus operators x {K} codewords")
    X = (np.sqrt(lam)[:, None, None] * V.T.conj()[:, None, :] * A[None, :, :]).reshape(J * K, -1)
    return _transpose_recovery_fidelity(X.conj() @ code.scaled_overlap(1.0 - gamma) @ X.T, J, K)


def _dephasing_kraus(sigma: float, cutoff: int) -> np.ndarray:
    """Diagonals of the Kraus operators of Gaussian dephasing on one mode,
    one per row: sqrt(d_a) U[:, a] for the kept eigenpairs of the multiplier
    exp(-sigma^2 (m-n)^2/2), so that sum_a D_a rho D_a^dag is the multiplier
    applied to rho."""
    m = np.arange(cutoff)
    sigma = min(sigma, 40.0)   # exp(-800) is 0: complete dephasing, and no overflow past it
    d, U = _kept_eigenpairs(np.exp(-0.5 * sigma ** 2 * (m[:, None] - m[None, :]) ** 2))
    return (U * np.sqrt(d)).T


def dephasing_channel_fidelity(code: QSCode, sigma: float,
                               cfg: FockConfig | None = None) -> float:
    """Entanglement fidelity of Gaussian dephasing + transpose recovery on the
    truncated Fock space of ``cfg`` (by default ``FockConfig.for_code``), with
    the exact Kraus operators of the dephasing multiplier at that cutoff.

    Modes are contracted one at a time.  Each mode's operators are cut to the
    eigenvectors of their weight on its marginal of the code's number
    distribution p = sum_mu |e_mu|^2 above the floor, and after the mode so is
    the joint index, by p: what vanishes on the code vanishes in every product
    with the other modes (the 2-mode repetition cat code at E = 4, sigma = 0.1,
    cutoff 23 keeps 9 of 12 per mode and 42 of 81 jointly)."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    _check_codeword_count(code)
    cfg = cfg or FockConfig.for_code(code)
    K, c, n = code.K, cfg.cutoff, cfg.modes
    _check_entries(c * c, f"the dephasing multiplier at cutoff {c}")
    _check_entries(K * K * cfg.dim, f"the pair tensor of {K} codewords at cutoff {c} on {n} modes")
    # the embedding refuses a truncated code before the multiplier is decomposed
    psis = embed_codewords(code, cfg)
    kraus = _dephasing_kraus(sigma, c)
    # the joint completeness is a Kronecker power: its extremes are one mode's, powered
    s = np.sum(kraus ** 2, axis=0)
    deviation = max(abs(s.max() ** n - 1.0), abs(s.min() ** n - 1.0))
    if deviation > COMPLETENESS_TOL:
        raise KrausCompletenessError(f"dephasing Kraus completeness deviates by {deviation:.3e}")
    # points within rounding of the real axis (as alpha e^{i pi}) have real states
    if np.all(np.abs(code.point_array.imag) <= 4 * EPS * np.abs(code.point_array)):
        psis = psis.real
    ortho = _inverse_sqrt(psis.conj() @ psis.T).T @ psis
    probs = np.sum(np.abs(ortho) ** 2, axis=0).reshape((c,) * n)
    # T[mu, nu, x, A, B] = conj(e_mu(x)) e_nu(x) D_A D_B over the modes done,
    # x the number states of the rest: the Gram matrix once all are done.
    T = (ortho.conj()[:, None, :] * ortho[None, :, :]).reshape(K, K, -1, 1, 1)
    for m in range(n):
        w = np.sum(probs, axis=tuple(i for i in range(n) if i != m))
        k = _kept_eigenpairs((kraus * w) @ kraus.T)[1].T @ kraus
        J = T.shape[-1] * len(k)
        # the mode's largest array, and no smaller than its compression or the Gram matrix
        _check_entries(K * K * T.shape[2] // c * J * J,
                       f"the pair tensor of {J} Kraus operators x {K} codewords at mode {m}")
        T = np.tensordot(T.reshape(K, K, c, -1, *T.shape[-2:]), k[:, None] * k[None], axes=(2, 2))
        T = T.transpose(0, 1, 2, 3, 5, 4, 6).reshape(K, K, -1, J, J)
        if m and len(k) > 1:   # mode 0 is already cut by its marginal; one operator adds none
            U = _kept_eigenpairs(np.einsum("mmxjk->jk", T).real)[1]
            T = U.T @ T @ U
    J = T.shape[-1]
    return _transpose_recovery_fidelity(T[:, :, 0].transpose(2, 0, 3, 1).reshape(J * K, -1), J, K)
