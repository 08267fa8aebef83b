"""Channel fidelities with transpose-channel recovery, and a truncated-Fock
embedding of codes.

Both channels are evaluated on the maximally mixed code state followed by the
transpose-channel recovery (Barnum-Knill, quant-ph/0004088; Ng-Mandayam,
arXiv:0909.0931).  Each reduces to the Gram matrix of the corrupted
orthonormal codewords E_j |e_mu>, which one function turns into the fidelity.

* Loss is exact, in the coherent frame of the code, for any number of modes
  and with no cutoff.  Pure loss maps |z> to |sqrt(eta) z> (x) |sqrt(gamma) z>
  (eta = 1 - gamma, the second factor in the environment), so the eigenpairs
  of the N x N environment overlap matrix give an orthonormal Kraus basis, and
  the Gram matrix needs only the overlaps of the damped points.
* Dephasing is the Schur multiplier rho_mn -> exp(-sigma^2 (m-n)^2/2) rho_mn
  on a Fock space truncated at a cutoff per mode.  The eigenpairs of that
  multiplier give its exact Kraus operators, diagonal in the number basis;
  each mode's set is compressed to the directions that act on the code's
  marginal number distribution before the Kronecker products across modes
  are formed.  No quadrature is involved.

The embedding (``embed_codewords``) writes each codeword as an explicit
number-basis vector, the sum of its points' coherent states, on any number of
modes whose joint dimension cutoff^modes fits ``DIM_BUDGET``.  The test
suite's Fock oracles, KL matrices by sandwiching truncated ladder operators
among them, start from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .constellation import Constellation, QSCode, QscError

# Largest joint Fock dimension cutoff^modes of the truncated simulation, the
# length of each embedded codeword: cutoff 64 on 2 modes, 16 on 3, 8 on 4.
DIM_BUDGET = 4096
TAIL_TOL = 1e-12
COMPLETENESS_TOL = 1e-8
# Eigenvalues below this share of the largest are dropped.  The matrices
# decomposed (environment overlaps of loss, the dephasing multiplier, Kraus
# weights and the corrupted-codeword Gram matrix) are positive semidefinite,
# and below it an eigenvalue is within rounding of the largest.
EIGEN_FLOOR = 1e-14
# Largest corrupted-codeword Gram dimension J*K (J Kraus operators, K
# codewords).  The dephasing Gram matrix is held twice while it is built,
# 2 x 16 x 3000^2 bytes = 288 MB at the budget.  At cutoff 60 and sigma = 0.5
# the 2-mode repetition cat code at alpha = 2 keeps 26 compressed Kraus
# operators per mode (1,352); nine codewords at alpha = 2 need 6,084.
GRAM_DIM_BUDGET = 3000


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
        if self.cutoff ** self.modes > DIM_BUDGET:
            raise QscError(
                f"Hilbert dimension cutoff^modes = {self.cutoff}^{self.modes} = "
                f"{self.cutoff ** self.modes} exceeds the budget {DIM_BUDGET}")

    @property
    def dim(self) -> int:
        return self.cutoff ** self.modes


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Number-basis amplitudes e^{-|a|^2/2} a^k / sqrt(k!) up to the cutoff."""
    out = np.zeros(cutoff, dtype=np.complex128)
    out[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for k in range(1, cutoff):
        out[k] = out[k - 1] * alpha / math.sqrt(k)
    return out


def _point_vector(amplitudes: np.ndarray, cfg: FockConfig) -> np.ndarray:
    factors = []
    for alpha in amplitudes:
        vec = coherent_amplitudes(alpha, cfg.cutoff)
        tail = max(0.0, 1.0 - float(np.sum(np.abs(vec) ** 2)))
        if tail > TAIL_TOL:
            raise TruncationError(
                f"coherent tail mass {tail:.3e} beyond cutoff {cfg.cutoff} "
                f"for amplitude {alpha:.4g}")
        factors.append(vec)
    return reduce(np.kron, factors)


def codeword_vector(c: Constellation, cfg: FockConfig, normalized: bool = True) -> np.ndarray:
    """Embed sum_z |z> for one constellation; optionally unit-normalize."""
    vec = np.zeros(cfg.dim, dtype=np.complex128)
    for amplitudes in c.as_array():
        vec += _point_vector(amplitudes, cfg)
    if normalized:
        vec = vec / np.linalg.norm(vec)
    return vec


def embed_codewords(code: QSCode, cfg: FockConfig) -> list[np.ndarray]:
    """Normalized number-basis vectors for every codeword of the code."""
    if code.modes != cfg.modes:
        raise QscError(f"code has {code.modes} modes, config expects {cfg.modes}")
    return [codeword_vector(c, cfg) for c in code.codewords]


# ---------------------------------------------------------------------------
# Channel fidelity with transpose-channel recovery
# ---------------------------------------------------------------------------

def _require_two_codewords(code: QSCode) -> None:
    if code.K < 2:
        raise ValueError("channel fidelity needs at least two codewords")


def _check_gram_dim(J: int, K: int) -> None:
    if J * K > GRAM_DIM_BUDGET:
        raise QscError(
            f"the corrupted-codeword Gram matrix would have dimension {J * K} "
            f"({J} Kraus operators x {K} codewords), above the budget {GRAM_DIM_BUDGET}")


def _kept_eigenpairs(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a Hermitian positive semidefinite matrix above the floor."""
    vals, vecs = np.linalg.eigh(M)
    keep = vals > max(float(vals.max()), 0.0) * EIGEN_FLOOR
    return vals[keep], vecs[:, keep]


def _inverse_sqrt(gram: np.ndarray) -> np.ndarray:
    """G^(-1/2) of a codeword Gram matrix: the coefficients of the Loewdin
    (symmetric) orthogonalisation, e_mu = sum_nu G^(-1/2)[nu, mu] c_nu."""
    vals, vecs = np.linalg.eigh(gram)
    if np.min(vals) <= 1e-12:
        raise QscError("codewords are numerically linearly dependent")
    return (vecs / np.sqrt(vals)) @ vecs.conj().T


def _transpose_recovery_fidelity(gram: np.ndarray, J: int, K: int) -> float:
    """Entanglement fidelity of channel + transpose-channel recovery.

    ``gram[(j, mu), (k, nu)]`` = <E_j e_mu|E_k e_nu> for J Kraus operators and
    K orthonormal codewords, j major.  With H the (pseudo) square root of the
    Gram matrix, F = (1/K^2) sum_{j,k} |sum_mu H[(j,mu),(k,mu)]|^2; the sums
    over mu are taken from the eigenvectors, without forming H.

    F does not depend on the Kraus representation, so the Kraus operators are
    first rotated to the eigenvectors of their weights on the code,
    Q[j, k] = sum_mu gram[(j, mu), (k, mu)], and those of weight below the
    floor (operators that vanish on the code) are dropped: the Gram matrix
    that is decomposed shrinks from J*K to (rank Q)*K, 162 to 84 for the
    2-mode repetition cat code at E = 4 and sigma = 0.1.
    """
    G = gram.reshape(J, K, J, K)
    weights, U = _kept_eigenpairs(np.einsum("jmkm->jk", G))
    G = np.tensordot(np.tensordot(U.conj(), G, axes=([0], [0])), U, axes=([2], [0]))
    J = len(weights)
    vals, vecs = _kept_eigenpairs(G.transpose(0, 1, 3, 2).reshape(J * K, J * K))
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
    so the Gram matrix is conj(X) P X^T.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    _require_two_codewords(code)
    norms = code.codeword_norms_sq
    index = code.codeword_index
    inv_sqrt = _inverse_sqrt(code.codeword_sums(code.overlap) / np.sqrt(np.outer(norms, norms)))
    A = inv_sqrt.T[:, index] / np.sqrt(norms[index])
    lam, V = _kept_eigenpairs(code.scaled_overlap(gamma))
    J, K = len(lam), code.K
    _check_gram_dim(J, K)
    X = (np.sqrt(lam)[:, None, None] * V.T.conj()[:, None, :] * A[None, :, :]).reshape(J * K, -1)
    gram = X.conj() @ code.scaled_overlap(1.0 - gamma) @ X.T
    return _transpose_recovery_fidelity(gram, J, K)


def _dephasing_kraus(sigma: float, cutoff: int) -> np.ndarray:
    """Diagonals of the Kraus operators of Gaussian dephasing on one mode,
    one per row: sqrt(d_a) U[:, a] for the kept eigenpairs of the multiplier
    exp(-sigma^2 (m-n)^2/2), so that sum_a D_a rho D_a^dag is the multiplier
    applied to rho."""
    m = np.arange(cutoff)
    d, U = _kept_eigenpairs(np.exp(-0.5 * sigma ** 2 * (m[:, None] - m[None, :]) ** 2))
    return (U * np.sqrt(d)).T


def dephasing_channel_fidelity(code: QSCode, sigma: float, cfg: FockConfig) -> float:
    """Entanglement fidelity of Gaussian dephasing + transpose recovery on the
    truncated Fock space of ``cfg``, with the exact Kraus operators of the
    dephasing multiplier at that cutoff, compressed mode by mode (22 to 9 per
    mode for the 2-mode repetition cat code at E = 4, sigma = 0.1, cutoff 60)."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    _require_two_codewords(code)
    kraus = _dephasing_kraus(sigma, cfg.cutoff)
    completeness = reduce(np.kron, [np.sum(kraus ** 2, axis=0)] * cfg.modes)
    deviation = float(np.max(np.abs(completeness - 1.0)))
    if deviation > COMPLETENESS_TOL:
        raise KrausCompletenessError(
            f"dephasing Kraus completeness deviates by {deviation:.3e}")
    psis = np.array(embed_codewords(code, cfg))
    ortho = _inverse_sqrt(psis.conj() @ psis.T).T @ psis
    K, shape = code.K, (cfg.cutoff,) * cfg.modes
    # Each mode's operators, rotated to the eigenvectors of their weights
    # k diag(w_m) k^T on the code's marginal number distribution w_m, keep
    # only the directions above the floor: a combination that vanishes where
    # w_m does vanishes on the code in every product with the other modes.
    probs = np.sum(np.abs(ortho) ** 2, axis=0).reshape(shape)
    per_mode = []
    for m in range(cfg.modes):
        w = np.sum(probs, axis=tuple(i for i in range(cfg.modes) if i != m))
        per_mode.append(_kept_eigenpairs((kraus * w) @ kraus.T)[1].T @ kraus)
    J = math.prod(len(k) for k in per_mode)
    _check_gram_dim(J, K)
    # gram[(a, mu), (b, nu)] = sum_x D_a(x) D_b(x) conj(e_mu(x)) e_nu(x), with
    # D_a the Kronecker product of per-mode diagonals: contract one mode at a
    # time, each step turning the leading number axis x_m into (a_m, b_m).
    T = (ortho.conj()[:, None, :] * ortho[None, :, :]).reshape((K, K) + shape)
    for k in per_mode:
        T = np.tensordot(T, k[:, None, :] * k[None, :, :], axes=([2], [2]))
    order = ([2 + 2 * m for m in range(cfg.modes)] + [0]
             + [3 + 2 * m for m in range(cfg.modes)] + [1])
    return _transpose_recovery_fidelity(T.transpose(order).reshape(J * K, J * K), J, K)
