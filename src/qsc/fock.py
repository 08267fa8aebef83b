"""Independent truncated-Fock-space oracle.

Everything here is brute force on purpose: codewords are embedded as explicit
number-basis vectors, error matrices are recomputed by sandwiching truncated
ladder operators, and channel performance is measured by building the Kraus
operators and applying transpose-channel recovery.  Agreement with the exact
coherent-frame results is what certifies both implementations.

The oracle is capped at two modes; larger codes are served by the exact
coherent-frame path, which needs no cutoff.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .constellation import Constellation, QSCode, QscError
from .kl import MonomialError

DIM_BUDGET = 4096
TAIL_TOL = 1e-12
COMPLETENESS_TOL = 1e-8
KRAUS_NORM_FLOOR = 1e-12
WEIGHT_FLOOR = 1e-16


class TruncationError(QscError):
    """Coherent-state tail mass beyond the cutoff is too large."""


class KrausCompletenessError(QscError):
    """The truncated Kraus set is not close enough to trace preserving."""


class QuadratureConvergenceError(QscError):
    """Doubling the quadrature nodes changed the answer too much."""


@dataclass(frozen=True)
class FockConfig:
    """Per-mode cutoff and mode count for the truncated simulation."""

    cutoff: int
    modes: int
    dim_budget: int = DIM_BUDGET

    def __post_init__(self):
        if self.cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        if self.modes < 1 or self.modes > 2:
            raise ValueError("the Fock oracle supports 1 or 2 modes")
        if self.cutoff ** self.modes > self.dim_budget:
            raise QscError(
                f"Hilbert dimension {self.cutoff ** self.modes} exceeds the "
                f"budget {self.dim_budget}")

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
    for p in c.points:
        vec += _point_vector(p.amplitudes, cfg)
    if normalized:
        vec = vec / np.linalg.norm(vec)
    return vec


def embed_codewords(code: QSCode, cfg: FockConfig) -> list[np.ndarray]:
    """Normalized number-basis vectors for every codeword of the code."""
    if code.modes != cfg.modes:
        raise QscError(f"code has {code.modes} modes, config expects {cfg.modes}")
    return [codeword_vector(c, cfg) for c in code.codewords]


def annihilation(cutoff: int) -> np.ndarray:
    a = np.zeros((cutoff, cutoff))
    for k in range(1, cutoff):
        a[k - 1, k] = math.sqrt(k)
    return a


def _apply_mode_operator(tensor: np.ndarray, op: np.ndarray, axis: int) -> np.ndarray:
    moved = np.tensordot(op, tensor, axes=([1], [axis]))
    return np.moveaxis(moved, 0, axis)


def apply_monomial(vec: np.ndarray, e: MonomialError, cfg: FockConfig) -> np.ndarray:
    """Apply prod_i (a_i^dag)^{r_i} a_i^{s_i} to a state vector."""
    a = annihilation(cfg.cutoff)
    ad = a.T.copy()
    tensor = vec.reshape((cfg.cutoff,) * cfg.modes)
    for axis in range(cfg.modes):
        if e.s[axis]:
            tensor = _apply_mode_operator(tensor, np.linalg.matrix_power(a, e.s[axis]), axis)
        if e.r[axis]:
            tensor = _apply_mode_operator(tensor, np.linalg.matrix_power(ad, e.r[axis]), axis)
    return tensor.reshape(cfg.dim)


def kl_matrix_fock(code: QSCode, e: MonomialError, cfg: FockConfig) -> np.ndarray:
    """Recompute the KL matrix by direct truncated matrix algebra."""
    if e.degree > 6:
        raise QscError("the Fock oracle is rated for monomials of degree <= 6")
    psis = embed_codewords(code, cfg)
    K = len(psis)
    out = np.zeros((K, K), dtype=np.complex128)
    applied = [apply_monomial(p, e, cfg) for p in psis]
    for mu in range(K):
        for nu in range(K):
            out[mu, nu] = np.vdot(psis[mu], applied[nu])
    return out


# ---------------------------------------------------------------------------
# Channel fidelity with transpose-channel recovery
# ---------------------------------------------------------------------------

def _orthonormal_codewords(code: QSCode, cfg: FockConfig) -> np.ndarray:
    """Codeword basis, symmetrically orthogonalized when overlaps are visible."""
    psis = np.array(embed_codewords(code, cfg))
    gram = psis.conj() @ psis.T
    K = gram.shape[0]
    if np.max(np.abs(gram - np.eye(K))) <= 1e-12:
        return psis
    vals, vecs = np.linalg.eigh(gram)
    if np.min(vals) <= 1e-12:
        raise QscError("codewords are numerically linearly dependent")
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return inv_sqrt.T @ psis


def _transpose_recovery_fidelity(corrupted: np.ndarray) -> float:
    """Entanglement fidelity of channel + transpose-channel recovery.

    ``corrupted[j, mu]`` holds E_j |codeword_mu> for the K orthonormal
    codewords.  Everything reduces to the Gram matrix of the
    corrupted vectors: with H the (pseudo) square root of that Gram,
    F = (1/K^2) sum_{j,k} | sum_mu H[(j,mu),(k,mu)] |^2.
    """
    J, K, _ = corrupted.shape
    V = corrupted.reshape(J * K, -1)
    G = V.conj() @ V.T
    vals, vecs = np.linalg.eigh(G)
    floor = max(float(vals.max()), 0.0) * 1e-14
    keep = vals > floor
    H = (vecs[:, keep] * np.sqrt(vals[keep])) @ vecs[:, keep].conj().T
    T = np.einsum("jaka->jk", H.reshape(J, K, J, K))
    return float(np.sum(np.abs(T) ** 2)) / K ** 2


def _loss_kraus_per_mode(gamma: float, cutoff: int) -> list[np.ndarray]:
    """Pure-loss Kraus operators E_k = sqrt(gamma^k/k!) eta^{n/2} a^k,
    eta = 1 - gamma, truncated once the operator norm falls below 1e-12."""
    eta = 1.0 - gamma
    m = np.arange(cutoff)
    ops = []
    norms = []
    a = annihilation(cutoff)
    a_pow = np.eye(cutoff)
    for k in range(cutoff):
        if k > 0:
            a_pow = a_pow @ a
        log_coeff = k * math.log(gamma) - math.lgamma(k + 1) if gamma > 0 else (-math.inf if k else 0.0)
        # E_k^dag E_k is diagonal: gamma^k/k! * eta^(m-k) * m!/(m-k)! at m >= k
        diag = np.zeros(cutoff)
        for mm in range(k, cutoff):
            log_term = log_coeff + (mm - k) * math.log(eta) if eta > 0 else (log_coeff if mm == k else -math.inf)
            log_term += math.lgamma(mm + 1) - math.lgamma(mm - k + 1)
            diag[mm] = math.exp(log_term) if log_term > -700 else 0.0
        norm = math.sqrt(diag.max()) if diag.size else 0.0
        norms.append(norm)
        coeff = math.exp(0.5 * log_coeff) if log_coeff > -700 else 0.0
        damp = np.power(eta, m / 2.0) if eta > 0 else (m == 0).astype(float)
        ops.append(coeff * (damp[:, None] * a_pow))
    k_max = 0
    for k, norm in enumerate(norms):
        if norm >= KRAUS_NORM_FLOOR:
            k_max = k
    return ops[:k_max + 1]


def _completeness_deviation(per_mode_devs: list[np.ndarray]) -> float:
    acc = np.ones(1)
    for dev in per_mode_devs:
        acc = np.outer(acc, 1.0 + dev).ravel()
    return float(np.max(np.abs(acc - 1.0)))


def _corrupted_vectors(ortho: np.ndarray, kraus_per_mode: list[list[np.ndarray]],
                       cfg: FockConfig) -> np.ndarray:
    """Apply every Kraus combination (lexicographic order) to every codeword."""
    K = ortho.shape[0]
    combos = list(itertools.product(*[range(len(k)) for k in kraus_per_mode]))
    out = np.zeros((len(combos), K, cfg.dim), dtype=np.complex128)
    for mu in range(K):
        tensor = ortho[mu].reshape((cfg.cutoff,) * cfg.modes)
        for ci, combo in enumerate(combos):
            t = tensor
            for axis, k in enumerate(combo):
                t = _apply_mode_operator(t, kraus_per_mode[axis][k], axis)
            out[ci, mu] = t.reshape(cfg.dim)
    return out


def loss_channel_fidelity(code: QSCode, gamma: float, cfg: FockConfig) -> float:
    """Entanglement fidelity of pure loss followed by transpose recovery,
    evaluated on the maximally mixed code state."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    if code.K < 2:
        raise ValueError("channel fidelity needs at least two codewords")
    ortho = _orthonormal_codewords(code, cfg)
    per_mode = [_loss_kraus_per_mode(gamma, cfg.cutoff) for _ in range(cfg.modes)]
    devs = [np.sum([np.diag(op.conj().T @ op).real for op in ops], axis=0) - 1.0
            for ops in per_mode]
    deviation = _completeness_deviation(devs)
    if deviation > COMPLETENESS_TOL:
        raise KrausCompletenessError(
            f"Kraus completeness deviates by {deviation:.3e}; increase the cutoff")
    corrupted = _corrupted_vectors(ortho, per_mode, cfg)
    return _transpose_recovery_fidelity(corrupted)


def _dephasing_phases(sigma: float, nodes: int) -> list[tuple[float, float]]:
    """Gauss-Hermite discretization of Gaussian phase noise: (theta, weight)."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    thetas = math.sqrt(2.0) * sigma * x
    weights = w / math.sqrt(math.pi)
    return [(float(t), float(wt)) for t, wt in zip(thetas, weights)]


def _dephasing_fidelity_at(code_ortho: np.ndarray, sigma: float, nodes: int,
                           cfg: FockConfig) -> float:
    per_mode = [_dephasing_phases(sigma, nodes) for _ in range(cfg.modes)]
    m = np.arange(cfg.cutoff)
    K = code_ortho.shape[0]
    # drop negligible-probability phase combinations; the discarded mass is
    # bounded by nodes^modes * WEIGHT_FLOOR, far below the quadrature check
    combos = [combo for combo in itertools.product(*[range(len(p)) for p in per_mode])
              if _combo_weight(per_mode, combo) > WEIGHT_FLOOR]
    kept_mass = 0.0
    vectors = np.zeros((len(combos), K, cfg.dim), dtype=np.complex128)
    for ci, combo in enumerate(combos):
        weight = _combo_weight(per_mode, combo)
        phase_factors = [np.exp(1j * per_mode[axis][li][0] * m) for axis, li in enumerate(combo)]
        kept_mass += weight
        phases = reduce(np.kron, phase_factors)
        vectors[ci] = math.sqrt(weight) * code_ortho * phases[None, :]
    if abs(kept_mass - 1.0) > COMPLETENESS_TOL:
        raise KrausCompletenessError(
            f"dephasing quadrature mass {kept_mass} is not close enough to 1")
    return _transpose_recovery_fidelity(vectors)


def _combo_weight(per_mode: list[list[tuple[float, float]]],
                  combo: tuple[int, ...]) -> float:
    weight = 1.0
    for axis, li in enumerate(combo):
        weight *= per_mode[axis][li][1]
    return weight


def dephasing_channel_fidelity(code: QSCode, sigma: float, cfg: FockConfig,
                               nodes: int = 32,
                               check_convergence: bool = True) -> float:
    """Entanglement fidelity of Gaussian dephasing + transpose recovery.

    The Gaussian phase average is discretized by Gauss-Hermite quadrature;
    with ``check_convergence`` the node count is doubled and the two answers
    must agree to 1e-9.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    ortho = _orthonormal_codewords(code, cfg)
    value = _dephasing_fidelity_at(ortho, sigma, nodes, cfg)
    if check_convergence:
        refined = _dephasing_fidelity_at(ortho, sigma, 2 * nodes, cfg)
        if abs(refined - value) > 1e-9:
            raise QuadratureConvergenceError(
                f"{nodes} vs {2 * nodes} nodes differ by {abs(refined - value):.3e}")
        return refined
    return value
