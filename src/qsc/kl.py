"""Exact coherent-frame evaluation of error-detection (Knill-Laflamme) matrices.

Codewords are uniform, unweighted superpositions of the coherent states at
the constellation points.  For a normally ordered monomial error
E = prod_i (a_i^dag)^{r_i} a_i^{s_i} the matrix element between coherent
states is available in closed form,

    <z| (a^dag)^r a^s |w> = conj(z)^r w^s <z|w>,

so every K x K error matrix is computed exactly, with no Fock cutoff.

All errors of a code share its cached frame (see :mod:`qsc.constellation`):
the stacked points Z, the codeword membership C (K x N, one row of ones per
codeword), the overlap matrix O = <z|w> and the codeword norms n_mu.  The
matrix of one error is

    (C . conj(Z)^r) O (C . Z^s)^T / sqrt(n_mu n_nu),

where Z^r and Z^s are the columns of monomial values at the points, from
:func:`qsc.moments.monomial_values`.  :func:`kl_matrix` is the single-error
path: it evaluates this product as block sums of the N x N matrix
conj(Z^r) O Z^s.  :func:`detection_report` covers every error of a report in
one contraction, row first: one ``monomial_values`` call gives every Z^r and
Z^s, the codeword block sums A_r = C (conj(Z^r) . O) are formed once per
creation monomial r, and one block sum of A_r Z^s over the codewords gives
the matrices of every s that r pairs with.  Only the pairs with s at or after
r in the graded order are computed, which needs A_r only for 2|r| <= the
degree bound (one N x N pass, for r = 0, at degree 1); the other half follows
from the dagger identity <c_mu|E^dag|c_nu> = conj <c_nu|E|c_mu>.  A report
keeps only each matrix's summary, as columns (``DetectionReport``): the
exponents, degrees, lambda and delta of every row, each row's (r, s) read from
the graded tables by position.  When all codewords have one size, as a
compiled CSS code's do, every block sum over the codewords reshapes and sums
(:mod:`qsc.constellation`).  Norms, with their imaginary-part and degeneracy
checks, are computed once per code.

A code detects E when the matrix is proportional to the identity; the report
records the deviation from that for every error up to a degree bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .constellation import DimensionMismatchError, QSCode
from .moments import (
    BudgetExceededError,
    _check_tolerance,
    _index_position,
    _index_table,
    count_multi_indices,
    monomial_values,
)

MAX_STIRLING = 20
ERROR_BUDGET = 100_000
# Entries of detection_report's largest temporaries, 256 kB of complex: a
# tile of conj(Z^r) . O (N points times a block of columns) and a tile of
# A_r Z^s (K codewords times N points times a block of annihilation columns
# s), for each creation monomial r of the computed half (s at or after r).
KL_BLOCK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class MonomialError:
    """A normally ordered monomial prod_i (a_i^dag)^{r_i} a_i^{s_i}."""

    r: tuple[int, ...]
    s: tuple[int, ...]

    def __post_init__(self):
        if len(self.r) != len(self.s):
            raise DimensionMismatchError("r and s must have equal length")
        if any(e < 0 for e in self.r) or any(e < 0 for e in self.s):
            raise ValueError("powers must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.r)

    @property
    def degree(self) -> int:
        return sum(self.r) + sum(self.s)

    def label(self) -> str:
        return _monomial_label(self.r, self.s)


def _monomial_label(r, s) -> str:
    """'ad1^2 a2' for r = (2, 0), s = (0, 1); 'I' for the identity."""
    parts = []
    for i, (ri, si) in enumerate(zip(r, s), start=1):
        if ri:
            parts.append(f"ad{i}^{ri}" if ri > 1 else f"ad{i}")
        if si:
            parts.append(f"a{i}^{si}" if si > 1 else f"a{i}")
    return " ".join(parts) if parts else "I"


def kl_matrix(code: QSCode, e: MonomialError) -> np.ndarray:
    """K x K matrix of <c_mu| E |c_nu> over unit-normalized codewords."""
    if e.n != code.modes:
        raise DimensionMismatchError(f"error has n={e.n}, code has n={code.modes}")
    z_r, z_s = monomial_values(code.point_array, [e.r, e.s]).T
    weighted = code.overlap * np.conj(z_r)[:, None]
    weighted *= z_s[None, :]
    norms = code.codeword_norms_sq
    return code.codeword_sums(weighted) / np.sqrt(np.outer(norms, norms))


def stirling2(k: int) -> list[int]:
    """Stirling numbers of the second kind S(k, j) for j = 0..k, exact."""
    if k < 0 or k > MAX_STIRLING:
        raise ValueError(f"dephasing expansion supports powers 0..{MAX_STIRLING}")
    row = [1]
    for m in range(1, k + 1):
        prev = row
        row = [0] * (m + 1)
        for j in range(1, m + 1):
            row[j] = (j * prev[j] if j < len(prev) else 0) + prev[j - 1]
    return row


def dephasing_kl_matrix(code: QSCode, mode: int, k: int) -> np.ndarray:
    """KL matrix of the dephasing power n_mode^k via its normal ordering,
    n^k = sum_j S(k, j) (a^dag)^j a^j."""
    coeffs = stirling2(k)
    out = np.zeros((code.K, code.K), dtype=np.complex128)
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        powers = tuple(j if i == mode else 0 for i in range(code.modes))
        out += c * kl_matrix(code, MonomialError(powers, powers))
    return out


@dataclass(frozen=True)
class DetectionRow:
    """One error's KL matrix summarized: scale lambda and deviation delta.

    The K x K matrix itself is recomputed from the code's cached frame on
    access, so a report holds no matrices however many errors it covers.
    """

    kind: str                       # "monomial" or "dephasing"
    error: Optional[MonomialError]  # for monomial rows
    mode: Optional[int]             # for dephasing rows
    power: Optional[int]            # for dephasing rows
    degree: int
    lam: complex
    delta: float
    code: QSCode = field(repr=False, compare=False)

    @property
    def matrix(self) -> np.ndarray:
        if self.kind == "monomial":
            return kl_matrix(self.code, self.error)
        return dephasing_kl_matrix(self.code, self.mode, self.power)

    def label(self) -> str:
        if self.kind == "monomial":
            return self.error.label()
        return _dephasing_label(self.mode, self.power)


def _dephasing_label(mode: int, power: int) -> str:
    return f"n{mode + 1}^{power}" if power != 1 else f"n{mode + 1}"


@dataclass(frozen=True, eq=False)
class DetectionReport:
    """Every error's summary, as columns: the monomial rows in the graded order
    of their exponents (r, s), then the dephasing rows, (mode, power) each.
    ``rows`` builds the same rows as ``DetectionRow``s on first read.
    """

    exponents: np.ndarray   # (errors, 2n) int
    dephasing: np.ndarray   # (dephasing rows, 2) int: mode, power
    degrees: np.ndarray     # (rows,) int
    lam: np.ndarray         # (rows,) complex
    delta: np.ndarray       # (rows,) float
    detection_degree: int
    max_degree: int
    tol: float
    code: QSCode = field(repr=False, compare=False)

    def labels(self) -> list[str]:
        """The label of every row: the monomial's, or n<mode>^<power>."""
        n = self.exponents.shape[1] // 2
        return ([_monomial_label(e[:n], e[n:]) for e in self.exponents.tolist()]
                + [_dephasing_label(i, k) for i, k in self.dephasing.tolist()])

    @cached_property
    def rows(self) -> tuple[DetectionRow, ...]:
        n = self.exponents.shape[1] // 2
        kinds = ([("monomial", MonomialError(tuple(e[:n]), tuple(e[n:])), None, None)
                  for e in self.exponents.tolist()]
                 + [("dephasing", None, i, k) for i, k in self.dephasing.tolist()])
        return tuple(DetectionRow(*kind, *summary, self.code) for kind, summary in zip(
            kinds, zip(self.degrees.tolist(), self.lam.tolist(), self.delta.tolist())))


def _summarize(matrix: np.ndarray) -> tuple[complex, float]:
    K = matrix.shape[0]
    lam = complex(np.trace(matrix) / K)
    delta = float(np.max(np.abs(matrix - lam * np.eye(K))))
    return lam, delta


def _monomial_summaries(code: QSCode, monomials: np.ndarray,
                        max_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """lambda and delta of every error (a^dag)^r a^s with |r| + |s| <= max_degree,
    as (M, M) arrays indexed by the positions of r and s in ``monomials``, the
    M monomials of degree <= max_degree in graded order (rows of exponents).

    Row first: A_r[mu, j] = sum_{i in mu} conj(Z^r[i]) O[i, j] is formed once
    for each creation monomial r that pairs with some s >= r in the graded
    order (2|r| <= max_degree), and one block sum of A_r Z^s over the
    codewords gives the K x K matrices of r with a tile of those s.  The s
    that pair with r, |s| <= max_degree - |r|, are a prefix of the graded
    order.  Every pair s < r follows from (s, r) through
    <c_mu|E^dag|c_nu> = conj <c_nu|E|c_mu>: lambda conjugated, the same delta.
    """
    Z = monomial_values(code.point_array, monomials)
    O = code.overlap
    N, K, M = len(Z), code.K, len(monomials)
    norms = np.sqrt(np.outer(code.codeword_norms_sq, code.codeword_norms_sq))[:, :, None]
    degrees = np.sum(monomials, axis=1)
    prefix = np.searchsorted(degrees, max_degree - degrees, side="right")
    columns = max(1, KL_BLOCK_ENTRIES // N)
    width = max(1, KL_BLOCK_ENTRIES // (N * K))
    diag = np.arange(K)
    lam = np.zeros((M, M), dtype=np.complex128)
    delta = np.zeros((M, M))
    A = np.empty((K, N), dtype=np.complex128)
    for r in range(M):
        if prefix[r] <= r:
            break   # 2|r| > max_degree from here on
        weights = np.conj(Z[:, r, None])
        for j in range(0, N, columns):
            A[:, j:j + columns] = code._block_sums(weights * O[:, j:j + columns], 0)
        for first in range(r, prefix[r], width):
            stop = min(first + width, prefix[r])
            X = code._block_sums(A[:, :, None] * Z[None, :, first:stop], 1)
            X /= norms
            lam[r, first:stop] = np.trace(X) / K
            X[diag, diag] -= lam[r, first:stop]
            delta[r, first:stop] = np.max(np.abs(X), axis=(0, 1))
    below = np.arange(M)[:, None] > np.arange(M)[None, :]
    return np.where(below, np.conj(lam.T), lam), np.where(below, delta.T, delta)


def detection_report(code: QSCode, max_degree: int, tol: float,
                     include_dephasing_to: int = 0) -> DetectionReport:
    """Evaluate every monomial error of degree <= max_degree (graded lex),
    plus per-mode dephasing powers, and report the detectable degree.

    ``detection_degree`` is the largest D with delta_E <= tol for every
    monomial of degree <= D; it is -1 when already the identity fails (the
    codewords are not orthogonal at tolerance ``tol``).
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    if not 0 <= include_dephasing_to <= MAX_STIRLING:
        raise ValueError(f"dephasing expansion supports powers 0..{MAX_STIRLING}")
    _check_tolerance(tol)
    n = code.modes
    n_errors = count_multi_indices(2 * n, max_degree)
    if n_errors > ERROR_BUDGET:
        raise BudgetExceededError(
            f"error enumeration needs {n_errors} monomials, budget is {ERROR_BUDGET}")
    lam, delta = _monomial_summaries(code, _index_table(n, max_degree), max_degree)
    exponents = _index_table(2 * n, max_degree)
    r, s = _index_position(exponents[:, :n]), _index_position(exponents[:, n:])
    dephasing = np.array([(i, k) for i in range(n) for k in range(1, include_dephasing_to + 1)],
                         dtype=np.intp).reshape(-1, 2)
    extra = np.array([_summarize(dephasing_kl_matrix(code, i, k)) for i, k in dephasing.tolist()],
                     dtype=np.complex128).reshape(-1, 2)   # lambda, delta
    degrees = np.concatenate([exponents.sum(axis=1), 2 * dephasing[:, 1]])
    failing = degrees[:n_errors][~(delta[r, s] <= tol)]   # one reduction, NaN failing too
    return DetectionReport(exponents, dephasing, degrees, np.concatenate([lam[r, s], extra[:, 0]]),
                           np.concatenate([delta[r, s], extra[:, 1].real]),
                           int(failing.min()) - 1 if len(failing) else max_degree,
                           max_degree, tol, code)
