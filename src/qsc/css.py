"""Compile classical CSS code pairs into phase-pattern constellations.

Each string b in Z_q^n becomes the product coherent point
(alpha w^{b_1}, ..., alpha w^{b_n}) with w = exp(2 pi i / q).  The
constellation consists of the strings orthogonal to every row of gen_Z
(the dual code C_Z^perp), partitioned into cosets of the row space C_X of
gen_X; one coset per logical codeword.  The modulus q must be prime so that
row spaces, duals and cosets are plain linear algebra over a field.

A word lies in a row space iff its reduction by the space's reduced basis is
zero, and every property follows from that one step.  Two points lie in
distinct codewords iff their difference word d lies in C_Z^perp \\ C_X, and
their distance is |alpha| sqrt(sum_i |w^{d_i} - 1|^2).  So d_x is the least
weight in C_Z^perp \\ C_X, d_z the least in C_X^perp \\ C_Z, and the
separation is derived from the classical words, not measured on the compiled
points; ``constellation.min_separation`` is its test oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .constellation import (CODE_SIZE_BUDGET, BudgetExceededError, QSCode, QscError,
                            _check_entries, _read_only)


class CssError(QscError):
    """Invalid classical input: non-prime modulus or CSS condition failure."""


def _is_prime(q: int) -> bool:
    return q >= 2 and all(q % d for d in range(2, math.isqrt(q) + 1))


def _as_matrix(rows: Sequence[Sequence[int]], length: int, q: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for row in rows:
        row = tuple(int(x) % q for x in row)
        if len(row) != length:
            raise CssError(f"generator row {row} does not have length {length}")
        out.append(row)
    return tuple(out)


def _rref(rows: Sequence[Sequence[int]], length: int, q: int) -> np.ndarray:
    """Reduced row echelon form over Z_q (q prime) as a (rank, length) array.
    Exact: q is at most CODE_SIZE_BUDGET, so no product leaves int64."""
    mat = np.array(rows, dtype=np.int64).reshape(-1, length) % q
    rank = 0
    for col in range(length):
        nonzero = np.flatnonzero(mat[rank:, col])
        if not len(nonzero):
            continue
        mat[[rank, rank + nonzero[0]]] = mat[[rank + nonzero[0], rank]]
        mat[rank] = mat[rank] * pow(int(mat[rank, col]), q - 2, q) % q
        factors = mat[:, col].copy()
        factors[rank] = 0
        mat = (mat - np.outer(factors, mat[rank])) % q
        rank += 1
    return mat[:rank]


def _span(basis: np.ndarray, length: int, q: int) -> np.ndarray:
    """Every Z_q-linear combination of the basis rows, one per row, in
    lexicographic order.  The rows are linearly independent, so the
    q^len(basis) combinations are distinct."""
    k = len(basis)
    if not k:
        return np.zeros((1, length), dtype=np.int64)
    words = np.indices((q,) * k).reshape(k, -1).T @ basis % q
    return words[np.lexsort(words.T[::-1])]


def _null_space(basis: np.ndarray, length: int, q: int) -> np.ndarray:
    """All x in Z_q^length with row . x = 0 mod q for every row of the
    reduced basis ``basis``."""
    pivots = np.argmax(basis != 0, axis=1)
    free = np.setdiff1d(np.arange(length), pivots)
    if q ** len(free) > CODE_SIZE_BUDGET:
        raise BudgetExceededError(f"dual code: {q}^{len(free)} words exceed the budget")
    kernel = np.eye(length, dtype=np.int64)[free]
    kernel[:, pivots] = -basis[:, free].T % q
    return _span(kernel, length, q)


def _reduce(words: np.ndarray, basis: np.ndarray, q: int) -> np.ndarray:
    """Each word reduced by the reduced basis ``basis`` of a span, whose pivot
    columns it zeroes.  Two words differ by a word of the span iff their
    reductions agree."""
    return (words - words[:, np.argmax(basis != 0, axis=1)] @ basis) % q


@dataclass(frozen=True)
class ClassicalCodeSpec:
    """A CSS pair: row spaces of gen_X and gen_Z with G_X . G_Z^T = 0 mod q."""

    q: int
    length: int
    gen_x: tuple[tuple[int, ...], ...]
    gen_z: tuple[tuple[int, ...], ...]

    def __init__(self, q: int, length: int,
                 gen_x: Sequence[Sequence[int]] = (),
                 gen_z: Sequence[Sequence[int]] = ()):
        if length < 1:
            raise CssError("length must be at least 1")
        # The larger dual has at least q words (the two ranks sum to at most
        # the length), so a huge q is refused before trial division
        if q > CODE_SIZE_BUDGET:
            raise BudgetExceededError(f"modulus q={q}: a dual code of q words exceeds the budget")
        if not _is_prime(q):
            raise CssError(f"modulus q={q} must be prime")
        gx = _as_matrix(gen_x, length, q)
        gz = _as_matrix(gen_z, length, q)
        for rx in gx:
            for rz in gz:
                if sum(a * b for a, b in zip(rx, rz)) % q:
                    raise CssError(
                        f"CSS condition violated: rows {rx} and {rz} are not orthogonal mod {q}")
        object.__setattr__(self, "q", int(q))
        object.__setattr__(self, "length", int(length))
        object.__setattr__(self, "gen_x", gx)
        object.__setattr__(self, "gen_z", gz)

    @cached_property
    def _bases(self) -> tuple[np.ndarray, np.ndarray]:
        """The reduced bases of gen_X and gen_Z: each matrix is row reduced
        once per spec, for compile_css and css_properties alike."""
        return tuple(_rref(gen, self.length, self.q) for gen in (self.gen_x, self.gen_z))

    @cached_property
    def _dual_z(self) -> tuple[np.ndarray, np.ndarray]:
        """The words of C_Z^perp in lexicographic order, and each reduced by
        gen_X (zero exactly on C_X): enumerated and reduced once per spec."""
        dual = _read_only(_null_space(self._bases[1], self.length, self.q))
        return dual, _read_only(_reduce(dual, self._bases[0], self.q))

    def c_z_dual(self) -> np.ndarray:
        """The words of C_Z^perp, one per row, in lexicographic order (read-only)."""
        return self._dual_z[0]

    def c_x_dual(self) -> np.ndarray:
        """The words of C_X^perp, one per row, in lexicographic order."""
        return _null_space(self._bases[0], self.length, self.q)


def compile_css(spec: ClassicalCodeSpec, alpha: complex) -> QSCode:
    """Concatenate the CSS pair with the q-component cat constellations.

    Codewords are the cosets of C_X inside the dual of C_Z, labeled by coset
    leaders in (weight, lexicographic) order; K = |C_Z^perp| / |C_X|.  An
    alpha of 0, or one whose energy n|alpha|^2 is no finite float, is
    refused before any word is enumerated.
    """
    alpha, q, n = complex(alpha), spec.q, spec.length
    if alpha == 0:
        raise CssError("alpha must be nonzero")
    try:
        energy = n * abs(alpha) ** 2
    except OverflowError:
        energy = math.inf
    if not math.isfinite(energy):
        raise CssError(f"alpha = {alpha:g}: the energy n|alpha|^2 is not a finite float")
    w = cmath.exp(2j * math.pi / q)
    # alpha w^b for every residue b, by Python's complex power: numpy's
    # differs from it in the last bits for some q and alpha
    phases = np.array([alpha * w ** b for b in range(q)])
    dual, reduced = spec._dual_z   # lexicographic order
    # Two dual words lie in one coset of C_X iff their reductions agree.
    coset = np.unique(reduced, axis=0, return_inverse=True)[1].ravel()
    if np.any(np.bincount(coset) != q ** len(spec._bases[0])):
        raise CssError("internal: cosets of C_X do not tile the dual code")
    # Each coset's leader is its first word in (weight, lexicographic) order,
    # and the cosets are taken in the order of their leaders.
    by_weight = np.argsort(np.count_nonzero(dual, axis=1), kind="stable")
    first = np.unique(coset[by_weight], return_index=True)[1]
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    words = dual[np.argsort(rank[coset], kind="stable")]
    leaders = dual[by_weight[np.sort(first)]].tolist()
    return QSCode(n, energy, phases[words], [len(words) // len(first)] * len(first),
                  ["".join(map(str, leader)) for leader in leaders])


@dataclass(frozen=True)
class CssProperties:
    """The classical-to-quantum dictionary of a CSS pair and its compiled code.
    ``min_separation`` is |alpha| sqrt(min sum_i |w^{d_i} - 1|^2) over d in
    C_Z^perp \\ C_X, derived, not measured on ``code`` (0.0 when K < 2)."""

    q: int
    length: int
    K: int
    points_per_codeword: int   # |C_X| = q^rank(gen_X)
    dual_z_size: int
    d_x: Optional[int]   # min weight of C_Z^perp \ C_X
    d_z: Optional[int]   # min weight of C_X^perp \ C_Z
    min_separation: float
    code: QSCode = field(repr=False)   # the compiled code


def css_properties(spec: ClassicalCodeSpec, alpha: complex = 2.0) -> CssProperties:
    """Compile the pair and read its dictionary off the classical words: each
    dual is reduced by the other generator matrix, and d_x, d_z and the
    separation are minima over the words outside its row space.  No pair of
    compiled points is measured; ``min_separation(code)`` is the tests'
    oracle.  KL error detection is ``kl.detection_report``'s to measure."""
    # C_X lies in C_Z^perp and C_Z in C_X^perp, so the two duals are the
    # largest word sets enumerated here, and their words hold as many letters
    # as the code has amplitudes: both are checked before any is enumerated
    (basis_x, basis_z), q = spec._bases, spec.q
    dim = spec.length - min(len(basis_x), len(basis_z))
    if q ** dim > CODE_SIZE_BUDGET:
        raise BudgetExceededError(f"dual code: {q}^{dim} words exceed the budget")
    _check_entries(q ** dim * spec.length, f"the {q}^{dim} dual words of length {spec.length}")
    code = compile_css(spec, alpha)   # refuses alpha before any word is enumerated
    dual_z, dual_x = spec.c_z_dual(), spec.c_x_dual()
    outside_x = dual_z[spec._dual_z[1].any(axis=1)]
    outside_z = dual_x[_reduce(dual_x, basis_z, q).any(axis=1)]
    s = 4 * np.sin(np.pi * np.arange(q) / q) ** 2   # |w^b - 1|^2
    sep = abs(complex(alpha)) * math.sqrt(s[outside_x].sum(axis=1).min()) if len(outside_x) else 0.0
    d_x, d_z = (int(np.count_nonzero(w, axis=1).min()) if len(w) else None
                for w in (outside_x, outside_z))
    return CssProperties(q=q, length=spec.length, K=code.K, points_per_codeword=q ** len(basis_x),
                         dual_z_size=len(dual_z), d_x=d_x, d_z=d_z, min_separation=sep,
                         code=code)


def read_generator_file(path: str) -> list[list[int]]:
    """Rows of space-separated residues, one per line; blank lines ignored.
    A line that is not UTF-8 text or holds a token that is not an integer
    raises CssError naming the file and the line."""
    with open(path, "rb") as fh:
        rows = []
        for number, line in enumerate(fh.read().splitlines(), 1):
            try:
                rows.append([int(tok) for tok in line.decode("utf-8").split()])
            except ValueError as exc:   # UnicodeDecodeError is a ValueError
                raise CssError(f"generator file {path}, line {number}: {exc}") from None
    return [row for row in rows if row]
