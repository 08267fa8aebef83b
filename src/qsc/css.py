"""Compile classical CSS code pairs into phase-pattern constellations.

Each string b in Z_q^n becomes the product coherent point
(alpha w^{b_1}, ..., alpha w^{b_n}) with w = exp(2 pi i / q).  The
constellation consists of the strings orthogonal to every row of gen_Z
(the dual code of C_Z), partitioned into cosets of the row space C_X of
gen_X; one coset per logical codeword.  The modulus q must be prime so that
row spaces, duals and cosets are plain linear algebra over a field.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .constellation import CODE_SIZE_BUDGET, BudgetExceededError, QSCode, QscError, min_separation


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


def _rref(rows: list[list[int]], q: int) -> list[list[int]]:
    """Reduced row echelon form over Z_q (q prime), exact integer arithmetic."""
    mat = [row[:] for row in rows]
    n_cols = len(mat[0]) if mat else 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(pivot_row, len(mat)) if mat[r][col] % q), None)
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        inv = pow(mat[pivot_row][col], q - 2, q)
        mat[pivot_row] = [(x * inv) % q for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] % q:
                factor = mat[r][col]
                mat[r] = [(a - factor * b) % q for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return [row for row in mat[:pivot_row] if any(row)]


def _row_space(rows: Sequence[Sequence[int]], length: int, q: int) -> list[tuple[int, ...]]:
    basis = _rref([list(r) for r in rows], q) if rows else []
    if q ** len(basis) > CODE_SIZE_BUDGET:
        raise BudgetExceededError(f"code with {q}^{len(basis)} words exceeds the budget")
    return _span(basis, length, q)


def _span(basis: list[list[int]], length: int, q: int) -> list[tuple[int, ...]]:
    """Every Z_q-linear combination of the basis rows, sorted.  The rows are
    linearly independent, so the q^len(basis) combinations are distinct."""
    k = len(basis)
    if not k:
        return [(0,) * length]
    words = np.indices((q,) * k).reshape(k, -1).T @ np.array(basis) % q
    return list(map(tuple, words[np.lexsort(words.T[::-1])].tolist()))


def _null_space(rows: Sequence[Sequence[int]], length: int, q: int) -> list[tuple[int, ...]]:
    """All x in Z_q^length with row . x = 0 mod q for every generator row."""
    basis = _rref([list(r) for r in rows], q) if rows else []
    pivots = [next(i for i, x in enumerate(row) if x) for row in basis]
    free_cols = [i for i in range(length) if i not in pivots]
    if q ** len(free_cols) > CODE_SIZE_BUDGET:
        raise BudgetExceededError(f"dual code: {q}^{len(free_cols)} words exceed the budget")
    kernel_basis = []
    for fc in free_cols:
        vec = [0] * length
        vec[fc] = 1
        for row, pc in zip(basis, pivots):
            vec[pc] = (-row[fc]) % q
        kernel_basis.append(vec)
    return _span(kernel_basis, length, q)


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

    def c_x(self) -> list[tuple[int, ...]]:
        return _row_space(self.gen_x, self.length, self.q)

    def c_z(self) -> list[tuple[int, ...]]:
        return _row_space(self.gen_z, self.length, self.q)

    def c_z_dual(self) -> list[tuple[int, ...]]:
        return _null_space(self.gen_z, self.length, self.q)

    def c_x_dual(self) -> list[tuple[int, ...]]:
        return _null_space(self.gen_x, self.length, self.q)


def _min_weight_outside(words: list[tuple], subspace: list[tuple]) -> Optional[int]:
    """Smallest Hamming weight of a word of ``words`` outside ``subspace``."""
    inside = set(subspace)
    return min((sum(map(bool, w)) for w in words if w not in inside), default=None)


def compile_css(spec: ClassicalCodeSpec, alpha: complex,
                dual_z: Optional[Sequence[tuple[int, ...]]] = None) -> QSCode:
    """Concatenate the CSS pair with the q-component cat constellations.

    Codewords are the cosets of C_X inside the dual of C_Z, labeled by coset
    leaders in (weight, lexicographic) order; K = |C_Z^perp| / |C_X|.
    ``dual_z`` is ``spec.c_z_dual()`` when the caller has already enumerated it.
    """
    alpha = complex(alpha)
    if alpha == 0:
        raise CssError("alpha must be nonzero")
    q, n = spec.q, spec.length
    w = cmath.exp(2j * math.pi / q)
    # alpha w^b for every residue b, by Python's complex power: numpy's
    # differs from it in the last bits for some q and alpha
    phases = np.array([alpha * w ** b for b in range(q)])
    dual = np.array(spec.c_z_dual() if dual_z is None else dual_z)   # lexicographic order
    # Two dual words lie in one coset of C_X iff they agree once each is
    # reduced by the reduced basis of C_X (its pivot columns zeroed).
    basis = np.array(_rref([list(r) for r in spec.gen_x], q), dtype=np.int64).reshape(-1, n)
    reduced = (dual - dual[:, np.argmax(basis != 0, axis=1)] @ basis) % q
    coset = np.unique(reduced, axis=0, return_inverse=True)[1].ravel()
    if np.any(np.bincount(coset) != q ** len(basis)):
        raise CssError("internal: cosets of C_X do not tile the dual code")
    # Each coset's leader is its first word in (weight, lexicographic) order,
    # and the cosets are taken in the order of their leaders.
    by_weight = np.argsort(np.count_nonzero(dual, axis=1), kind="stable")
    first = np.unique(coset[by_weight], return_index=True)[1]
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    words = dual[np.argsort(rank[coset], kind="stable")]
    leaders = dual[by_weight[np.sort(first)]].tolist()
    return QSCode(n, n * abs(alpha) ** 2, phases[words], [len(words) // len(first)] * len(first),
                  ["".join(map(str, leader)) for leader in leaders])


@dataclass(frozen=True)
class CssProperties:
    """Classical distances next to the measured properties of the compiled code."""

    q: int
    length: int
    K: int
    points_per_codeword: int
    dual_z_size: int
    d_x: Optional[int]   # min weight of C_Z^perp \ C_X
    d_z: Optional[int]   # min weight of C_X^perp \ C_Z
    min_separation: float
    code: QSCode = field(repr=False)   # the compiled code the properties were measured on


def css_properties(spec: ClassicalCodeSpec, alpha: complex = 2.0) -> CssProperties:
    """Brute-force classical distances plus the separation of the compiled
    constellation, so the classical-to-quantum dictionary can be checked
    empirically.  The compiled code is returned with them; its KL error
    detection is ``kl.detection_report``'s to measure."""
    # C_X lies in C_Z^perp and C_Z in C_X^perp, so the two duals are the
    # largest word sets enumerated here: both are checked before any is
    rank = min(len(_rref([list(r) for r in gen], spec.q)) for gen in (spec.gen_x, spec.gen_z))
    if spec.q ** (spec.length - rank) > CODE_SIZE_BUDGET:
        raise BudgetExceededError(
            f"dual code: {spec.q}^{spec.length - rank} words exceed the budget")
    c_x, dual_z = spec.c_x(), spec.c_z_dual()
    code = compile_css(spec, alpha, dual_z)
    sep = min_separation(code)[0] if code.K >= 2 else 0.0
    return CssProperties(
        q=spec.q,
        length=spec.length,
        K=code.K,
        points_per_codeword=len(c_x),
        dual_z_size=len(dual_z),
        d_x=_min_weight_outside(dual_z, c_x),
        d_z=_min_weight_outside(spec.c_x_dual(), spec.c_z()),
        min_separation=sep,
        code=code,
    )


def read_generator_file(path: str) -> list[list[int]]:
    """Rows of space-separated residues, one per line; blank lines ignored."""
    with open(path) as fh:
        return [[int(tok) for tok in line.split()] for line in fh if line.strip()]
