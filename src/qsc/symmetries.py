"""Passive-unitary symmetries, their logical action, and vanishing ideals.

A passive unitary U sends coherent states to coherent states, |z> -> |Uz>, so
a U that permutes the constellation points acts exactly on the uniform
superposition codewords: it is a logical gate.  If it fixes every
constellation setwise it is Z-type (a stabilizer of the logical identity);
if it permutes the constellations it is X-type.

The vanishing ideal holds the polynomials g with g(z) = 0 at every
constellation point.  Since g(a_1,...,a_n)|z> = g(z)|z>, each such g yields a
jump operator that annihilates the whole codespace: the codespace is a dark
space of the corresponding dissipator, which is the algebraic content of
passive stabilization.  The ideal is reported by its generators, found
degree by degree, so their degrees are the minimal jump-operator degrees.
Monomials are evaluated at the points by :func:`qsc.moments.monomial_values`,
the evaluator the moments and KL matrices share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constellation import (
    DimensionMismatchError,
    PassiveUnitary,
    QSCode,
    TOL_POINT,
    distance_blocks,
)
from .moments import (
    BudgetExceededError,
    _check_tolerance,
    count_multi_indices,
    monomial_values,
    multi_indices,
)

TOL_IDEAL = 1e-8
# Entries of the pivot images (candidates x pivots x modes) per block of
# phase candidates: 256 kB of complex, so the candidate count never sizes
# a temporary.
PHASE_BLOCK_ENTRIES = 1 << 14
Z_TYPE = "Z-type"
X_TYPE = "X-type"
NOT_A_SYMMETRY = "not-a-symmetry"


@dataclass(frozen=True)
class SymmetryAction:
    """How a candidate unitary acts on a code's constellations."""

    unitary: PassiveUnitary
    point_permutation: Optional[dict[tuple[int, int], tuple[int, int]]]
    codeword_permutation: Optional[tuple[int, ...]]
    classification: str

    @property
    def is_symmetry(self) -> bool:
        return self.classification != NOT_A_SYMMETRY


def classify_symmetry(code: QSCode, u: PassiveUnitary,
                      tol: float = TOL_POINT) -> SymmetryAction:
    """Match every image Uz back to the point set and read off the action."""
    if u.n != code.modes:
        raise DimensionMismatchError(f"unitary has n={u.n}, code has n={code.modes}")
    points, index = code.point_array, code.codeword_index
    images = points @ u.matrix.T
    target = np.empty(len(points), dtype=np.intp)
    for first, d in distance_blocks(images, points):
        nearest = np.argmin(d, axis=1)
        if np.any(d[np.arange(len(d)), nearest] > tol):
            return SymmetryAction(u, None, None, NOT_A_SYMMETRY)
        target[first:first + len(d)] = nearest
    if len(np.unique(target)) != len(target):
        return SymmetryAction(u, None, None, NOT_A_SYMMETRY)

    # each codeword must land inside one codeword, and no two in the same one
    pi = index[target[code.codeword_starts]]
    if np.any(index[target] != pi[index]) or len(np.unique(pi)) != code.K:
        return SymmetryAction(u, None, None, NOT_A_SYMMETRY)
    local = code.index_in_codeword
    pairs = zip(index.tolist(), local.tolist(), index[target].tolist(), local[target].tolist())
    permutation = {(mu, i): (nu, j) for mu, i, nu, j in pairs}
    kind = Z_TYPE if np.array_equal(pi, np.arange(code.K)) else X_TYPE
    return SymmetryAction(u, permutation, tuple(pi.tolist()), kind)


def enumerate_phase_symmetries(code: QSCode, max_order: int,
                               budget: int = 1_000_000) -> list[SymmetryAction]:
    """Test all per-mode rotations diag(exp(2pi i k/m)) with m <= max_order.

    A candidate is tested only at the order m equal to the least common
    denominator of its phases k/m (gcd(m, k_1, ..., k_n) == 1), and the
    surviving symmetries by their induced point permutation, keeping the
    lowest-order representative of each action.

    The candidates are screened in blocks on a few pivot points (for each
    mode, the first point of largest |z_k|): one distance pass rotates every
    pivot by every candidate of the block, and only candidates that send each
    pivot onto some point go on to :func:`classify_symmetry`.  The pivot test
    is a necessary condition, since a symmetry maps every point to a point,
    so the result is the same as classifying every candidate.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    n = code.modes
    total = sum(m ** n for m in range(1, max_order + 1))
    if total > budget:
        raise BudgetExceededError(
            f"{total} phase candidates exceed the budget {budget}")
    points = code.point_array
    pivots = points[np.unique(np.argmax(np.abs(points), axis=0))]
    block = max(1, PHASE_BLOCK_ENTRIES // (len(pivots) * n))
    seen_actions: set[tuple[tuple[tuple[int, int], tuple[int, int]], ...]] = set()
    found: list[SymmetryAction] = []
    for ks, ms in _phase_candidates(n, max_order, block):
        images = np.exp(1j * (2.0 * np.pi * ks / ms[:, None]))[:, None, :] * pivots
        nearest = np.empty(len(ks) * len(pivots))
        for first, d in distance_blocks(images.reshape(-1, n), points):
            nearest[first:first + len(d)] = np.min(d, axis=1)
        # twice the point tolerance: rounding in the two ways of forming an
        # image can never make this test reject a symmetry
        maps = np.all((nearest <= 2.0 * TOL_POINT).reshape(len(ks), len(pivots)), axis=1)
        for k, m in zip(ks[maps].tolist(), ms[maps].tolist()):
            u = PassiveUnitary.phase_rotation([2.0 * math.pi * kk / m for kk in k])
            action = classify_symmetry(code, u)
            if not action.is_symmetry:
                continue
            perm_key = tuple(sorted(action.point_permutation.items()))
            if perm_key in seen_actions:
                continue
            seen_actions.add(perm_key)
            found.append(action)
    return found


def _phase_candidates(n: int, max_order: int, block: int):
    """Numerators k (rows) and orders m of the candidates diag(exp(2pi i k/m)),
    m = 1..max_order and k over range(m)^n in itertools.product order, with
    gcd(m, k_1, ..., k_n) == 1; in blocks of at most ``block`` candidates."""
    offsets = np.cumsum([0] + [m ** n for m in range(1, max_order + 1)])
    for first in range(0, int(offsets[-1]), block):
        flat = np.arange(first, min(first + block, int(offsets[-1])))
        m = np.searchsorted(offsets, flat, side="right")
        digits = m[:, None] ** np.arange(n - 1, -1, -1)
        ks = (flat - offsets[m - 1])[:, None] // digits % m[:, None]
        keep = np.gcd.reduce(np.column_stack([m, ks]), axis=1) == 1
        yield ks[keep], m[keep]


@dataclass(frozen=True)
class VanishingPolynomial:
    """A polynomial in the mode amplitudes that vanishes on the code points."""

    terms: dict[tuple[int, ...], complex]
    max_degree: int

    @property
    def n(self) -> int:
        return len(next(iter(self.terms)))

    @property
    def degree(self) -> int:
        return max(sum(d) for d in self.terms)

    def evaluate(self, z: np.ndarray) -> complex | np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        single = z.ndim == 1
        pts = z[None, :] if single else z
        out = monomial_values(pts, list(self.terms)) @ np.array(list(self.terms.values()))
        return complex(out[0]) if single else out

    def describe(self) -> str:
        def mono(d: tuple[int, ...]) -> str:
            if not any(d):
                return "1"
            return " ".join(f"z{i + 1}^{e}" if e > 1 else f"z{i + 1}"
                            for i, e in enumerate(d) if e)
        parts = [f"({coeff.real:+.4g}{coeff.imag:+.4g}j) {mono(d)}"
                 for d, coeff in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))]
        return " + ".join(parts)


def vanishing_ideal(code: QSCode, max_degree: int, tol_ideal: float = TOL_IDEAL,
                    budget: int = 100_000) -> list[VanishingPolynomial]:
    """Generators of the vanishing ideal up to ``max_degree``, degree by degree.

    V has one row per constellation point and one column per monomial z^d
    with 0 <= |d| <= max_degree in graded order (the constant column makes
    affine relations such as z^4 - alpha^4 visible).  Columns are scaled by
    their largest magnitude so the cutoff tol_ideal * sigma_max is robust to
    the sphere radius.  At each degree D the null space of the columns of
    degree <= D holds every vanishing polynomial of degree <= D; the
    directions spanned by the multiples z^m g of lower-degree generators g
    are dropped, and an orthonormal basis of the rest gives the new
    generators.  So the generator degrees are the minimal jump-operator
    degrees, and the multiples of the generators span the whole null space.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    _check_tolerance(tol_ideal)
    n = code.modes
    n_cols = count_multi_indices(n, max_degree)
    if n_cols > budget:
        raise BudgetExceededError(
            f"monomial enumeration needs {n_cols} columns, budget is {budget}")
    monomials = list(multi_indices(n, max_degree))
    position = {d: j for j, d in enumerate(monomials)}
    V = monomial_values(code.point_array, monomials)
    scales = np.max(np.abs(V), axis=0)
    scales[scales == 0.0] = 1.0
    V /= scales[None, :]
    generators: list[tuple[int, np.ndarray]] = []   # (degree, coefficients)
    for degree in range(1, max_degree + 1):
        cols = count_multi_indices(n, degree)
        _, sigma, Vh = np.linalg.svd(V[:, :cols], full_matrices=True)
        null = np.conj(Vh[int(np.sum(sigma > tol_ideal * sigma[0])):])  # V y = 0
        multiples = []
        for g_degree, coeffs in generators:
            for m in multi_indices(n, degree - g_degree):
                y = np.zeros(cols, dtype=np.complex128)
                for j in np.flatnonzero(coeffs):
                    k = position[tuple(a + b for a, b in zip(monomials[j], m))]
                    y[k] = coeffs[j] * scales[k]
                multiples.append(y / np.linalg.norm(y))
        if multiples and len(null):
            # keep the null directions orthogonal to every multiple
            _, s, Wh = np.linalg.svd(np.array(multiples) @ null.conj().T)
            null = Wh[int(np.sum(s > tol_ideal * s[0])):] @ null
        for y in null:
            coeffs = np.zeros(len(monomials), dtype=np.complex128)
            coeffs[:cols] = y / scales[:cols]
            coeffs /= np.linalg.norm(coeffs)
            coeffs[np.abs(coeffs) <= 1e-14 * np.max(np.abs(coeffs))] = 0.0
            generators.append((degree, coeffs))
    return [VanishingPolynomial({monomials[j]: complex(c[j]) for j in np.flatnonzero(c)},
                                max_degree) for _, c in generators]


def verify_jump_annihilates(code: QSCode, g: VanishingPolynomial) -> float:
    """Largest |g(z)| over all constellation points.

    Zero (within tolerance) certifies that the jump operator g(a_1,...,a_n)
    annihilates every codeword, i.e. the codespace is a dark space of the
    dissipator built from g.
    """
    if g.n != code.modes:
        raise DimensionMismatchError(f"polynomial has n={g.n}, code has n={code.modes}")
    return float(np.max(np.abs(g.evaluate(code.point_array))))
