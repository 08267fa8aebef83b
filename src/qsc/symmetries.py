"""Passive-unitary symmetries, their logical action, and vanishing ideals.

A passive unitary U sends coherent states to coherent states, |z> -> |Uz>, so
a U that permutes the constellation points acts exactly on the uniform
superposition codewords: it is a logical gate.  If it fixes every
constellation setwise it is Z-type (a stabilizer of the logical identity);
if it permutes the constellations it is X-type.  One private function
classifies a stack of unitaries at once, matching all their images to the
points in one pass that measures only the image-point pairs whose sorted
projections come within the tolerance (see :mod:`qsc.constellation`):
:func:`classify_symmetry` is its one-unitary call, and
:func:`enumerate_phase_symmetries` hands it the phase rotations of each block
that pass a screen on a few pivot points.

The vanishing ideal holds the polynomials g with g(z) = 0 at every
constellation point.  Since g(a_1,...,a_n)|z> = g(z)|z>, each such g yields a
jump operator that annihilates the whole codespace: the codespace is a dark
space of the corresponding dissipator, which is the algebraic content of
passive stabilization.  The ideal is reported by its generators, found
degree by degree, so their degrees are the minimal jump-operator degrees:
one QR factorisation of the evaluation matrix serves every degree.
Monomials are evaluated at the points by :func:`qsc.moments.monomial_values`,
the evaluator the moments and KL matrices share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constellation import (
    BudgetExceededError,
    DimensionMismatchError,
    PassiveUnitary,
    QSCode,
    TOL_POINT,
    _pairs_within,
)
from .moments import (
    _check_tolerance,
    _index_position,
    _index_table,
    count_multi_indices,
    monomial_values,
)

TOL_IDEAL = 1e-8
# Phase candidates (the sum of m^n over the orders m) enumerate_phase_symmetries
# may screen: it streams them in blocks, so this bounds its time, not memory.
PHASE_CANDIDATE_BUDGET = 1_000_000
# Monomial columns of vanishing_ideal's evaluation matrix V, which holds N of
# them as complex: 1.6 MB per point at the budget.
IDEAL_COLUMN_BUDGET = 100_000
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


def classify_symmetry(code: QSCode, u: PassiveUnitary,
                      tol: float = TOL_POINT) -> SymmetryAction:
    """Match every image Uz back to the point set and read off the action."""
    if u.n != code.modes:
        raise DimensionMismatchError(f"unitary has n={u.n}, code has n={code.modes}")
    maps, target, pi = _match_images(code, u.matrix[None], tol)
    if not maps[0]:
        return SymmetryAction(u, None, None, NOT_A_SYMMETRY)
    return _action(code, u, target[0], pi[0])


def _match_images(code: QSCode, unitaries: np.ndarray, tol: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify the (B, n, n) stack ``unitaries`` on the code at once.

    Returns ``maps`` (B,), whether each U permutes the points and maps each
    codeword onto one codeword, no two onto the same; ``target`` (B, N), the
    point nearest to each image Uz; and ``pi`` (B, K), the codeword each
    codeword's first point lands in.  ``target`` and ``pi`` are meaningful
    only where ``maps`` holds.  One pass matches every image of every point:
    it measures only the pairs of an image and a point whose projections lie
    within ``tol``, and each image's target is its nearest point among them.
    """
    points, index = code.point_array, code.codeword_index
    images = (points @ unitaries.transpose(0, 2, 1)).reshape(-1, code.modes)
    g, h, d = _pairs_within(images, points, tol)
    # each image's nearest point within tol, the first by index on a tie:
    # the first pair of its image in (image, distance, point) order
    ranked = np.lexsort((h, d, g))
    g, h = g[ranked], h[ranked]
    first = np.ones(len(g), dtype=bool)
    first[1:] = g[1:] != g[:-1]
    target = np.zeros(len(images), dtype=np.intp)
    target[g[first]] = h[first]
    far = np.ones(len(images), dtype=bool)
    far[g] = False
    target = target.reshape(len(unitaries), -1)
    pi = index[target[:, code.codeword_starts]]
    maps = (~np.any(far.reshape(target.shape), axis=1) & _all_distinct(target)
            & np.all(index[target] == pi[:, index], axis=1) & _all_distinct(pi))
    return maps, target, pi


def _all_distinct(rows: np.ndarray) -> np.ndarray:
    """Whether the entries of each row are pairwise distinct."""
    ordered = np.sort(rows, axis=1)
    return np.all(ordered[:, 1:] != ordered[:, :-1], axis=1)


def _action(code: QSCode, u: PassiveUnitary, target: np.ndarray,
            pi: np.ndarray) -> SymmetryAction:
    """The action of a symmetry u that sends point g to point target[g] and
    codeword mu into codeword pi[mu]."""
    index, local = code.codeword_index, code.index_in_codeword
    pairs = zip(index.tolist(), local.tolist(), index[target].tolist(), local[target].tolist())
    permutation = {(mu, i): (nu, j) for mu, i, nu, j in pairs}
    kind = Z_TYPE if np.array_equal(pi, np.arange(code.K)) else X_TYPE
    return SymmetryAction(u, permutation, tuple(pi.tolist()), kind)


def enumerate_phase_symmetries(code: QSCode, max_order: int) -> list[SymmetryAction]:
    """Test all per-mode rotations diag(exp(2pi i k/m)) with m <= max_order.

    A candidate is tested only at the order m equal to the least common
    denominator of its phases k/m (gcd(m, k_1, ..., k_n) == 1), and the
    surviving symmetries by their induced point permutation, keeping the
    lowest-order representative of each action.

    The candidates are screened in blocks on a few pivot points (for each
    mode, the first point of largest |z_k|): every pivot is rotated by every
    candidate of the block, one matching pass finds which images lie within
    twice the point tolerance of some point, and only candidates that send
    each pivot onto a point are classified.  The pivot test is a necessary
    condition, since a symmetry maps every point to a point, so the result is
    the same as classifying every candidate.  A block's survivors are
    classified together by the function behind :func:`classify_symmetry`:
    one matching pass pairs every image of every point with the points near
    it, and a ``SymmetryAction`` is built only for a point permutation not
    seen before.  Both passes measure only the pairs whose projections onto
    a fixed direction come within the tolerance.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    n = code.modes
    total = 0
    for m in range(1, max_order + 1):   # stops as soon as the budget is passed
        total += m ** n
        if total > PHASE_CANDIDATE_BUDGET:
            raise BudgetExceededError(
                f"{total} phase candidates exceed the budget {PHASE_CANDIDATE_BUDGET}")
    points = code.point_array
    pivots = points[np.unique(np.argmax(np.abs(points), axis=0))]
    block = max(1, PHASE_BLOCK_ENTRIES // (len(pivots) * n))
    # survivors are classified in batches whose images (batch x N x n) stay
    # within as many entries
    batch = max(1, PHASE_BLOCK_ENTRIES // (len(points) * n))
    seen: set[bytes] = set()
    found: list[SymmetryAction] = []
    for ks, ms in _phase_candidates(n, max_order, block):
        phases = 2.0 * np.pi * ks / ms[:, None]
        images = np.exp(1j * phases)[:, None, :] * pivots
        # twice the point tolerance: rounding in the two ways of forming an
        # image can never make this test reject a symmetry
        hit = np.zeros(len(ks) * len(pivots), dtype=bool)
        hit[_pairs_within(images.reshape(-1, n), points, 2.0 * TOL_POINT)[0]] = True
        maps = np.all(hit.reshape(len(ks), len(pivots)), axis=1)
        survivors = phases[maps]
        for first in range(0, len(survivors), batch):
            angles = survivors[first:first + batch]
            unitaries = np.zeros((len(angles), n, n), dtype=np.complex128)
            unitaries[:, np.arange(n), np.arange(n)] = np.exp(1j * angles)
            symmetric, target, pi = _match_images(code, unitaries, TOL_POINT)
            for b in np.flatnonzero(symmetric):
                key = target[b].tobytes()
                if key not in seen:
                    seen.add(key)
                    u = PassiveUnitary.phase_rotation(angles[b].tolist())
                    found.append(_action(code, u, target[b], pi[b]))
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


def vanishing_ideal(code: QSCode, max_degree: int,
                    tol_ideal: float = TOL_IDEAL) -> list[VanishingPolynomial]:
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

    V is factored once, V = QR with orthonormal Q: the first c columns of V
    are Q times the first c columns of R, so each degree's singular values
    and right singular vectors come from the leading min(N, c) x c block of
    R, and no N x N factor is ever formed.  When a degree's generators are
    found, their multiples for every later degree are written by one indexed
    assignment, through the positions of the monomials d + m in the graded
    order; each later degree reads a slice of them.

    Once the columns of degree <= D reach rank N, the number of points, the
    ideal's homogenization has regularity at most D + 1, so it is generated
    in degrees <= D + 1 and the search stops there.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    _check_tolerance(tol_ideal)
    n = code.modes
    n_cols = count_multi_indices(n, max_degree)
    if n_cols > IDEAL_COLUMN_BUDGET:
        raise BudgetExceededError(
            f"monomial enumeration needs {n_cols} columns, budget is {IDEAL_COLUMN_BUDGET}")
    table = _index_table(n, max_degree)
    ends = np.searchsorted(table.sum(axis=1), np.arange(max_degree + 1), side="right")
    V = monomial_values(code.point_array, table)
    scales = np.max(np.abs(V), axis=0)
    scales[scales == 0.0] = 1.0
    V /= scales[None, :]
    R = np.linalg.qr(V, mode="r")
    found: list[np.ndarray] = []   # each degree's generators, as coefficient rows
    multiples: list[tuple[int, np.ndarray]] = []   # (degree, _multiples of its generators)
    last = max_degree
    for degree in range(1, max_degree + 1):
        if degree > last:
            break
        cols = ends[degree]
        _, sigma, Vh = np.linalg.svd(R[:min(len(V), cols), :cols])
        rank = int(np.sum(sigma > tol_ideal * sigma[0]))
        if rank == len(V):
            last = min(last, degree + 1)
        null = np.conj(Vh[rank:])  # V y = 0
        if multiples and len(null):
            # keep the null directions orthogonal to every multiple z^m g
            A = np.vstack([rows[:, :ends[degree - g_degree], :cols].reshape(-1, cols)
                           for g_degree, rows in multiples])
            _, s, Wh = np.linalg.svd(A @ null.conj().T)
            null = Wh[int(np.sum(s > tol_ideal * s[0])):] @ null
        if not len(null):
            continue
        coeffs = np.zeros((len(null), len(table)), dtype=np.complex128)
        coeffs[:, :cols] = null / scales[:cols]
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        coeffs[np.abs(coeffs) <= 1e-14 * np.max(np.abs(coeffs), axis=1, keepdims=True)] = 0.0
        found.append(coeffs)
        if degree < last:
            multiples.append((degree, _multiples(coeffs, table, ends[last - degree],
                                                 cols, scales)))
    monomials = list(map(tuple, table.tolist()))
    return [VanishingPolynomial({monomials[j]: complex(c[j]) for j in np.flatnonzero(c)},
                                max_degree) for gens in found for c in gens]


def _multiples(coeffs: np.ndarray, table: np.ndarray, shifts: int, width: int,
               scales: np.ndarray) -> np.ndarray:
    """Unit rows [g, s] = z^m g, with m the exponent row s < ``shifts`` of
    ``table``, over its scaled columns, for the generators g of one degree:
    coefficient rows over the columns of ``table``, zero beyond ``width``.
    Every d + m lies in the table, and one indexed assignment writes them all.
    """
    position = _index_position(table[None, :width, :] + table[:shifts, None, :])
    rows = np.zeros((len(coeffs), shifts, len(table)), dtype=np.complex128)
    rows[:, np.arange(shifts)[:, None], position] = coeffs[:, None, :width] * scales[position]
    return rows / np.linalg.norm(rows, axis=2, keepdims=True)


def verify_jump_annihilates(code: QSCode, g: VanishingPolynomial) -> float:
    """Largest |g(z)| over all constellation points.

    Zero (within tolerance) certifies that the jump operator g(a_1,...,a_n)
    annihilates every codeword, i.e. the codespace is a dark space of the
    dissipator built from g.
    """
    if g.n != code.modes:
        raise DimensionMismatchError(f"polynomial has n={g.n}, code has n={code.modes}")
    return float(np.max(np.abs(g.evaluate(code.point_array))))
