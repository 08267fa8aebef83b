"""Constellation moments, design-strength analysis and monomial evaluation.

A constellation behaves like a strength-t averaging set when its monomial
moments up to degree t match the uniform-sphere averages; a code additionally
wants those moments to agree across its logical constellations.  Both checks
run over all monomials z^p conj(z)^q of total degree |p|+|q| <= t on
unit-normalized points, so the outcome is independent of the sphere radius.
Every monomial is evaluated by :func:`monomial_values`, here, in :mod:`qsc.kl`
and in :mod:`qsc.symmetries`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .constellation import (BudgetExceededError, DimensionMismatchError, QSCode, QscError,
                            _block_rows)

DESIGN_TOL = 1e-9
INDEX_BUDGET = 10_000_000


def _check_tolerance(tol: float) -> None:
    """Tolerances must be finite and nonnegative: every comparison with NaN
    or a negative tolerance fails, and every one with infinity passes."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")


def _degree_table(dim: int, degree: int) -> np.ndarray:
    """The tuples of ``dim`` entries summing to ``degree``, as the rows of a
    read-only integer array in lexicographic order, built once per process
    for up to 256 tables of at most BLOCK_ENTRIES entries; a larger one is
    built on each call and never held.

    By stars and bars, each tuple is a choice of dim - 1 bar positions among
    degree + dim - 1 slots, its entries the gaps between the bars; the
    choices come in lexicographic order, and so do the tuples.
    """
    if math.comb(degree + dim - 1, dim - 1) <= _block_rows(dim):
        return _cached_degree_table(dim, degree)
    return _cached_degree_table.__wrapped__(dim, degree)


@functools.lru_cache(maxsize=256)
def _cached_degree_table(dim: int, degree: int) -> np.ndarray:
    slots = degree + dim - 1
    choices = itertools.combinations(range(slots), dim - 1)
    bars = np.empty((math.comb(slots, dim - 1), dim + 1), dtype=np.intp)
    bars[:, 0], bars[:, -1] = -1, slots
    bars[:, 1:-1] = np.fromiter(itertools.chain.from_iterable(choices),
                                dtype=np.intp).reshape(len(bars), dim - 1)
    table = bars[:, 1:] - bars[:, :-1] - 1
    table.flags.writeable = False
    return table


def _index_table(dim: int, max_degree: int) -> np.ndarray:
    """All nonnegative integer tuples of ``dim`` entries with sum <= max_degree,
    in graded lexicographic order, as the rows of one integer array."""
    return np.vstack([_degree_table(dim, d) for d in range(max_degree + 1)])


def _index_blocks(dim: int, max_degree: int, rows: int) -> Iterator[np.ndarray]:
    """The rows of :func:`_index_table` in consecutive blocks of ``rows`` rows
    (the last may be shorter), built one degree at a time: the whole table
    is never held."""
    pending = np.empty((0, dim), dtype=np.intp)
    for degree in range(max_degree + 1):
        pending = np.vstack([pending, _degree_table(dim, degree)])
        while len(pending) >= rows:
            yield pending[:rows]
            pending = pending[rows:]
    if len(pending):
        yield pending


def _index_position(rows: np.ndarray) -> np.ndarray:
    """Position of each exponent row (last axis) in :func:`_index_table`,
    whose order is graded, so the position does not depend on its max_degree.

    A row e of degree d follows the comb(d - 1 + n, n) rows of lower degree
    and, among those of degree d, the tuples that first fall below e at some
    entry i: comb(r + k, k) - comb(r - e_i + k, k) of them, with r the degree
    left from entry i on and k = n - 1 - i the entries after it.
    """
    n = rows.shape[-1]
    degree = rows.sum(axis=-1)
    top = int(degree.max(initial=0))
    comb = np.array([[math.comb(r + k, k) for k in range(n + 1)] for r in range(top + 1)],
                    dtype=np.intp)   # comb[r, k] = C(r + k, k) <= C(top + n, n)
    left = degree[..., None] - np.cumsum(rows, axis=-1) + rows
    after = np.arange(n - 1, -1, -1)
    below = np.where(degree > 0, comb[degree - 1, n], 0)
    return below + np.sum(comb[left, after] - comb[left - rows, after], axis=-1)


def count_multi_indices(dim: int, max_degree: int) -> int:
    return math.comb(max_degree + dim, dim)


def _exponents(rows) -> np.ndarray:
    """``rows`` as an integer array; a negative or fractional entry is refused."""
    with np.errstate(invalid="ignore"):   # NaN or inf casts to an integer unequal to it
        e = np.asarray(rows).astype(np.intp, copy=False)
    if np.any(e < 0) or not np.array_equal(e, rows):
        raise ValueError("exponents must be nonnegative integers")
    return e


def monomial_values(Z: np.ndarray, exponents) -> np.ndarray:
    """Values prod_i Z[k, i]^e[j, i] of the monomials e = exponents at the
    points Z, (N, M) for (N, n) points and (M, n) exponent rows.  Powers come
    from a table built by repeated multiplication and multiply in mode by mode.
    """
    e = _exponents(exponents)
    if e.ndim != 2 or e.shape[1] != Z.shape[1]:
        raise DimensionMismatchError(f"exponent rows {e.shape} do not fit {Z.shape[1]} modes")
    table = np.ones((Z.shape[1], int(e.max(initial=0)) + 1, Z.shape[0]), dtype=np.complex128)
    for k in range(1, table.shape[1]):
        table[:, k] = table[:, k - 1] * Z.T
    out = np.ones((e.shape[0], Z.shape[0]), dtype=np.complex128)
    for i in range(Z.shape[1]):
        out *= table[i, e[:, i]]
    return out.T


def _moment_values(z: np.ndarray, p, q) -> np.ndarray:
    """Values of z^p conj(z)^q at the rows of z, (N, M) for (M, n) rows p and q:
    one monomial in the interleaved columns (z_1, conj z_1, z_2, ...)."""
    columns = np.stack([z, np.conj(z)], axis=-1).reshape(len(z), -1)
    return monomial_values(columns, np.stack([p, q], axis=-1).reshape(len(p), -1))


def sphere_average(p, q, n: int) -> np.ndarray:
    """Averages of z^p conj(z)^q over the uniform unit sphere in C^n, (M,)
    for (M, n) exponent rows p and q.

    Zero unless p == q componentwise; otherwise
    prod_i p_i! * (n-1)! / (n-1+|p|)!, a ratio of Python integers rounded
    once: no factorial becomes a float, so none overflows at any degree, and
    the average (at most 1) is the nearest float.  Checked against Monte Carlo
    sampling and a loop oracle in the test suite.
    """
    p, q = _exponents(p), _exponents(q)
    if n < 1 or p.ndim != 2 or p.shape != q.shape or p.shape[1] != n:
        raise DimensionMismatchError(f"exponent rows {p.shape} and {q.shape} do not fit {n} modes")
    rows = np.flatnonzero(np.all(p == q, axis=1))
    diagonal = p[rows].tolist()
    top = n - 1 + max(map(sum, diagonal), default=0)
    factorial = list(itertools.accumulate(range(1, top + 1), operator.mul, initial=1))
    out = np.zeros(len(p), dtype=np.complex128)
    out[rows] = [math.prod(factorial[e] for e in row) * factorial[n - 1]
                 / factorial[n - 1 + sum(row)] for row in diagonal]
    return out


@dataclass(frozen=True)
class DesignReport:
    """Design strengths of a code and the worst residual seen at each degree."""

    sphere_strength: int
    matching_strength: int
    sphere_residual_per_degree: dict[int, float]
    match_residual_per_degree: dict[int, float]
    t_max: int
    tol: float

    def rows(self) -> list[tuple[int, float, float]]:
        return [(d, self.sphere_residual_per_degree[d], self.match_residual_per_degree[d])
                for d in sorted(self.sphere_residual_per_degree)]


def design_strength(code: QSCode, t_max: int, tol: float = DESIGN_TOL) -> DesignReport:
    """Largest strengths t such that all moments of degree <= t pass.

    ``sphere_strength``: every constellation matches the uniform-sphere
    average within ``tol``.  ``matching_strength``: the constellations agree
    with each other within ``tol`` (max pairwise spread).  Residual maps
    record the worst deviation at each exact degree.
    """
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    _check_tolerance(tol)
    n = code.modes
    n_indices = count_multi_indices(2 * n, t_max)
    if n_indices > INDEX_BUDGET:
        raise BudgetExceededError(
            f"moment enumeration needs {n_indices} indices, budget is {INDEX_BUDGET}")

    norms = np.linalg.norm(code.point_array, axis=1, keepdims=True)
    if not np.all(norms):   # no direction: raise rather than give NaN
        g = int(np.argmin(norms))
        raise QscError(f"point {code.index_in_codeword[g]} of codeword "
                       f"'{code.labels[code.codeword_index[g]]}' lies at the origin, where "
                       "the moments of unit-normalized points are undefined")
    z = code.point_array / norms
    sizes = code.codeword_sizes
    block = _block_rows(max(len(z), code.K))
    sphere_res, match_res = np.zeros((2, t_max + 1))
    # values[mu, j]: the average of block column j over codeword mu's points
    for combined in _index_blocks(2 * n, t_max, block):
        p, q = combined[:, :n], combined[:, n:]
        vals = _moment_values(z, p, q)
        # in row order, so that the codeword sums reshape without a copy and
        # the residuals below read contiguous rows
        values = code._block_sums(np.ascontiguousarray(vals), 0) / sizes[:, None]
        target = sphere_average(p, q, n)
        degree = combined.sum(axis=1)
        np.maximum.at(sphere_res, degree, np.max(np.abs(values - target), axis=0))
        # the spread |values[mu] - values[nu]| over each pair mu < nu once
        np.maximum.at(match_res, degree, np.max(
            [np.max(np.abs(values[mu + 1:] - values[mu]), axis=0) for mu in range(code.K - 1)],
            axis=0, initial=0.0))

    def largest_passing(res: np.ndarray) -> int:
        failing = np.flatnonzero(~(res <= tol))
        return int(failing[0]) - 1 if len(failing) else t_max

    return DesignReport(
        sphere_strength=largest_passing(sphere_res),
        matching_strength=largest_passing(match_res),
        sphere_residual_per_degree=dict(enumerate(sphere_res.tolist())),
        match_residual_per_degree=dict(enumerate(match_res.tolist())),
        t_max=t_max,
        tol=tol,
    )
