"""Constellation moments and design-strength analysis.

A constellation behaves like a strength-t averaging set when its monomial
moments up to degree t match the uniform-sphere averages; a code additionally
wants those moments to agree across its logical constellations.  Both checks
run over all monomials z^p conj(z)^q of total degree |p|+|q| <= t on
unit-normalized points, so the outcome is independent of the sphere radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .constellation import Constellation, DimensionMismatchError, QSCode, QscError

DESIGN_TOL = 1e-9
INDEX_BUDGET = 10_000_000


class BudgetExceededError(QscError):
    """An enumeration would exceed its configured budget."""


@dataclass(frozen=True)
class MomentIndex:
    """Exponents of the monomial prod_i z_i^{p_i} conj(z_i)^{q_i}."""

    p: tuple[int, ...]
    q: tuple[int, ...]

    def __post_init__(self):
        if len(self.p) != len(self.q):
            raise DimensionMismatchError("p and q must have equal length")
        if any(e < 0 for e in self.p) or any(e < 0 for e in self.q):
            raise ValueError("exponents must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.p)

    @property
    def degree(self) -> int:
        return sum(self.p) + sum(self.q)


def multi_indices(dim: int, max_degree: int) -> Iterator[tuple[int, ...]]:
    """All nonnegative integer tuples with sum <= max_degree, graded lex order."""
    def compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, slots - 1):
                yield (head,) + rest

    for degree in range(max_degree + 1):
        yield from sorted(compositions(degree, dim))


def moment_indices(n: int, max_degree: int) -> Iterator[MomentIndex]:
    """All MomentIndex with degree <= max_degree, graded lex on (p, q)."""
    for combined in multi_indices(2 * n, max_degree):
        yield MomentIndex(combined[:n], combined[n:])


def count_multi_indices(dim: int, max_degree: int) -> int:
    return math.comb(max_degree + dim, dim)


def moment(c: Constellation, idx: MomentIndex) -> complex:
    """Average of z^p conj(z)^q over the unit-normalized constellation points."""
    if idx.n != c.n:
        raise DimensionMismatchError(f"index has n={idx.n}, constellation has n={c.n}")
    z = c.as_array()
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    vals = np.ones(len(c), dtype=np.complex128)
    for i in range(c.n):
        if idx.p[i]:
            vals *= z[:, i] ** idx.p[i]
        if idx.q[i]:
            vals *= np.conj(z[:, i]) ** idx.q[i]
    return complex(np.mean(vals))


def sphere_average(idx: MomentIndex, n: int) -> complex:
    """Average of z^p conj(z)^q over the uniform unit sphere in C^n.

    Zero unless p == q componentwise; otherwise
    prod_i p_i! * (n-1)! / (n-1+|p|)!.  Validated against Monte Carlo
    sampling in the test suite before being relied on.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if idx.n != n:
        raise DimensionMismatchError(f"index has n={idx.n}, expected {n}")
    if idx.p != idx.q:
        return 0j
    total = sum(idx.p)
    value = math.factorial(n - 1) / math.factorial(n - 1 + total)
    for e in idx.p:
        value *= math.factorial(e)
    return complex(value)


def monte_carlo_sphere_average(idx: MomentIndex, n: int, samples: int = 1_000_000,
                               seed: int = 0, batch: int = 100_000) -> tuple[complex, float]:
    """Estimate the uniform-sphere moment by sampling normalized Gaussians.

    Returns (estimate, standard error of the estimate); the standard error
    combines the real and imaginary component variances.
    """
    rng = np.random.default_rng(seed)
    total = 0j
    total_re2 = 0.0
    total_im2 = 0.0
    done = 0
    while done < samples:
        m = min(batch, samples - done)
        g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        z = g / np.linalg.norm(g, axis=1, keepdims=True)
        vals = np.ones(m, dtype=np.complex128)
        for i in range(n):
            if idx.p[i]:
                vals *= z[:, i] ** idx.p[i]
            if idx.q[i]:
                vals *= np.conj(z[:, i]) ** idx.q[i]
        total += vals.sum()
        total_re2 += np.sum(vals.real ** 2)
        total_im2 += np.sum(vals.imag ** 2)
        done += m
    mean = total / samples
    var_re = total_re2 / samples - mean.real ** 2
    var_im = total_im2 / samples - mean.imag ** 2
    se = math.sqrt(max(var_re + var_im, 0.0) / samples)
    return complex(mean), se


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


def design_strength(code: QSCode, t_max: int, tol: float = DESIGN_TOL,
                    budget: int = INDEX_BUDGET) -> DesignReport:
    """Largest strengths t such that all moments of degree <= t pass.

    ``sphere_strength``: every constellation matches the uniform-sphere
    average within ``tol``.  ``matching_strength``: the constellations agree
    with each other within ``tol`` (max pairwise spread).  Residual maps
    record the worst deviation at each exact degree.
    """
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    n = code.modes
    n_indices = count_multi_indices(2 * n, t_max)
    if n_indices > budget:
        raise BudgetExceededError(
            f"moment enumeration needs {n_indices} indices, budget is {budget}")

    # Power tables of the unit-normalized stacked points: table[k] = z^k, (N, n).
    z = code.point_array / np.linalg.norm(code.point_array, axis=1, keepdims=True)
    pow_table = np.ones((t_max + 1,) + z.shape, dtype=np.complex128)
    for k in range(1, t_max + 1):
        pow_table[k] = pow_table[k - 1] * z
    conj_table = np.conj(pow_table)
    sizes = np.array([len(c) for c in code.codewords])

    sphere_res = {d: 0.0 for d in range(t_max + 1)}
    match_res = {d: 0.0 for d in range(t_max + 1)}
    for idx in moment_indices(n, t_max):
        vals = np.ones(z.shape[0], dtype=np.complex128)
        for i in range(n):
            if idx.p[i]:
                vals = vals * pow_table[idx.p[i], :, i]
            if idx.q[i]:
                vals = vals * conj_table[idx.q[i], :, i]
        values = np.add.reduceat(vals, code.codeword_starts) / sizes
        d = idx.degree
        sphere_res[d] = max(sphere_res[d], float(np.max(np.abs(values - sphere_average(idx, n)))))
        match_res[d] = max(match_res[d], float(np.max(np.abs(values[:, None] - values[None, :]))))

    def largest_passing(res: dict[int, float]) -> int:
        t = -1
        for d in range(t_max + 1):
            if res[d] <= tol:
                t = d
            else:
                break
        return t

    return DesignReport(
        sphere_strength=largest_passing(sphere_res),
        matching_strength=largest_passing(match_res),
        sphere_residual_per_degree=sphere_res,
        match_residual_per_degree=match_res,
        t_max=t_max,
        tol=tol,
    )
