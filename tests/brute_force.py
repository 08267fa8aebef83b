"""Independent brute-force oracles used to freeze expected test values.

Everything here is written from first principles with plain Python loops and
cmath, on purpose: no power tables, no vectorization, no reuse of the
package's enumeration helpers.  Results from these functions are the source
of the expected values asserted in the test suite.
"""

from __future__ import annotations

import cmath
import math
from itertools import product


def normalize(point: list[complex]) -> list[complex]:
    norm = math.sqrt(sum(abs(z) ** 2 for z in point))
    return [z / norm for z in point]


def brute_moment(points: list[list[complex]], p: tuple[int, ...],
                 q: tuple[int, ...]) -> complex:
    total = 0j
    for point in points:
        z = normalize(point)
        term = 1 + 0j
        for i in range(len(z)):
            term *= z[i] ** p[i] * z[i].conjugate() ** q[i]
        total += term
    return total / len(points)


def brute_sphere_average(p: tuple[int, ...], q: tuple[int, ...], n: int) -> complex:
    if p != q:
        return 0j
    value = math.factorial(n - 1) / math.factorial(n - 1 + sum(p))
    for e in p:
        value *= math.factorial(e)
    return complex(value)


def all_indices(n: int, degree: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (p, q) with |p| + |q| == degree."""
    out = []
    for exps in product(range(degree + 1), repeat=2 * n):
        if sum(exps) == degree:
            out.append((exps[:n], exps[n:]))
    return out


def brute_sphere_strength(constellations: list[list[list[complex]]],
                          t_max: int, tol: float = 1e-9) -> int:
    """Largest t such that every constellation matches the sphere averages
    for every index of degree <= t."""
    n = len(constellations[0][0])
    best = -1
    for degree in range(t_max + 1):
        worst = 0.0
        for p, q in all_indices(n, degree):
            for points in constellations:
                dev = abs(brute_moment(points, p, q) - brute_sphere_average(p, q, n))
                worst = max(worst, dev)
        if worst <= tol:
            best = degree
        else:
            break
    return best


def brute_match_strength(constellations: list[list[list[complex]]],
                         t_max: int, tol: float = 1e-9) -> int:
    n = len(constellations[0][0])
    best = -1
    for degree in range(t_max + 1):
        worst = 0.0
        for p, q in all_indices(n, degree):
            vals = [brute_moment(points, p, q) for points in constellations]
            worst = max(worst, max(abs(a - b) for a in vals for b in vals))
        if worst <= tol:
            best = degree
        else:
            break
    return best


def brute_min_separation(constellations: list[list[list[complex]]]) -> float:
    best = math.inf
    for a in range(len(constellations)):
        for b in range(len(constellations)):
            if a == b:
                continue
            for z in constellations[a]:
                for w in constellations[b]:
                    d = math.sqrt(sum(abs(zi - wi) ** 2 for zi, wi in zip(z, w)))
                    best = min(best, d)
    return best


def brute_overlap(z: list[complex], w: list[complex]) -> complex:
    expo = 0j
    for zi, wi in zip(z, w):
        expo += zi.conjugate() * wi
    expo -= 0.5 * sum(abs(zi) ** 2 for zi in z)
    expo -= 0.5 * sum(abs(wi) ** 2 for wi in w)
    return cmath.exp(expo)


def brute_kl_matrix(constellations: list[list[list[complex]]],
                    r: tuple[int, ...], s: tuple[int, ...]) -> list[list[complex]]:
    norms = []
    for points in constellations:
        total = 0j
        for z in points:
            for w in points:
                total += brute_overlap(z, w)
        norms.append(total.real)
    K = len(constellations)
    out = [[0j] * K for _ in range(K)]
    for mu in range(K):
        for nu in range(K):
            total = 0j
            for z in constellations[mu]:
                for w in constellations[nu]:
                    term = brute_overlap(z, w)
                    for i in range(len(z)):
                        term *= z[i].conjugate() ** r[i] * w[i] ** s[i]
                    total += term
            out[mu][nu] = total / math.sqrt(norms[mu] * norms[nu])
    return out


def brute_violations(radius_sq: float, labels: list[str],
                     constellations: list[list[list[complex]]],
                     tol_sphere: float = 1e-9, tol_point: float = 1e-9) -> list[tuple]:
    """The code invariant checks as pair loops, one point pair at a time.

    Returns (kind, label, i, other_label, j, residual) tuples in the order
    codeword by codeword (sphere, then duplicate), then disjointness by
    (mu, nu, i, j).
    """
    def distance(z, w):
        return math.sqrt(sum(abs(zi - wi) ** 2 for zi, wi in zip(z, w)))

    out = []
    for label, points in zip(labels, constellations):
        for i, z in enumerate(points):
            res = abs(sum(abs(zi) ** 2 for zi in z) - radius_sq)
            if res > tol_sphere:
                out.append(("sphere", label, i, None, None, res))
        for i in range(len(points)):
            for j in range(i):
                d = distance(points[i], points[j])
                if d <= tol_point:
                    out.append(("duplicate", label, i, None, j, d))
    for mu in range(len(constellations)):
        for nu in range(mu + 1, len(constellations)):
            for i, z in enumerate(constellations[mu]):
                for j, w in enumerate(constellations[nu]):
                    d = distance(z, w)
                    if d <= tol_point:
                        out.append(("disjoint", labels[mu], i, labels[nu], j, d))
    return out
