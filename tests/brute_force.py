"""Independent brute-force oracles used to freeze expected test values.

The moment, overlap, KL and geometry oracles are written from first
principles with plain Python loops and cmath, on purpose: no power tables, no
vectorization, no reuse of the package's enumeration helpers.  The phase
symmetry oracle classifies every candidate rotation of order <= max_order on
its own, through a full distance table per candidate; on binary CSS codes a
second one reads the symmetries off the words, as the translations that map
the word set onto itself.  The loop versions of the
package's array kernels live here too: the recursive monomial enumeration,
the per-degree full-SVD vanishing ideal with term-by-term multiples, and the
600-cell built vertex by vertex.  Each catalog vertex set is checked as the
orbit of one of its points under the entry's documented symmetry
generators, closed point by point here, and the closed-form sphere
averages against a Monte Carlo estimate.  The JSON writer oracle
formats every coordinate on its own, point by point.  The Fock embedding
oracle builds each point's state from one coherent-state recursion per mode
and Kronecker products, point by point.  The KL and channel oracles at the
end work in a truncated Fock space with numpy, on the package's codeword
embedding, and take different routes to their results than the package
does.  Results from these functions are the source of the expected values
asserted in the test suite.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from functools import reduce
from itertools import permutations, product

import numpy as np

from qsc.constellation import QscError
from qsc.fock import TAIL_TOL, TruncationError, embed_codewords
from qsc.symmetries import PhaseSymmetries


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


# Samples per batch of monte_carlo_sphere_average: its (batch, n) complex
# draws take 1.6 MB per mode.
MC_BATCH = 100_000


def monte_carlo_sphere_average(p: tuple[int, ...], q: tuple[int, ...], n: int,
                               samples: int, seed: int) -> tuple[complex, float]:
    """Estimate the uniform-sphere average of z^p conj(z)^q from normalized
    Gaussian samples, drawn in batches of MC_BATCH.  Returns (estimate,
    standard error of the estimate); the standard error combines the real and
    imaginary component variances."""
    rng = np.random.default_rng(seed)
    total, total_sq, done = 0j, 0.0, 0
    while done < samples:
        m = min(MC_BATCH, samples - done)
        g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        z = g / np.linalg.norm(g, axis=1, keepdims=True)
        vals = np.prod(z ** np.array(p) * np.conj(z) ** np.array(q), axis=1)
        total += vals.sum()
        total_sq += np.sum(np.abs(vals) ** 2)
        done += m
    mean = total / samples
    return complex(mean), math.sqrt(max(total_sq / samples - abs(mean) ** 2, 0.0) / samples)


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


def brute_phase_symmetries(code, max_order: int) -> PhaseSymmetries:
    """Every phase candidate diag(exp(2 pi i k/m)) at its lowest order
    m <= max_order, classified on its own with no prefilter: every image is
    matched to its nearest point through a full distance table, within
    1e-9 sqrt(E), and the codeword map is read from sets; the first candidate
    of each point permutation is kept."""
    points, index = code.point_array, code.codeword_index.tolist()
    tol = 1e-9 * math.sqrt(code.radius_sq)
    found, seen = [], set()
    for m in range(1, max_order + 1):
        for ks in product(range(m), repeat=code.modes):
            if math.gcd(m, *ks) != 1:
                continue
            phases = [2.0 * math.pi * k / m for k in ks]
            images = points * np.exp(1j * np.array(phases))
            dist = np.sqrt(np.sum(np.abs(images[:, None, :] - points[None, :, :]) ** 2, axis=2))
            nearest = dist.argmin(axis=1).tolist()
            if dist[np.arange(len(points)), nearest].max() > tol or \
                    len(set(nearest)) != len(points):
                continue
            lands: dict[int, set] = {}
            for g, h in enumerate(nearest):
                lands.setdefault(index[g], set()).add(index[h])
            if any(len(nus) != 1 for nus in lands.values()):
                continue
            pi = [min(lands[mu]) for mu in range(code.K)]
            if len(set(pi)) != code.K or tuple(nearest) in seen:
                continue
            seen.add(tuple(nearest))
            found.append((ks, m, nearest, pi, pi == list(range(code.K))))
    return _columns(code, found)


def _columns(code, found: list) -> PhaseSymmetries:
    """PhaseSymmetries from (numerators, order, targets, codeword permutation,
    Z-type) tuples, one per action."""
    columns = [list(column) for column in zip(*found)] or [[]] * 5
    return PhaseSymmetries(np.array(columns[0], dtype=np.int64).reshape(-1, code.modes),
                           np.array(columns[1], dtype=np.int64),
                           np.array(columns[2], dtype=np.intp).reshape(-1, len(code.point_array)),
                           np.array(columns[3], dtype=np.intp).reshape(-1, code.K),
                           np.array(columns[4], dtype=bool))


def brute_least_denominator(lo: float, hi: float, limit: int) -> tuple[int, int]:
    """The fraction k/m in [lo, hi] of least denominator m <= limit, as
    (k mod m, m), or (0, 0) when there is none: every m tried in turn, in
    exact rational arithmetic."""
    lo, hi = Fraction(lo), Fraction(hi)
    for m in range(1, limit + 1):
        k = math.ceil(lo * m)
        if k <= hi * m:
            return k % m, m
    return 0, 0


def brute_binary_css_translations(code, gen_x: list) -> PhaseSymmetries:
    """The phase symmetries of a compiled q = 2 CSS code whose points are
    (alpha (-1)^{b_1}, ..., alpha (-1)^{b_n}) with alpha > 0, from its words:
    every translation b -> b + y of F_2^n that maps the word set onto itself
    is the rotation by pi y, of order 2 (1 for y = 0), and it is Z-type iff
    y lies in the span of ``gen_x``.  The words are read off the signs of the
    points, and each codeword's image found by plain loops."""
    words = [tuple(int(z.real < 0) for z in point) for point in code.point_array.tolist()]
    point_of = {w: g for g, w in enumerate(words)}
    index = code.codeword_index.tolist()
    span = set()
    for coefficients in product((0, 1), repeat=len(gen_x)):
        span.add(tuple(sum(c * row[i] for c, row in zip(coefficients, gen_x)) % 2
                       for i in range(code.modes)))
    found = []
    for y in product((0, 1), repeat=code.modes):
        moved = [tuple((a + b) % 2 for a, b in zip(w, y)) for w in words]
        if set(moved) != set(words):
            continue
        targets = [point_of[w] for w in moved]
        pi = [index[targets[start]] for start in code.codeword_starts.tolist()]
        found.append((list(y), 2 if any(y) else 1, targets, pi, y in span))
    return _columns(code, found)


def brute_multi_indices(dim: int, max_degree: int):
    """All nonnegative integer tuples with sum <= max_degree, graded lex
    order: each degree's compositions built recursively, then sorted."""
    def compositions(total: int, slots: int):
        if slots == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, slots - 1):
                yield (head,) + rest

    for degree in range(max_degree + 1):
        yield from sorted(compositions(degree, dim))


def brute_vanishing_ideal(code, max_degree: int, tol_ideal: float = 1e-8) -> list:
    """Vanishing-ideal generators as (degree, {exponents: coefficient}), degree
    by degree: a full SVD of each degree's scaled evaluation columns (plain
    powers), the multiples z^m g built term by term, and the null directions
    orthogonal to them kept.  Every degree up to max_degree is searched, with
    no early stop."""
    n = code.modes
    monomials = list(brute_multi_indices(n, max_degree))
    position = {d: j for j, d in enumerate(monomials)}
    points = [p for c in code.codewords for p in c]
    V = np.array([[np.prod(z ** np.array(d)) for d in monomials] for z in points])
    scales = np.max(np.abs(V), axis=0)
    scales[scales == 0.0] = 1.0
    V /= scales[None, :]
    generators = []   # (degree, coefficients)
    for degree in range(1, max_degree + 1):
        cols = sum(1 for d in monomials if sum(d) <= degree)
        _, sigma, Vh = np.linalg.svd(V[:, :cols], full_matrices=True)
        null = np.conj(Vh[int(np.sum(sigma > tol_ideal * sigma[0])):])
        multiples = []
        for g_degree, coeffs in generators:
            for m in brute_multi_indices(n, degree - g_degree):
                y = np.zeros(cols, dtype=np.complex128)
                for j in np.flatnonzero(coeffs):
                    k = position[tuple(a + b for a, b in zip(monomials[j], m))]
                    y[k] = coeffs[j] * scales[k]
                multiples.append(y / np.linalg.norm(y))
        if multiples and len(null):
            _, s, Wh = np.linalg.svd(np.array(multiples) @ null.conj().T)
            null = Wh[int(np.sum(s > tol_ideal * s[0])):] @ null
        for y in null:
            coeffs = np.zeros(len(monomials), dtype=np.complex128)
            coeffs[:cols] = y / scales[:cols]
            coeffs /= np.linalg.norm(coeffs)
            coeffs[np.abs(coeffs) <= 1e-14 * np.max(np.abs(coeffs))] = 0.0
            generators.append((degree, coeffs))
    return [(degree, {monomials[j]: complex(c[j]) for j in np.flatnonzero(c)})
            for degree, c in generators]


GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _quaternion_product(p, q) -> np.ndarray:
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return np.array([
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    ])


def brute_binary_tetrahedral_group() -> list[np.ndarray]:
    """The 24 unit quaternions {+-1,+-i,+-j,+-k, (+-1+-i+-j+-k)/2}, one by one."""
    elements = []
    for axis in range(4):
        for sign in (1.0, -1.0):
            v = np.zeros(4)
            v[axis] = sign
            elements.append(v)
    for signs in product((0.5, -0.5), repeat=4):
        elements.append(np.array(signs))
    return elements


def brute_cell600_vertices() -> np.ndarray:
    """The 120 icosians: the binary tetrahedral group, then every even
    permutation of every signed (phi, 1, 1/phi, 0)/2, repeats skipped."""
    vertices = brute_binary_tetrahedral_group()
    base = np.array([GOLDEN / 2.0, 0.5, 1.0 / (2.0 * GOLDEN), 0.0])
    even_perms = [p for p in permutations(range(4))
                  if sum(1 for a in range(4) for b in range(a + 1, 4) if p[a] > p[b]) % 2 == 0]
    seen = set()
    for perm in even_perms:
        for signs in product((1.0, -1.0), repeat=4):
            v = np.array([signs[k] * base[k] for k in range(4)])[list(perm)]
            key = tuple(np.round(v, 12))
            if key not in seen:
                seen.add(key)
                vertices.append(v)
    return np.array(vertices)


def brute_cell600_cosets(vertices: np.ndarray) -> np.ndarray:
    """The left coset of the binary tetrahedral group holding each vertex,
    numbered in order of first appearance, found one product at a time."""
    assigned = np.full(len(vertices), -1)
    coset = 0
    for start in range(len(vertices)):
        if assigned[start] >= 0:
            continue
        for t in brute_binary_tetrahedral_group():
            dist = np.linalg.norm(vertices - _quaternion_product(vertices[start], t), axis=1)
            assigned[int(np.argmin(dist))] = coset
        coset += 1
    return assigned


def _right_multiplication_unitary(q) -> np.ndarray:
    """Right quaternion multiplication as a 2x2 unitary on (x1+ix2, x3+ix4).

    Writing a quaternion as z1 + z2*j, right multiplication by w + v*j acts
    C-linearly: (z1, z2) -> (z1*w - z2*conj(v), z1*v + z2*conj(w)).
    """
    w = complex(q[0], q[1])
    v = complex(q[2], q[3])
    return np.array([[w, -np.conj(v)], [v, np.conj(w)]])


def _rotations_and_permutations(n: int, angle: float, perms=None) -> list[np.ndarray]:
    """The n single-mode phase rotations by ``angle``, then the mode
    permutations ``perms`` (row k of each is e_{perm[k]}); adjacent mode swaps
    when ``perms`` is None."""
    if perms is None:
        perms = [tuple(range(j)) + (j + 1, j) + tuple(range(j + 2, n)) for j in range(n - 1)]
    gens = [np.diag([cmath.exp(1j * angle) if i == j else 1.0 for i in range(n)])
            for j in range(n)]
    return gens + [np.eye(n, dtype=np.complex128)[list(p)] for p in perms]


def symmetry_generators(name: str, **options) -> list[np.ndarray]:
    """Documented symmetry generators of a catalog entry, as matrices acting
    on the points z -> U z, whose closure reproduces its vertex set."""
    if name == "cat":
        S, K = options.get("S", 2), options.get("K", 2)
        return [np.array([[cmath.exp(2j * math.pi / (S * K))]])]
    if name in ("hypercube", "orthoplex"):
        return _rotations_and_permutations(options.get("n", 2), math.pi / 2.0)
    if name == "cell24":
        # right multiplication by i, by j and by (1+i+j+k)/2
        quats = [(0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.5, 0.5, 0.5, 0.5)]
        return [_right_multiplication_unitary(q) for q in quats]
    if name == "cell600":
        quats = [(-0.5, 0.5, 0.5, 0.5), (0.0, 0.5, GOLDEN / 2.0, 1.0 / (2.0 * GOLDEN))]
        return [_right_multiplication_unitary(q) for q in quats]
    if name in ("gamma", "beta"):
        return _rotations_and_permutations(options.get("n", 2),
                                           2.0 * math.pi / options.get("q", 3))
    if name == "hessian":
        # the cyclic mode shift (z1, z2, z3) -> (z3, z1, z2)
        return _rotations_and_permutations(3, 2.0 * math.pi / 3.0, [(2, 0, 1)])
    raise ValueError(f"no symmetry generators for {name!r}")


class OrbitOverflowError(QscError):
    """Group closure exceeded the requested maximum size."""


def orbit(seed, generators: list[np.ndarray], max_size: int) -> np.ndarray:
    """The closure of a seed point under matrices z -> U z, as rows: breadth
    first, an image new when it lies more than 1e-9 from every point found
    so far.  Raises OrbitOverflowError as soon as it grows past ``max_size``,
    and QscError when a generator moves the seed off its sphere."""
    found = [np.asarray(seed, dtype=np.complex128)]
    frontier = list(found)
    while frontier:
        new_frontier = []
        for p in frontier:
            for g in generators:
                image = g @ p
                if abs(np.linalg.norm(image) - np.linalg.norm(found[0])) > 1e-9:
                    raise QscError("generator failed to preserve the sphere radius")
                if all(np.linalg.norm(image - r) > 1e-9 for r in found):
                    if len(found) == max_size:
                        raise OrbitOverflowError(f"orbit closure exceeded max_size={max_size}")
                    found.append(image)
                    new_frontier.append(image)
        frontier = new_frontier
    return np.array(found)


def brute_violations(radius_sq: float, labels: list[str],
                     constellations: list[list[list[complex]]],
                     tol_sphere: float = 1e-9, tol_point: float = 1e-9) -> list[tuple]:
    """The code invariant checks as pair loops, one point pair at a time.

    Returns (kind, label, i, other_label, j, residual) tuples in the order
    codeword by codeword (sphere, then duplicate), then disjointness by
    (mu, nu, i, j).  Both tolerances are in units of the radius: a point is
    off the sphere when | |z|^2 - E | exceeds tol_sphere E, widened as in the
    package by 16 (n + 1) eps E, the rounding that |z|^2 of a point built on
    the sphere may carry; two points coincide within tol_point sqrt(E).
    """
    def distance(z, w):
        return math.sqrt(sum(abs(zi - wi) ** 2 for zi, wi in zip(z, w)))

    out = []
    reach = tol_point * math.sqrt(radius_sq)
    for label, points in zip(labels, constellations):
        for i, z in enumerate(points):
            res = abs(sum(abs(zi) ** 2 for zi in z) - radius_sq)
            if res > tol_sphere * radius_sq + 16 * (len(z) + 1) * np.finfo(float).eps * radius_sq:
                out.append(("sphere", label, i, None, None, res))
        for i in range(len(points)):
            for j in range(i):
                d = distance(points[i], points[j])
                if d <= reach:
                    out.append(("duplicate", label, i, None, j, d))
    for mu in range(len(constellations)):
        for nu in range(mu + 1, len(constellations)):
            for i, z in enumerate(constellations[mu]):
                for j, w in enumerate(constellations[nu]):
                    d = distance(z, w)
                    if d <= reach:
                        out.append(("disjoint", labels[mu], i, labels[nu], j, d))
    return out


def brute_pairs_within(A, B, tol: float) -> list[tuple[int, int, float]]:
    """Every pair (i, j) of a row of A and a row of B at distance <= tol, or
    with B None every pair i < j of rows of A, by a loop over all pairs:
    sorted (i, j, distance) tuples.  The distance sums the squared real and
    imaginary parts of the differences mode by mode, in Python floats, the
    sum the package forms, so that both give the same bits."""
    rows = [list(map(complex, a)) for a in A]
    others = rows if B is None else [list(map(complex, b)) for b in B]
    out = []
    for i, a in enumerate(rows):
        for j, b in enumerate(others):
            if B is None and j <= i:
                continue
            sq = 0.0
            for x, y in zip(a, b):
                re, im = x.real - y.real, x.imag - y.imag
                sq += re * re + im * im
            d = math.sqrt(sq)
            if d <= tol:
                out.append((i, j, d))
    return sorted(out)


def _json_number(x: float) -> str:
    out = format(float(x), ".17g")
    if not any(ch in out for ch in ".eE") and out.lstrip("-").isdigit():
        out += ".0"
    return out


def brute_code_to_json(code) -> str:
    """The interchange document, formatted coordinate by coordinate from
    each point row of each codeword."""
    lines = ["{"]
    lines.append(f'  "modes": {code.modes},')
    lines.append(f'  "radius_sq": {_json_number(code.radius_sq)},')
    lines.append('  "codewords": [')
    for ci, (label, points) in enumerate(zip(code.labels, code.codewords)):
        lines.append("    {")
        lines.append(f'      "label": {json.dumps(label)},')
        lines.append('      "points": [')
        for pi, p in enumerate(points):
            entries = ", ".join(f"[{_json_number(z.real)}, {_json_number(z.imag)}]"
                                for z in p)
            comma = "," if pi < len(points) - 1 else ""
            lines.append(f"        [{entries}]{comma}")
        lines.append("      ]")
        lines.append("    }" + ("," if ci < len(code.codewords) - 1 else ""))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Fock embedding oracle: one point and one mode at a time
# ---------------------------------------------------------------------------

def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Number-basis amplitudes e^{-|a|^2/2} a^k / sqrt(k!) up to the cutoff."""
    out = np.zeros(cutoff, dtype=np.complex128)
    out[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for k in range(1, cutoff):
        out[k] = out[k - 1] * alpha / math.sqrt(k)
    return out


def _point_vector(amplitudes: np.ndarray, cfg) -> np.ndarray:
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


def codeword_vector(c, cfg, normalized: bool = True) -> np.ndarray:
    """Embed sum_z |z> for one codeword's (m, n) point rows; optionally
    unit-normalize."""
    vec = np.zeros(cfg.dim, dtype=np.complex128)
    for amplitudes in c:
        vec += _point_vector(amplitudes, cfg)
    if normalized:
        vec = vec / np.linalg.norm(vec)
    return vec


# ---------------------------------------------------------------------------
# KL oracle: truncated Fock space, numpy
# ---------------------------------------------------------------------------

def annihilation(cutoff: int) -> np.ndarray:
    a = np.zeros((cutoff, cutoff))
    for k in range(1, cutoff):
        a[k - 1, k] = math.sqrt(k)
    return a


def _apply_mode_operator(tensor: np.ndarray, op: np.ndarray, axis: int) -> np.ndarray:
    moved = np.tensordot(op, tensor, axes=([1], [axis]))
    return np.moveaxis(moved, 0, axis)


def apply_monomial(vec: np.ndarray, e, cfg) -> np.ndarray:
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


def kl_matrix_fock(code, e, cfg) -> np.ndarray:
    """The KL matrix of monomial error ``e`` by direct truncated matrix algebra
    on the embedded codewords."""
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
# Channel-fidelity oracles: truncated Fock space, numpy
# ---------------------------------------------------------------------------
#
# The package computes loss exactly in the coherent frame and dephasing with
# the exact Kraus operators of its multiplier.  These oracles take the other
# routes: loss by the truncated Kraus operators sqrt(gamma^k/k!) eta^(n/2) a^k
# on embedded codewords, dephasing by Gauss-Hermite quadrature of the random
# phase, each followed by the transpose-channel recovery formula applied to
# the corrupted vectors themselves.

KRAUS_NORM_FLOOR = 1e-12
WEIGHT_FLOOR = 1e-16
COMPLETENESS_TOL = 1e-8


def fock_orthonormal_codewords(code, cfg):
    """Embedded codewords, symmetrically orthogonalized when overlaps are visible."""
    psis = np.array(embed_codewords(code, cfg))
    gram = psis.conj() @ psis.T
    K = gram.shape[0]
    if np.max(np.abs(gram - np.eye(K))) <= 1e-12:
        return psis
    vals, vecs = np.linalg.eigh(gram)
    assert np.min(vals) > 1e-12, "codewords are numerically linearly dependent"
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return inv_sqrt.T @ psis


def recovery_fidelity_from_vectors(corrupted):
    """Transpose-recovery entanglement fidelity from ``corrupted[j, mu]`` =
    E_j |codeword_mu>: with H the (pseudo) square root of the Gram matrix of
    the corrupted vectors, F = (1/K^2) sum_{j,k} |sum_mu H[(j,mu),(k,mu)]|^2."""
    J, K, _ = corrupted.shape
    V = corrupted.reshape(J * K, -1)
    G = V.conj() @ V.T
    vals, vecs = np.linalg.eigh(G)
    floor = max(float(vals.max()), 0.0) * 1e-14
    keep = vals > floor
    H = (vecs[:, keep] * np.sqrt(vals[keep])) @ vecs[:, keep].conj().T
    T = np.einsum("jaka->jk", H.reshape(J, K, J, K))
    return float(np.sum(np.abs(T) ** 2)) / K ** 2


def loss_kraus_per_mode(gamma, cutoff):
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
        norms.append(math.sqrt(diag.max()) if diag.size else 0.0)
        coeff = math.exp(0.5 * log_coeff) if log_coeff > -700 else 0.0
        damp = np.power(eta, m / 2.0) if eta > 0 else (m == 0).astype(float)
        ops.append(coeff * (damp[:, None] * a_pow))
    k_max = 0
    for k, norm in enumerate(norms):
        if norm >= KRAUS_NORM_FLOOR:
            k_max = k
    return ops[:k_max + 1]


def completeness_deviation(per_mode_devs):
    acc = np.ones(1)
    for dev in per_mode_devs:
        acc = np.outer(acc, 1.0 + dev).ravel()
    return float(np.max(np.abs(acc - 1.0)))


def corrupted_vectors(ortho, kraus_per_mode, cfg):
    """Apply every Kraus combination (lexicographic order) to every codeword."""
    K = ortho.shape[0]
    combos = list(product(*[range(len(k)) for k in kraus_per_mode]))
    out = np.zeros((len(combos), K, cfg.dim), dtype=np.complex128)
    for mu in range(K):
        tensor = ortho[mu].reshape((cfg.cutoff,) * cfg.modes)
        for ci, combo in enumerate(combos):
            t = tensor
            for axis, k in enumerate(combo):
                t = _apply_mode_operator(t, kraus_per_mode[axis][k], axis)
            out[ci, mu] = t.reshape(cfg.dim)
    return out


def fock_loss_fidelity(code, gamma, cfg):
    """Loss fidelity from the truncated Fock Kraus operators on the modes of cfg."""
    ortho = fock_orthonormal_codewords(code, cfg)
    per_mode = [loss_kraus_per_mode(gamma, cfg.cutoff) for _ in range(cfg.modes)]
    devs = [np.sum([np.diag(op.conj().T @ op).real for op in ops], axis=0) - 1.0
            for ops in per_mode]
    deviation = completeness_deviation(devs)
    assert deviation <= COMPLETENESS_TOL, f"Kraus completeness deviates by {deviation:.3e}"
    return recovery_fidelity_from_vectors(corrupted_vectors(ortho, per_mode, cfg))


def _dephasing_phases(sigma, nodes):
    """Gauss-Hermite discretization of Gaussian phase noise: (theta, weight)."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    thetas = math.sqrt(2.0) * sigma * x
    weights = w / math.sqrt(math.pi)
    return [(float(t), float(wt)) for t, wt in zip(thetas, weights)]


def _combo_weight(per_mode, combo):
    weight = 1.0
    for axis, li in enumerate(combo):
        weight *= per_mode[axis][li][1]
    return weight


def _dephasing_fidelity_at(code_ortho, sigma, nodes, cfg):
    per_mode = [_dephasing_phases(sigma, nodes) for _ in range(cfg.modes)]
    m = np.arange(cfg.cutoff)
    K = code_ortho.shape[0]
    # drop negligible-probability phase combinations; the discarded mass is
    # bounded by nodes^modes * WEIGHT_FLOOR, far below the quadrature check
    combos = [combo for combo in product(*[range(len(p)) for p in per_mode])
              if _combo_weight(per_mode, combo) > WEIGHT_FLOOR]
    kept_mass = 0.0
    vectors = np.zeros((len(combos), K, cfg.dim), dtype=np.complex128)
    for ci, combo in enumerate(combos):
        weight = _combo_weight(per_mode, combo)
        phase_factors = [np.exp(1j * per_mode[axis][li][0] * m) for axis, li in enumerate(combo)]
        kept_mass += weight
        phases = phase_factors[0]
        for factor in phase_factors[1:]:
            phases = np.kron(phases, factor)
        vectors[ci] = math.sqrt(weight) * code_ortho * phases[None, :]
    assert abs(kept_mass - 1.0) <= COMPLETENESS_TOL, f"quadrature mass {kept_mass}"
    return recovery_fidelity_from_vectors(vectors)


def quadrature_dephasing_fidelity(code, sigma, cfg, nodes=32, check_convergence=True):
    """Dephasing fidelity with the Gaussian phase average discretized by
    Gauss-Hermite quadrature; with ``check_convergence`` the node count is
    doubled, the two answers must agree to 1e-9 and the refined one is returned."""
    ortho = fock_orthonormal_codewords(code, cfg)
    value = _dephasing_fidelity_at(ortho, sigma, nodes, cfg)
    if check_convergence:
        refined = _dephasing_fidelity_at(ortho, sigma, 2 * nodes, cfg)
        assert abs(refined - value) <= 1e-9, \
            f"{nodes} vs {2 * nodes} nodes differ by {abs(refined - value):.3e}"
        return refined
    return value
