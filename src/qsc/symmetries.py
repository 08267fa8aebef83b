"""Phase-rotation symmetries, their logical action, and vanishing ideals.

A passive unitary U sends coherent states to coherent states, |z> -> |Uz>, so
a U that permutes the constellation points acts exactly on the uniform
superposition codewords: it is a logical gate.  If it fixes every
constellation setwise it is Z-type (a stabilizer of the logical identity);
if it permutes the constellations it is X-type.
:func:`enumerate_phase_symmetries` finds the phase rotations
diag(exp(2 pi i k/m)) among them and returns them as the columns of a
:class:`PhaseSymmetries`.  Points match when they lie within
tol = TOL_POINT sqrt(E) of each other, TOL_POINT in units of the radius.

The candidates are read off the points.  Each mode has a pivot, the first
point of largest |z_k|.  A symmetry sends the pivot p to a point q of the
same moduli, which fixes the mode's phase to that of q_k / p_k within the
angle tol / |p_k| the tolerance allows there; a mode that is zero at every
point gets phase 0.  Each such angle is snapped to the fraction k/m of least
denominator inside it, a candidate takes one target per pivot, its order is
the lcm of its denominators, and it is kept when that is at most max_order
and each pivot's image lies near its target (so that the candidates agree on
the modes several pivots share).  The survivors are classified by
:func:`_match_images` in (order, numerators) order, a block of candidates
at a time, each block's images at most BLOCK_ENTRIES entries.

That is the result of the exhaustive search, which tries every rotation at
its least common denominator m <= max_order in that order and keeps the first
of each point permutation, wherever each mode's interval holds no fraction of
denominator <= max_order but the one an exact symmetry has there.  Two such
fractions lie at least 1/max_order^2 of a turn apart, so that holds once the
pivot coordinate exceeds about max_order^2 tol.  The work grows with the
number of points, not with the max_order^n candidates.

The vanishing ideal holds the polynomials g with g(z) = 0 at every
constellation point.  Since g(a_1,...,a_n)|z> = g(z)|z>, each such g yields a
jump operator that annihilates the whole codespace: the codespace is a dark
space of the corresponding dissipator, which is the algebraic content of
passive stabilization.  :func:`vanishing_ideal` returns it as columns, found
degree by degree in the unit-sphere variables u = z / sqrt(E), with each
degree's generators in reduced row echelon form: they depend on neither the
point order nor E, and their degrees are the minimal jump-operator degrees.
Monomials are evaluated by :func:`qsc.moments.monomial_values`, the
evaluator the moments and KL matrices share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import (TOL_POINT, BudgetExceededError, DimensionMismatchError, QSCode,
                            QscError, _block_rows, _check_entries, _pairs_within, _read_only)
from .moments import (_check_tolerance, _index_position, _index_table, count_multi_indices,
                      monomial_values)

TOL_IDEAL = 1e-8
# Share of a unit-scale quantity below which vanishing_ideal counts it as
# rounding: a column of unit-sphere monomial values, or a generator's entry.
TOL_ROUNDING = 1e-14
# Monomial columns of vanishing_ideal's evaluation matrix V, which holds N of
# them as complex: 1.6 MB per point at the budget.
IDEAL_COLUMN_BUDGET = 100_000
Z_TYPE = "Z-type"
X_TYPE = "X-type"


@dataclass(frozen=True, eq=False)
class PhaseSymmetries:
    """The phase-rotation symmetries diag(exp(2 pi i k/m)) of a code, as
    columns over S actions in (order, numerators) order: ``numerators``
    (S, n) and ``orders`` (S,) the k and m, with gcd(m, k_1, ..., k_n) = 1;
    ``targets`` (S, N), the point each point is sent to;
    ``codeword_permutations`` (S, K), the codeword each codeword is sent to;
    and ``z_type`` (S,), whether that is every codeword itself."""

    numerators: np.ndarray
    orders: np.ndarray
    targets: np.ndarray
    codeword_permutations: np.ndarray
    z_type: np.ndarray

    def __len__(self) -> int:
        return len(self.orders)

    @property
    def phases(self) -> np.ndarray:
        """The angles 2 pi k/m of each action, (S, n)."""
        return 2.0 * np.pi * self.numerators / self.orders[:, None]


def _match_images(code: QSCode, phases: np.ndarray, tol: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify the rotations diag(exp(i phases[b])), (B, n), on the code at once.

    Returns ``maps`` (B,), whether each rotation permutes the points and maps
    each codeword onto one codeword, no two onto the same; ``target`` (B, N),
    the point nearest to each image; and ``pi`` (B, K), the codeword each
    codeword's first point lands in.  ``target`` and ``pi`` are meaningful
    only where ``maps`` holds.  One pass matches every image of every point:
    it measures only the pairs of an image and a point whose projections lie
    within ``tol``, and each image's target is its nearest point among them.
    """
    points, index = code.point_array, code.codeword_index
    images = (np.exp(1j * phases)[:, None, :] * points).reshape(-1, code.modes)
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
    target = target.reshape(len(phases), -1)
    pi = index[target[:, code.codeword_starts]]
    maps = (~np.any(far.reshape(target.shape), axis=1) & _all_distinct(target)
            & np.all(index[target] == pi[:, index], axis=1) & _all_distinct(pi))
    return maps, target, pi


def _all_distinct(rows: np.ndarray) -> np.ndarray:
    """Whether the entries of each row are pairwise distinct."""
    ordered = np.sort(rows, axis=1)
    return np.all(ordered[:, 1:] != ordered[:, :-1], axis=1)


def enumerate_phase_symmetries(code: QSCode, max_order: int) -> PhaseSymmetries:
    """Every per-mode rotation diag(exp(2 pi i k/m)) with m <= max_order that
    maps the code onto itself, at its least common denominator m, with its
    action; the candidates are read off the points (see the module docstring).

    The per-pivot target counts bound the candidates: their product times
    the N x n images of each is checked against the package's one budget of
    entries before any candidate is formed.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    Z, n = code.point_array, code.modes
    tol = TOL_POINT * math.sqrt(code.radius_sq)
    limit = min(max_order, np.iinfo(np.int64).max)
    moduli = np.abs(Z)
    pivots, owner = np.unique(np.argmax(moduli, axis=0), return_inverse=True)
    # a pivot's targets are the points whose moduli lie within 2 tol of its own
    hits = np.linalg.norm(moduli - moduli[pivots][:, None, :], axis=2) <= 2.0 * tol
    # each mode's phase from its pivot to each point, in turns, within the
    # angle tol / |p_k| (half a turn, any phase, where that is wider)
    p = Z[pivots[owner], np.arange(n)]
    half = np.divide(tol, 2.0 * np.pi * np.abs(p), out=np.full(n, 0.5),
                     where=np.pi * np.abs(p) > tol)
    turns = np.angle(Z * np.conj(p)) / (2.0 * np.pi)
    snap = hits[owner].T   # the pairs of a point and a mode whose pivot may go there
    nums = np.zeros(Z.shape, dtype=np.int64)
    dens = np.zeros(Z.shape, dtype=np.int64)
    nums[snap], dens[snap] = _least_denominators((turns - half)[snap], (turns + half)[snap],
                                                 limit)
    # a target is kept when the lcm over the modes its pivot owns is small enough
    orders = np.ones(hits.shape, dtype=np.int64)
    for mode in range(n):
        orders[owner[mode]] = _lcm_within(orders[owner[mode]], dens[:, mode], limit)
    targets = [np.flatnonzero(row) for row in hits & (orders > 0)]
    candidates = math.prod(len(t) for t in targets)
    _check_entries(candidates * len(Z) * n, f"the images of {candidates} candidates")
    # every choice of one target per pivot, and the point each mode's pivot goes to
    chosen = np.stack(np.meshgrid(*targets, indexing="ij"), axis=-1).reshape(-1, len(pivots))
    ends = chosen[:, owner]
    dens, nums = dens[ends, np.arange(n)], nums[ends, np.arange(n)]
    orders = np.ones(len(chosen), dtype=np.int64)
    for mode in range(n):
        orders = _lcm_within(orders, dens[:, mode], limit)
    keep = orders > 0
    chosen, orders = chosen[keep], orders[keep]
    nums = nums[keep] * (orders[:, None] // dens[keep])
    images = np.exp(1j * (2.0 * np.pi * nums / orders[:, None]))[:, None, :] * Z[pivots]
    agree = np.all(np.linalg.norm(images - Z[chosen], axis=2) <= 2.0 * tol, axis=1)
    rows = np.unique(np.column_stack([orders[agree], nums[agree]]), axis=0)
    found = []
    for block in np.split(rows, range(0, len(rows), _block_rows(len(Z) * n))[1:]):
        orders, nums = block[:, 0], block[:, 1:]
        maps, target, pi = _match_images(code, 2.0 * np.pi * nums / orders[:, None], tol)
        found.append([a[maps] for a in (nums, orders, target, pi)])
    nums, orders, target, pi = (_read_only(np.concatenate(a)) for a in zip(*found))
    return PhaseSymmetries(nums, orders, target, pi,
                           _read_only(np.all(pi == np.arange(code.K), axis=1)))


def _least_denominators(lo: np.ndarray, hi: np.ndarray, limit: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """The fraction k/m of least denominator in each interval [lo, hi] within
    [-1, 1], as int64 arrays with 0 <= k < m, and m = 0 where that
    denominator exceeds ``limit``.

    It is read off the continued fraction the interval's ends share: while
    no integer lies in [lo, hi], its integer part a is the next term and
    [lo, hi] becomes [1/(hi - a), 1/(lo - a)]; the least integer in the
    interval is the last term.  (p, q) and (p0, q0) are the last two
    convergents, so the fraction is c/1 at once or (c p + p0)/(c q + q0).
    """
    k = np.zeros(lo.shape, dtype=np.int64)
    m = np.zeros(lo.shape, dtype=np.int64)
    live = np.arange(len(lo))
    p, q = np.ones(len(lo), dtype=np.int64), np.zeros(len(lo), dtype=np.int64)
    p0, q0 = q.copy(), p.copy()
    while len(live):
        c = np.ceil(lo)
        end = c <= hi
        done = end & (c * q + q0 <= limit)   # in floats: no int64 overflow
        c_done = c[done].astype(np.int64)
        m[live[done]] = c_done * q[done] + q0[done]
        k[live[done]] = (c_done * p[done] + p0[done]) % m[live[done]]
        # a later term c >= 1 makes the denominator at least q + q0
        a = c - 1.0
        go = ~end & (a * q + q0 + q <= limit)
        a = a[go].astype(np.int64)
        p, p0, q, q0 = a * p[go] + p0[go], p[go], a * q[go] + q0[go], q[go]
        lo, hi = 1.0 / (hi[go] - a), 1.0 / (lo[go] - a)
        live = live[go]
    return k, m


def _lcm_within(a: np.ndarray, b: np.ndarray, limit: int) -> np.ndarray:
    """lcm(a, b) of positive int64 entries where it is at most ``limit``,
    else 0 (as it is where a or b is 0)."""
    g = np.gcd(a, b)
    part = a // np.maximum(g, 1)
    ok = (a > 0) & (b > 0) & (part <= limit // np.maximum(b, 1))
    return np.where(ok, part * np.where(ok, b, 0), 0)


@dataclass(frozen=True, eq=False)
class VanishingIdeal:
    """Generators as columns: ``exponents`` (M, n) the monomials z^d of degree
    <= max_degree in graded order, ``coefficients`` (G, M) each generator's
    coefficients on them, and ``degrees`` (G,), nondecreasing."""

    exponents: np.ndarray
    coefficients: np.ndarray
    degrees: np.ndarray


def vanishing_ideal(code: QSCode, max_degree: int,
                    tol_ideal: float = TOL_IDEAL) -> VanishingIdeal:
    """Generators of the vanishing ideal up to ``max_degree``, degree by degree,
    in a form that depends on neither the order of the points nor E.

    V holds the monomials u^d of the graded table (the constant too, so that
    affine relations such as u^4 - 1 show) at the unit-sphere points
    u = z / sqrt(E), where none exceeds 1 at any E.  Each coordinate of u
    carries an absolute rounding error near machine epsilon, so a column no
    larger than TOL_ROUNDING is zero within rounding and is set to zero; each
    other is scaled by its largest magnitude, so that the rank cutoff
    tol_ideal * sigma_max weighs every monomial alike.  At each degree D the
    null space of the columns of degree <= D holds every vanishing polynomial
    of degree <= D; the directions spanned by the multiples u^m g of
    lower-degree generators g are dropped (with the same cutoff), and the
    rest, in the reduced row echelon form of :func:`_echelon`, are the new
    generators.  So the generator degrees are the minimal jump-operator
    degrees, and the multiples of the generators span the whole null space.

    Generators and multiples stay over the scaled columns, where a
    generator's entries below TOL_ROUNDING of its largest are rounding and
    set to zero.  Only the result is divided by each column's scale times
    E^(|d|/2), giving coefficients of z, each row of unit norm with its
    leading (last nonzero) coefficient real and positive.  An E at which
    E^(max_degree/2) or its inverse leaves the float range is refused before
    anything is evaluated: the coefficients of z would not fit in it.

    V is factored once, V = QR with orthonormal Q: the first c columns of V
    are Q times the first c columns of R, so each degree's singular values
    and right singular vectors come from the leading min(N, c) x c block of
    R, and no N x N factor is ever formed.  When a degree's generators are
    found, their multiples for every later degree are written by one indexed
    assignment; each later degree reads a slice of them.  Once the columns
    of degree <= D reach rank N, the number of points, the ideal's
    homogenization has regularity at most D + 1, so it is generated in
    degrees <= D + 1 and the search stops there.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    _check_tolerance(tol_ideal)
    n, energy = code.modes, code.radius_sq
    n_cols = count_multi_indices(n, max_degree)
    if n_cols > IDEAL_COLUMN_BUDGET:
        raise BudgetExceededError(
            f"monomial enumeration needs {n_cols} columns, budget is {IDEAL_COLUMN_BUDGET}")
    _check_entries(len(code.point_array) * n_cols,
                   f"the values of {n_cols} monomials at {len(code.point_array)} points")
    if energy == 0.0 or max_degree * abs(math.log(energy)) / 2 >= math.log(np.finfo(float).max):
        raise QscError(f"E = {energy:g} is out of range for the vanishing ideal to degree "
                       f"{max_degree}: E^({max_degree}/2) or its inverse leaves the float range")
    table = _index_table(n, max_degree)
    ends = np.searchsorted(table.sum(axis=1), np.arange(max_degree + 1), side="right")
    V = monomial_values(code.point_array / math.sqrt(energy), table)
    scales = np.max(np.abs(V), axis=0)
    V[:, scales <= TOL_ROUNDING] = 0.0
    scales[scales <= TOL_ROUNDING] = 1.0
    V /= scales[None, :]
    R = np.linalg.qr(V, mode="r")
    found: list[np.ndarray] = []   # each degree's generators, rows over the scaled columns
    degrees: list[int] = []
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
            # keep the null directions orthogonal to every multiple u^m g
            A = np.vstack([rows[:, :ends[degree - g_degree], :cols].reshape(-1, cols)
                           for g_degree, rows in multiples])
            _, s, Wh = np.linalg.svd(A @ null.conj().T)
            null = Wh[int(np.sum(s > tol_ideal * s[0])):] @ null
        if not len(null):
            continue
        gens = _echelon(null, tol_ideal)
        gens /= np.linalg.norm(gens, axis=1, keepdims=True)
        gens[np.abs(gens) <= TOL_ROUNDING * np.max(np.abs(gens), axis=1, keepdims=True)] = 0.0
        found.append(np.zeros((len(gens), len(table)), dtype=np.complex128))
        found[-1][:, :cols] = gens
        degrees += [degree] * len(gens)
        if degree < last:
            _check_entries(len(gens) * ends[last - degree] * len(table),
                           f"the multiples of {len(gens)} generators of degree {degree}")
            multiples.append((degree, _multiples(gens, table, ends[last - degree], scales)))
    # |coefficient of z^d| = |y_d| / (scale_d E^(|d|/2)), taken in logarithms
    # and divided by each row's largest factor, so that none overflows
    found = np.vstack(found or [np.zeros((0, len(table)), dtype=np.complex128)])
    log_scale = np.log(scales) + 0.5 * math.log(energy) * table.sum(axis=1)
    least = np.min(np.where(found != 0.0, log_scale, np.inf), axis=1, keepdims=True)
    coeffs = found * np.exp(np.minimum(least - log_scale, 0.0))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    return VanishingIdeal(_read_only(table), _read_only(coeffs),
                          _read_only(np.array(degrees, dtype=np.intp)))


def _echelon(rows: np.ndarray, tol: float) -> np.ndarray:
    """The reduced row echelon form of the span of ``rows``, pivots taken from
    the last column down: each row is 1 at its pivot and 0 beyond it and at
    every other pivot.  It depends on the span only, not on the basis the
    SVD happened to return.

    A pivot must exceed ``tol`` times the largest entry of ``rows``, the share
    the rank cutoffs count as zero, so that no rounding residue of a zero is
    taken for one; the entries a pivot passes over, all below that, are set
    to zero.  Of the rows left, the one largest at the pivot's column is
    taken (partial pivoting).
    """
    rows = rows.copy()
    floor = tol * np.max(np.abs(rows), initial=0.0)
    for r in range(len(rows)):
        above = np.flatnonzero(np.any(np.abs(rows[r:]) > floor, axis=0))
        if not len(above):
            return rows[:r]
        col = above[-1]
        rows[r:, col + 1:] = 0.0
        k = r + int(np.argmax(np.abs(rows[r:, col])))
        rows[[r, k]] = rows[[k, r]]
        rows[r] /= rows[r, col]
        rows[r, col] = 1.0   # so that the elimination leaves exact zeros
        others = np.arange(len(rows)) != r
        rows[others] -= rows[others, col, None] * rows[r]
    return rows


def _multiples(gens: np.ndarray, table: np.ndarray, shifts: int,
               scales: np.ndarray) -> np.ndarray:
    """Unit rows [g, s] = u^m g over the scaled columns of ``table``, with m
    the exponent row s < ``shifts`` of ``table``, for the generators g of one
    degree (``gens``, over as many scaled columns as they span).  Every d + m
    lies in the table, and one indexed assignment writes them all."""
    width = gens.shape[1]
    position = _index_position(table[None, :width, :] + table[:shifts, None, :])
    rows = np.zeros((len(gens), shifts, len(table)), dtype=np.complex128)
    rows[:, np.arange(shifts)[:, None], position] = (
        (gens / scales[:width])[:, None, :] * scales[position])
    return rows / np.linalg.norm(rows, axis=2, keepdims=True)


def verify_jump_annihilates(code: QSCode, ideal: VanishingIdeal) -> np.ndarray:
    """Largest |g(z)| over the code points for each generator g of ``ideal``,
    (G,), from one product of the monomial values and the coefficients.

    Zero (within tolerance) certifies that the jump operator g(a_1,...,a_n)
    annihilates every codeword, i.e. the codespace is a dark space of the
    dissipator built from g.
    """
    if ideal.exponents.shape[1] != code.modes:
        raise DimensionMismatchError(
            f"ideal has n={ideal.exponents.shape[1]}, code has n={code.modes}")
    values = monomial_values(code.point_array, ideal.exponents) @ ideal.coefficients.T
    return np.max(np.abs(values), axis=0, initial=0.0)
