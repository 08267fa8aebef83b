"""Codes on a complex sphere, and their geometry.

A code is a finite family of disjoint point sets (constellations) living on a
common sphere in C^n, one constellation per logical codeword.  A
:class:`QSCode` is that family as columns, and nothing else: all N points
stacked codeword by codeword (``point_array``, N x n), each codeword's size
(``codeword_sizes``) and its label (``labels``).  Everything in this module is
immutable after construction and safe to share between threads.

Every analysis of a code reads the same frame of read-only arrays, built
from the columns on first use and cached on the code:

* ``codeword_index``: the codeword of each stacked point (length N), with
  ``codeword_starts`` the first row of each codeword and
  ``index_in_codeword`` each point's position inside its codeword;
* ``codewords``: each codeword's rows, as views of ``point_array``;
* ``overlap``: the coherent-state overlaps <z|w> of all point pairs (N x N),
  and ``scaled_overlap(t)`` those of the points scaled by sqrt(t);
* ``codeword_norms_sq``: the squared norms of the unnormalized codewords
  sum_z |z>, each the sum of its diagonal block of ``overlap``.

Sums over each codeword's points go through one rule, ``_block_sums``: a
reshape when all codewords have one size (as a compiled CSS code's do), and
``np.add.reduceat`` otherwise.

Geometric validity (common radius, no duplicate points, disjoint
constellations) is checked by :func:`validate_code`, which reports violations
as data rather than raising, so that invalid inputs can be inspected.  Its
tolerances are in units of the radius, so a code passes or fails alike at
every E.  Its duplicate and disjointness checks only ask which points lie
within a distance of another: one private matcher, which the symmetry
classification of :mod:`qsc.symmetries` calls too, sorts the points'
projections onto a fixed direction and measures only the pairs whose
projections come that close.
:func:`min_separation`, a true minimum, measures every pair of points of
distinct codewords in row blocks (:func:`distance_blocks`), each block from
the first point of the codeword after its own.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

# Tolerances in units of the radius: | |z|^2 - E | <= TOL_SPHERE E on the
# sphere, and points within TOL_POINT sqrt(E) of each other coincide.
TOL_SPHERE = 1e-9
TOL_POINT = 1e-9
# Points (or classical words) a code may have: the CSS enumerations and the
# catalog builders check their count against it before they make any.
CODE_SIZE_BUDGET = 1_000_000
# Most entries of a complex array a code holds, checked before it is
# allocated: the N x N overlap matrix (4,096 points, the q = 2, length-12 CSS
# code, 256 MB) and a catalog build's N x n point array.
OVERLAP_BUDGET = 4096 ** 2
# Point pairs per block of the chunked distance pass: each of its temporaries
# stays within 128 kB however many points a code has.
DISTANCE_BLOCK_PAIRS = 1 << 13
# Point pairs up to which _pairs_within measures every pair, in one block (so
# at most DISTANCE_BLOCK_PAIRS): below about a thousand pairs, sorting the
# projections costs more than the distances it saves.
SMALL_PAIRS = 1 << 9


class QscError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatchError(QscError):
    """Operands have a different number of modes."""


class CodeFormatError(QscError):
    """A code document failed to parse or violated code invariants on load."""


class DegenerateConstellationError(QscError):
    """The codeword norm collapsed; amplitudes are too small to resolve."""


class BudgetExceededError(QscError):
    """An enumeration would exceed its configured budget."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class QSCode:
    """K disjoint labeled codewords on one sphere of squared radius E, as
    columns: codeword mu, labeled ``labels[mu]``, holds the next
    ``codeword_sizes[mu]`` rows of the (N, n) ``point_array``.

    The constructor keeps a read-only complex copy of ``points`` and checks
    the structure only: finite entries on no empty axis, n = ``modes``,
    positive sizes that add up to N, one label per size and a finite E >= 0.
    Codes that compare equal (where 0.0 == -0.0) hash equal.
    """

    modes: int
    radius_sq: float
    point_array: np.ndarray
    codeword_sizes: np.ndarray
    labels: tuple[str, ...]

    def __init__(self, modes: int, radius_sq: float, points,
                 sizes: Sequence[int], labels: Sequence[str]):
        points = np.array(points, dtype=np.complex128)
        if points.ndim != 2 or 0 in points.shape:
            raise ValueError("a code needs at least one point of at least one mode")
        if not np.all(np.isfinite(points.view(np.float64))):
            raise ValueError("point amplitudes must be finite")
        if points.shape[1] != modes:
            raise DimensionMismatchError("all constellations must have the declared mode count")
        sizes, labels = np.array(sizes, dtype=np.intp).reshape(-1), tuple(map(str, labels))
        counts = sizes.tolist()   # checked as Python ints: a few codewords cost no reductions
        if not counts or min(counts) < 1 or sum(counts) != len(points) or len(labels) != len(counts):
            raise ValueError(f"codeword sizes {counts} must be positive, one per "
                             f"label, and add up to the {len(points)} points")
        radius_sq = float(radius_sq)
        if not math.isfinite(radius_sq) or radius_sq < 0:
            raise ValueError("radius_sq must be finite and nonnegative")
        for name, value in (("modes", int(modes)), ("radius_sq", radius_sq), ("labels", labels),
                            ("point_array", _read_only(points)),
                            ("codeword_sizes", _read_only(sizes))):
            object.__setattr__(self, name, value)

    @property
    def K(self) -> int:
        return len(self.labels)

    @cached_property
    def codewords(self) -> tuple[np.ndarray, ...]:
        """Each codeword's points, an (m, n) read-only view of ``point_array``."""
        return tuple(np.split(self.point_array, self.codeword_starts[1:].tolist()))

    # The rest of the frame: cached on first use, read-only, shared by every analysis.

    @cached_property
    def codeword_starts(self) -> np.ndarray:
        """Row of ``point_array`` where each codeword's points begin, (K,)."""
        return _read_only(np.cumsum(self.codeword_sizes) - self.codeword_sizes)

    @cached_property
    def codeword_index(self) -> np.ndarray:
        """Codeword of each row of ``point_array``, (N,)."""
        return _read_only(np.repeat(np.arange(self.K), self.codeword_sizes))

    @cached_property
    def index_in_codeword(self) -> np.ndarray:
        """Position of each row of ``point_array`` within its codeword, (N,)."""
        index = self.codeword_index
        return _read_only(np.arange(len(index)) - self.codeword_starts[index])

    @cached_property
    def overlap(self) -> np.ndarray:
        """Coherent-state overlaps <z|w> = exp(-|z|^2/2 - |w|^2/2 + conj(z).w)
        of every pair of points, (N, N)."""
        return _read_only(self.scaled_overlap(1.0))

    def scaled_overlap(self, t: float) -> np.ndarray:
        """Overlaps <sqrt(t) z|sqrt(t) w> of the points scaled by sqrt(t): the
        exponent of ``overlap`` times t, (N, N).  Not cached.  Refused above
        OVERLAP_BUDGET entries."""
        Z = self.point_array
        if len(Z) ** 2 > OVERLAP_BUDGET:
            raise BudgetExceededError(f"the overlap matrix of {len(Z)} points has {len(Z) ** 2} "
                                      f"entries, which exceeds the budget {OVERLAP_BUDGET}")
        half = 0.5 * np.sum(np.abs(Z) ** 2, axis=1)
        G = np.conj(Z) @ Z.T   # in place from here: no further N x N temporaries
        G += -half[:, None] - half[None, :]
        np.fill_diagonal(G, 0.0)   # <z|z> = 1, not a rounding phase of about E eps
        G *= t
        return np.exp(G, out=G)

    @cached_property
    def codeword_norms_sq(self) -> np.ndarray:
        """Squared norm of each unnormalized codeword sum_z |z>, (K,): the sum
        of its diagonal block of ``overlap``.  Raises on a spurious imaginary
        part and on a norm too small to resolve."""
        if self._common_size:   # only the diagonal blocks: each row's own codeword
            own = self.overlap.reshape(len(self.point_array), self.K, -1)
            totals = self._block_sums(own[np.arange(len(own)), self.codeword_index].sum(1), 0)
        else:
            totals = np.diag(self.codeword_sums(self.overlap))
        for total, size, label in zip(totals.tolist(), self.codeword_sizes.tolist(), self.labels):
            if abs(total.imag) > 1e-12 * size ** 2:
                raise QscError(f"codeword norm has a spurious imaginary part {total.imag:.3e}")
            if total.real <= 1e-12 * size ** 2:
                raise DegenerateConstellationError(
                    f"constellation '{label}' is numerically degenerate (norm {total.real:.3e})")
        return _read_only(totals.real.copy())

    def codeword_sums(self, M: np.ndarray) -> np.ndarray:
        """C M C^T for the K x N codeword-membership matrix C: the sum of each
        (codeword, codeword) block of an N x N matrix over the stacked points."""
        return self._block_sums(self._block_sums(M, 0), 1)

    @cached_property
    def _common_size(self) -> int:
        """The size of every codeword when they all have one, else 0."""
        sizes = self.codeword_sizes
        return int(sizes[0]) if np.all(sizes == sizes[0]) else 0

    def _block_sums(self, M: np.ndarray, axis: int) -> np.ndarray:
        """Sums of M over each codeword's points along ``axis`` (length N to
        K): a reshape to (K, m) summed over m when every codeword has m
        points, else ``np.add.reduceat``.  They add in different orders."""
        if self._common_size:
            return M.reshape(M.shape[:axis] + (self.K, -1) + M.shape[axis + 1:]).sum(axis=axis + 1)
        return np.add.reduceat(M, self.codeword_starts, axis=axis)

    def _key(self) -> tuple:
        # Adding 0.0 turns -0.0 into 0.0, so codes that compare equal (finite
        # entries, 0.0 == -0.0) hash equal.
        return (self.modes, self.radius_sq, self.labels, self.codeword_sizes.tobytes(),
                (self.point_array + 0.0).tobytes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSCode):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True)
class Violation:
    """A single failed code invariant, with the offending indices and residual."""

    kind: str  # "sphere" | "duplicate" | "disjoint"
    constellation: str
    point_index: int
    other_constellation: Optional[str]
    other_point_index: Optional[int]
    residual: float

    def describe(self) -> str:
        if self.kind == "sphere":
            return (f"point {self.point_index} of '{self.constellation}' is off the sphere "
                    f"(|norm_sq - E| = {self.residual:.3e})")
        if self.kind == "duplicate":
            return (f"points {self.other_point_index} and {self.point_index} of "
                    f"'{self.constellation}' coincide (distance {self.residual:.3e})")
        return (f"point {self.point_index} of '{self.constellation}' collides with point "
                f"{self.other_point_index} of '{self.other_constellation}' "
                f"(distance {self.residual:.3e})")


def distance_blocks(A: np.ndarray, B: np.ndarray,
                    first_columns: Optional[np.ndarray] = None
                    ) -> Iterator[tuple[int, int, np.ndarray]]:
    """Distances |a - b| from the rows of A to the rows of B, in row blocks.

    Yields (first row, first column, block) with
    block[i, j] = |A[first row + i] - B[first column + j]|.  A block starts at
    the column ``first_columns`` gives its first row (nondecreasing, so that
    a pass over the pairs j > i reads no earlier column), at 0 when it is
    None; a block with no column left is skipped.  The distances come from
    the point differences, summed mode by mode, so each temporary holds at
    most DISTANCE_BLOCK_PAIRS entries and no (rows, len(B), n) tensor is
    ever formed.  :func:`min_separation` reads its pairs this way; the
    passes that only look for pairs within a tolerance measure fewer.
    """
    rows = max(1, DISTANCE_BLOCK_PAIRS // max(1, B.shape[0]))
    for first in range(0, A.shape[0], rows):
        col = 0 if first_columns is None else int(first_columns[first])
        if col >= B.shape[0]:
            continue
        block, cols = A[first:first + rows], B[col:]
        sq = np.zeros((block.shape[0], cols.shape[0]))
        for k in range(A.shape[1]):
            diff = block[:, k, None] - cols[None, :, k]
            sq += diff.real ** 2 + diff.imag ** 2
        yield first, col, np.sqrt(sq)


def _pairs_within(A: np.ndarray, B: Optional[np.ndarray], tol: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of a row of A and a row of B at distance |a - b| <= tol, as
    (rows of A, rows of B, distances) in no particular order; with B None,
    the pairs g < h of rows of A.  A negative tolerance (-0.0 too, which a
    negative tolerance in units of the radius becomes at E = 0) or a NaN one
    matches none.

    The rows are projected onto one fixed direction u of their real
    coordinates (re z_1, im z_1, re z_2, ...), with |u|_1 = 1: then
    |u.(a - b)| <= |a - b|, and no projection exceeds the largest coordinate.
    Only the pairs whose projections lie within tol plus a bound on their
    rounding are measured, found by ``searchsorted`` in the sorted
    projections of B, with the per-pair arithmetic of
    :func:`distance_blocks` (so each distance has the same bits) and in
    blocks of at most DISTANCE_BLOCK_PAIRS pairs.  The weights
    u_k ~ 1/(k + pi) give distinct points with algebraic coordinates
    distinct projections (pi is transcendental), so a code's points rarely
    share one.  Up to SMALL_PAIRS pairs are all measured, unsorted.
    """
    same = B is None
    B = A if same else B
    if not tol >= 0 or math.copysign(1.0, tol) < 0:
        blocks = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))]
    elif (len(A) * (len(A) - 1) // 2 if same else len(A) * len(B)) <= SMALL_PAIRS:
        every = (np.arange(len(A))[:, None] < np.arange(len(B)) if same
                 else np.ones((len(A), len(B)), dtype=bool))
        blocks = [np.nonzero(every)]
    else:
        blocks = _candidate_blocks(A, B, same, tol)
    found = []
    for i, j in blocks:
        sq = np.zeros(len(i))
        for m in range(A.shape[1]):
            diff = A[i, m] - B[j, m]
            sq += diff.real ** 2 + diff.imag ** 2
        d = np.sqrt(sq)
        keep = d <= tol
        found.append((i[keep], j[keep], d[keep]))
    return found[0] if len(found) == 1 else tuple(np.concatenate(x) for x in zip(*found))


def _candidate_blocks(A: np.ndarray, B: np.ndarray, same: bool, tol: float
                      ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The row pairs (i, j) of A and B whose projections lie within reach of
    each other, in blocks of at most DISTANCE_BLOCK_PAIRS, at least one (see
    :func:`_pairs_within`); with ``same``, each unordered pair once, i < j."""
    u = 1.0 / (np.arange(2 * A.shape[1]) + np.pi)
    u /= np.sum(u)
    coords = [np.ascontiguousarray(X).view(np.float64) for X in (A, B)]
    scale = max(float(np.max(np.abs(X))) for X in coords)
    # a projection of 2n terms is off by at most about 2n eps times the
    # largest coordinate, a computed distance by (n + 1) eps of itself, and
    # the shifted bounds by eps of their size: 16 (n + 2) eps covers them all
    reach = tol + 16 * (A.shape[1] + 2) * np.finfo(float).eps * (scale + tol)
    pb = coords[1] @ u
    order = np.argsort(pb, kind="stable")
    pb = pb[order]
    if same:    # the pairs of sorted positions k < l within reach
        lo = np.arange(1, len(B) + 1)
        hi = np.searchsorted(pb, pb + reach, side="right")
    else:
        pa = coords[0] @ u
        lo = np.searchsorted(pb, pa - reach, side="left")
        hi = np.searchsorted(pb, pa + reach, side="right")
    ends = np.cumsum(hi - lo)   # candidate pairs of rows <= k, flattened
    for first in range(0, max(1, int(ends[-1])), DISTANCE_BLOCK_PAIRS):
        flat = np.arange(first, min(first + DISTANCE_BLOCK_PAIRS, int(ends[-1])))
        k = np.searchsorted(ends, flat, side="right")
        j = order[hi[k] - ends[k] + flat]
        yield (np.minimum(order[k], j), np.maximum(order[k], j)) if same else (k, j)


def validate_code(code: QSCode, tol_sphere: float = TOL_SPHERE,
                  tol_point: float = TOL_POINT) -> list[Violation]:
    """Check the code invariants and report each failure.

    Returns the empty list iff every point sits on the radius-sqrt(E) sphere,
    | |z|^2 - E | <= tol_sphere E (plus the rounding of |z|^2), no
    constellation contains duplicate points, and distinct constellations
    share no point, both at distance <= tol_point sqrt(E).  The tolerances
    are in units of the radius: the same tests on the unit-sphere points
    u = z / sqrt(E), without the division, so that a code passes or fails
    alike at every E.
    Violations come codeword by codeword (sphere, then duplicate, by point
    index), then the disjointness violations in (mu, nu, i, j) order.  Only
    the point pairs g < h of the stacked frame whose projections onto a
    fixed direction lie within tol_point sqrt(E) are measured (by
    :func:`_pairs_within`), with the arithmetic of :func:`distance_blocks`.
    """
    Z, energy = code.point_array, code.radius_sq
    res = np.abs(np.sum(np.abs(Z) ** 2, axis=1) - energy)
    # |z|^2 of a point built on the sphere is off E by rounding alone, up to
    # about (n + 1) eps E: a margin of 16 (n + 1) eps E admits it at any tol_sphere
    bound = (tol_sphere + 16 * (code.modes + 1) * sys.float_info.epsilon) * energy
    off = np.flatnonzero(res > bound)
    pairs = _pairs_within(Z, None, tol_point * math.sqrt(energy))
    if not len(off) and not len(pairs[0]):   # a valid code needs no index maps
        return []
    index, local, labels = code.codeword_index, code.index_in_codeword, code.labels
    own: list[list[Violation]] = [[] for _ in labels]
    for g in off:
        own[index[g]].append(Violation("sphere", labels[index[g]], int(local[g]),
                                       None, None, float(res[g])))
    duplicates, disjoint = [], []
    for g, h, dist in zip(*(x.tolist() for x in pairs)):
        mu, nu = int(index[g]), int(index[h])
        if mu == nu:   # reported from the later point, as (i, j) with i > j
            duplicates.append((mu, int(local[h]), int(local[g]), dist))
        else:
            disjoint.append((mu, nu, int(local[g]), int(local[h]), dist))
    for mu, i, j, dist in sorted(duplicates):
        own[mu].append(Violation("duplicate", labels[mu], i, None, j, dist))
    violations = [v for vs in own for v in vs]
    violations += [Violation("disjoint", labels[mu], i, labels[nu], j, dist)
                   for mu, nu, i, j, dist in sorted(disjoint)]
    return violations


def min_separation(code: QSCode) -> tuple[float, tuple[int, int, int, int]]:
    """Smallest distance between points of two distinct constellations.

    Returns the distance together with the witness (mu, nu, i, j); ties break
    to the lexicographically smallest witness so the output is deterministic.
    One pass over the point pairs of distinct codewords mu < nu finds both:
    each row block starts at the first point of the codeword after its own.
    """
    if code.K < 2:
        raise ValueError("min_separation needs at least two codewords")
    Z, index, local = code.point_array, code.codeword_index, code.index_in_codeword
    next_start = np.append(code.codeword_starts[1:], len(Z))[index]
    best, witness = math.inf, None
    for first, col, d in distance_blocks(Z, Z, next_start):
        rows = np.arange(first, first + d.shape[0])
        d = np.where(index[rows, None] < index[None, col:], d, math.inf)
        m = float(d.min())
        if m == math.inf or m > best:
            continue
        g, h = np.nonzero(d == m)
        g, h = rows[g], h + col
        w = min(zip(index[g].tolist(), index[h].tolist(), local[g].tolist(), local[h].tolist()))
        if m < best or w < witness:
            best, witness = m, w
    return best, witness


# ---------------------------------------------------------------------------
# JSON interchange
#
# { "modes": n, "radius_sq": E,
#   "codewords": [ { "label": str, "points": [ [[re,im], ...], ... ] }, ... ] }
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    # 17 significant decimal digits always round-trip a double exactly.  The
    # decimal point is forced so JSON parses the value as a float (a bare
    # "-0" would come back as integer zero and lose the sign bit).
    out = format(float(x), ".17g")
    if not any(ch in out for ch in ".eE") and out.lstrip("-").isdigit():
        out += ".0"
    return out


def code_to_json(code: QSCode) -> str:
    """Serialize to the interchange document (decimal, exact round-trip)."""
    flat = code.point_array.view(np.float64).ravel()   # re, im of every amplitude
    # Each distinct value is formatted once.  Values are told apart by their
    # bits, so that -0.0 keeps its sign; the integral ones go through _fmt.
    bits, where = np.unique(flat.view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    text = ("%.17g\n" * values.size % tuple(values.tolist())).split("\n")
    for i in np.flatnonzero(values == np.trunc(values)).tolist():
        text[i] = _fmt(values[i])
    words = np.array(text, dtype=object)[where].tolist()
    row = "        [" + ", ".join(["[%s, %s]"] * code.modes) + "]"
    lines = ["{", f'  "modes": {code.modes},', f'  "radius_sq": {_fmt(code.radius_sq)},',
             '  "codewords": [']
    start = 0
    for ci, (label, size) in enumerate(zip(code.labels, code.codeword_sizes.tolist())):
        stop = start + 2 * code.modes * size
        lines += ["    {", f'      "label": {json.dumps(label)},', '      "points": [',
                  ",\n".join([row] * size) % tuple(words[start:stop]),
                  "      ]", "    }" + ("," if ci < code.K - 1 else "")]
        start = stop
    lines += ["  ]", "}"]
    return "\n".join(lines) + "\n"


def code_from_json(text: str, tol_sphere: float = TOL_SPHERE,
                   tol_point: float = TOL_POINT) -> QSCode:
    """Parse the interchange document and validate the loaded code.

    Raises :class:`CodeFormatError` with position information on malformed
    documents and with the violation list when invariants fail on load.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodeFormatError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    try:
        raw_codewords = doc["codewords"]
        if not isinstance(raw_codewords, list) or not raw_codewords:
            raise CodeFormatError("'codewords' must be a nonempty list")
        modes, radius_sq = doc["modes"], doc["radius_sq"]
        # type(), not isinstance: a JSON true is a bool, which subclasses int
        if type(modes) is not int or type(radius_sq) not in (int, float):
            raise CodeFormatError("'modes' must be an integer and 'radius_sq' a number")
        labels = [entry["label"] for entry in raw_codewords]
        if not all(type(label) is str for label in labels):
            raise CodeFormatError("each codeword label must be a string")
        points = [entry["points"] for entry in raw_codewords]
        if not all(isinstance(raw, list) and raw for raw in points):
            raise ValueError("a constellation needs at least one point")
        # every point of every codeword, read by one call; raises on ragged lists
        flat = [point for raw in points for point in raw]
        pairs = np.array(flat)
        if pairs.ndim != 3 or pairs.shape[2] != 2:
            raise TypeError("each point must be a nonempty list of [re, im] pairs")
        # numpy reads a JSON boolean among numbers as a number; only a text
        # that holds one of these two tokens can contain a boolean
        if pairs.dtype.kind not in "iuf" or (("true" in text or "false" in text) and any(
                type(x) is bool for point in flat for pair in point for x in pair)):
            raise TypeError("point coordinates must be JSON numbers")
        Z = pairs.astype(np.float64, copy=False).view(np.complex128)[:, :, 0]
        code = QSCode(modes, radius_sq, Z, [len(raw) for raw in points], labels)
    except KeyError as exc:
        raise CodeFormatError(f"document is missing required field: {exc}") from exc
    except (TypeError, ValueError, OverflowError, DimensionMismatchError) as exc:
        raise CodeFormatError(f"malformed code document: {exc}") from exc
    violations = validate_code(code, tol_sphere=tol_sphere, tol_point=tol_point)
    if violations:
        summary = "; ".join(v.describe() for v in violations[:5])
        raise CodeFormatError(f"loaded code violates invariants: {summary}")
    return code
