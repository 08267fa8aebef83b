"""Ready-made polytope constellations as codes.

Real polytopes live in R^{2n} and are read as points of C^n through the fixed
identification (x1, x2, ..., x_{2n}) -> (x1 + i*x2, ..., x_{2n-1} + i*x_{2n});
complex polytopes are given directly by their vertex coordinates.  Every
builder returns a QSCode already scaled to the requested squared radius E,
with an explicit, documented logical partition.

Expected code properties (design strengths, separations) are not hardcoded:
they are produced by this repo's own analysis modules and committed as a
generated fixture (see scripts/gen_fixtures.py), which list_catalog() reads.
"""

from __future__ import annotations

import cmath
import importlib.resources
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .constellation import CODE_SIZE_BUDGET, QSCode, QscError
from .moments import BudgetExceededError

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class CatalogError(QscError):
    """Unknown catalog name or invalid builder option."""


# ---------------------------------------------------------------------------
# Quaternion helpers (used by the 24-cell / 600-cell builders)
# ---------------------------------------------------------------------------

def _quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quaternion products p*q over the last axis, broadcast over the rest."""
    a1, b1, c1, d1 = np.moveaxis(p, -1, 0)
    a2, b2, c2, d2 = np.moveaxis(q, -1, 0)
    return np.stack([
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    ], axis=-1)


# The 16 sign vectors of itertools.product((1.0, -1.0), repeat=4), as rows.
_SIGNS4 = np.array(list(itertools.product((1.0, -1.0), repeat=4)))


def _binary_tetrahedral_group() -> np.ndarray:
    """The 24 unit quaternions {+-1,+-i,+-j,+-k, (+-1+-i+-j+-k)/2}, as rows:
    +1 then -1 on each axis in turn, then the halves in sign-product order."""
    units = np.zeros((8, 4))
    units[np.arange(8), np.arange(8) // 2] = np.tile([1.0, -1.0], 4)
    return np.vstack([units, _SIGNS4 / 2.0])


# ---------------------------------------------------------------------------
# Vertex lists
# ---------------------------------------------------------------------------

def _real_to_complex(vertices: np.ndarray) -> np.ndarray:
    return vertices[:, 0::2] + 1j * vertices[:, 1::2]


def _cell24_vertices() -> np.ndarray:
    """All 24 permutations of (+-1, +-1, 0, 0)/sqrt(2), circumradius 1."""
    vertices = []
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((1.0, -1.0), repeat=2):
            v = np.zeros(4)
            v[i], v[j] = si, sj
            vertices.append(v / math.sqrt(2.0))
    return np.array(vertices)


def _cell24_pairing_class(v: np.ndarray) -> int:
    """Which of the three inscribed 16-cells a vertex belongs to.

    The support of each vertex is a coordinate pair; the pairings
    {12,34}, {13,24}, {14,23} each collect 8 vertices forming a 16-cell.
    """
    support = tuple(np.flatnonzero(np.abs(v) > 1e-12))
    return {(0, 1): 0, (2, 3): 0, (0, 2): 1, (1, 3): 1, (0, 3): 2, (1, 2): 2}[support]


def _cell600_vertices() -> np.ndarray:
    """The 120 vertices of the 600-cell at circumradius 1 (icosian group).

    The 24 vertices of an inscribed 24-cell, then the 96 even permutations of
    (+-phi, +-1, +-1/phi, 0)/2: permutation by permutation (in
    itertools.permutations order), signs in product order.  The zero keeps
    the sign +, since a - on it only repeats a vertex."""
    base = np.array([_GOLDEN / 2.0, 0.5, 1.0 / (2.0 * _GOLDEN), 0.0])
    perms = np.array([p for p in itertools.permutations(range(4))
                      if _permutation_parity(p) == 0])
    signed = _SIGNS4[::2] * base                    # (8, 4): sign of the zero is +
    even = signed[:, perms].transpose(1, 0, 2).reshape(-1, 4)
    return np.vstack([_binary_tetrahedral_group(), even])


def _permutation_parity(perm: tuple[int, ...]) -> int:
    inversions = sum(1 for a, b in itertools.combinations(range(len(perm)), 2)
                     if perm[a] > perm[b])
    return inversions % 2


def _hessian_vertices() -> tuple[np.ndarray, np.ndarray]:
    """27 vertices (0, w^a, -w^b) in C^3 and cyclic shifts, w = exp(2pi i/3).

    This is the standard coordinatization of the 27-vertex exceptional complex
    polytope; each vertex has squared norm 2.  Returns the vertices together
    with the phase-residue class (a + b) mod 3 used for the logical partition:
    the cyclic mode shift fixes each 9-point class, the joint rotation
    diag(w, w, w) cycles them, and all diagonal moments match across classes
    (the classes are distinguished only by the off-diagonal z_i z_j moments).
    """
    w = cmath.exp(2j * math.pi / 3.0)
    vertices = []
    classes = []
    for shift in range(3):
        for a in range(3):
            for b in range(3):
                v = [0j, 0j, 0j]
                v[shift] = 0j
                v[(shift + 1) % 3] = w ** a
                v[(shift + 2) % 3] = -(w ** b)
                vertices.append(v)
                classes.append((a + b) % 3)
    return np.array(vertices, dtype=np.complex128), np.array(classes)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _check_size(base: int, exponent: int = 1) -> None:
    """Refuse a code of base^exponent points above CODE_SIZE_BUDGET before any
    point is made.  A base of at least 2 raised beyond the budget's bit length
    exceeds it, so no larger power is ever formed."""
    if exponent > CODE_SIZE_BUDGET.bit_length() or base ** exponent > CODE_SIZE_BUDGET:
        count = f"{base}^{exponent}" if exponent > 1 else str(base)
        raise BudgetExceededError(f"code with {count} points exceeds the budget {CODE_SIZE_BUDGET}")


def _numbered_code(n: int, E: float, groups: list) -> QSCode:
    """A code whose codeword mu, labeled str(mu), holds the rows ``groups[mu]``."""
    points = np.concatenate([np.array(g, dtype=np.complex128).reshape(len(g), n)
                             for g in groups])
    return QSCode(n, E, points, [len(g) for g in groups], [str(mu) for mu in range(len(groups))])


def _build_cat(E: float, S: int = 2, K: int = 2) -> QSCode:
    if S < 1 or K < 1:
        raise CatalogError("cat needs S >= 1 and K >= 1")
    _check_size(S * K)
    alpha = math.sqrt(E)
    total = S * K
    groups: list[list[complex]] = [[] for _ in range(K)]
    for k in range(total):
        groups[k % K].append(alpha * cmath.exp(2j * math.pi * k / total))
    return _numbered_code(1, E, groups)


def _build_hypercube(E: float, n: int = 2) -> QSCode:
    """2^{2n} vertices (+-1 +- i, ...)/sqrt(2n), split by overall sign parity.

    Each vertex corresponds to a sign vector in {+-1}^{2n}; codeword 0 takes
    the vertices with an even number of minus signs, codeword 1 the rest.
    """
    if n < 1:
        raise CatalogError("hypercube needs n >= 1")
    _check_size(4, n)
    scale = math.sqrt(E / (2.0 * n))
    groups: list[list[np.ndarray]] = [[], []]
    for signs in itertools.product((1.0, -1.0), repeat=2 * n):
        z = np.array([complex(signs[2 * i], signs[2 * i + 1]) for i in range(n)]) * scale
        parity = sum(1 for s in signs if s < 0) % 2
        groups[parity].append(z)
    return _numbered_code(n, E, groups)


def _build_orthoplex(E: float, n: int = 2) -> QSCode:
    """4n cross-polytope vertices; real-axis points vs imaginary-axis points.

    Vertices are +-sqrt(E) e_j and +-i sqrt(E) e_j; codeword 0 collects the
    real-axis vertices, codeword 1 the imaginary-axis ones.
    """
    if n < 1:
        raise CatalogError("orthoplex needs n >= 1")
    _check_size(4 * n)
    r = math.sqrt(E)
    groups: list[list[np.ndarray]] = [[], []]
    for j in range(n):
        for sign in (1.0, -1.0):
            z = np.zeros(n, dtype=np.complex128)
            z[j] = sign * r
            groups[0].append(z)
            z = np.zeros(n, dtype=np.complex128)
            z[j] = 1j * sign * r
            groups[1].append(z)
    return _numbered_code(n, E, groups)


def _build_cell24(E: float, partition: str = "three") -> QSCode:
    vertices = _cell24_vertices()
    classes = np.array([_cell24_pairing_class(v) for v in vertices])
    z = _real_to_complex(vertices) * math.sqrt(E)
    if partition == "three":
        groups = [z[classes == c] for c in range(3)]
    elif partition == "two":
        # one inscribed 16-cell against the complementary tesseract
        groups = [z[classes == 0], z[classes != 0]]
    elif partition == "one":
        groups = [z]
    else:
        raise CatalogError(
            f"cell24 partition must be 'three', 'two' or 'one', got {partition!r}")
    return _numbered_code(2, E, groups)


def _build_cell600(E: float, partition: str = "one") -> QSCode:
    vertices = _cell600_vertices()
    z = _real_to_complex(vertices) * math.sqrt(E)
    if partition == "one":
        groups = [z]
    elif partition == "five":
        groups = _cell600_coset_partition(vertices, z)
    else:
        raise CatalogError(f"cell600 partition must be 'one' or 'five', got {partition!r}")
    return _numbered_code(2, E, groups)


def _cell600_coset_partition(vertices: np.ndarray, z: np.ndarray) -> list[np.ndarray]:
    """Split the 120 icosians into five left cosets of the 24-element
    binary tetrahedral subgroup; each coset is an inscribed 24-cell.  Each
    coset is the first unassigned vertex times all 24 subgroup elements."""
    group = _binary_tetrahedral_group()
    assigned = np.full(len(vertices), -1)
    coset = 0
    while np.any(assigned < 0):
        images = _quat_mul(vertices[np.argmax(assigned < 0)], group)
        dist = np.linalg.norm(vertices[None, :, :] - images[:, None, :], axis=2)
        hit = np.argmin(dist, axis=1)
        if np.any(dist[np.arange(len(group)), hit] > 1e-9):
            raise CatalogError("coset element is not a 600-cell vertex")
        assigned[hit] = coset
        coset += 1
    assert coset == 5
    return [z[assigned == c] for c in range(5)]


def _build_gamma(E: float, n: int = 2, q: int = 3) -> QSCode:
    """Generalized hypercube: q^n vertices (w^{k_1},...,w^{k_n})*sqrt(E/n),
    w = exp(2pi i/q), partitioned into q codewords by sum(k) mod q."""
    if n < 1 or q < 2:
        raise CatalogError("gamma needs n >= 1 and q >= 2")
    _check_size(q, n)
    w = cmath.exp(2j * math.pi / q)
    scale = math.sqrt(E / n)
    groups: list[list[np.ndarray]] = [[] for _ in range(q)]
    for ks in itertools.product(range(q), repeat=n):
        groups[sum(ks) % q].append(np.array([w ** k for k in ks]) * scale)
    return _numbered_code(n, E, groups)


def _build_beta(E: float, n: int = 2, q: int = 3) -> QSCode:
    """Generalized orthoplex: q*n vertices w^k sqrt(E) e_j, partitioned into
    q codewords by the phase residue k."""
    if n < 1 or q < 2:
        raise CatalogError("beta needs n >= 1 and q >= 2")
    _check_size(q * n)
    w = cmath.exp(2j * math.pi / q)
    r = math.sqrt(E)
    groups: list[list[np.ndarray]] = [[] for _ in range(q)]
    for k in range(q):
        for j in range(n):
            z = np.zeros(n, dtype=np.complex128)
            z[j] = r * w ** k
            groups[k].append(z)
    return _numbered_code(n, E, groups)


def _build_hessian(E: float) -> QSCode:
    """27-vertex exceptional complex polytope in C^3, partitioned into three
    9-point codewords by the phase residue of the nonzero coordinates."""
    vertices, classes = _hessian_vertices()
    z = vertices * math.sqrt(E / 2.0)
    groups = [z[classes == c] for c in range(3)]
    return _numbered_code(3, E, groups)


_BUILDERS: dict[str, Callable[..., QSCode]] = {
    "cat": _build_cat,
    "hypercube": _build_hypercube,
    "orthoplex": _build_orthoplex,
    "cell24": _build_cell24,
    "cell600": _build_cell600,
    "gamma": _build_gamma,
    "beta": _build_beta,
    "hessian": _build_hessian,
}


def build(name: str, E: float, **options) -> QSCode:
    """Build a catalog code scaled to squared radius E."""
    if not (math.isfinite(E) and E > 0):
        raise CatalogError("E must be finite and positive")
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise CatalogError(f"unknown catalog name {name!r}; "
                           f"known: {sorted(_BUILDERS)}") from None
    try:
        return builder(E, **options)
    except TypeError as exc:
        raise CatalogError(f"invalid options for {name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Catalog listing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    modes: int
    num_points: int
    num_codewords: int
    params: dict = field(default_factory=dict)
    description: str = ""
    expected_properties: dict = field(default_factory=dict)

    @property
    def entry_id(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}({inner})"

    def build(self, E: float) -> QSCode:
        return build(self.name, E, **self.params)


# (name, params, (modes, points, codewords) of the built code, description);
# Tier-1 checks every shape against a real build.
_DEFAULT_ENTRIES: list[tuple[str, dict, tuple[int, int, int], str]] = [
    ("cat", {"S": 1, "K": 2}, (1, 2, 2), "two-legged cat: antipodal pair on a circle"),
    ("cat", {"S": 2, "K": 2}, (1, 4, 2), "four-legged cat: 4th roots of unity, split by parity"),
    ("cat", {"S": 3, "K": 2}, (1, 6, 2), "six-legged cat: 6th roots of unity, split by parity"),
    ("cat", {"S": 3, "K": 3}, (1, 9, 3), "nine-point cat qutrit: 9th roots split mod 3"),
    ("hypercube", {"n": 1}, (1, 4, 2), "square (pi/4-rotated 4th roots), parity partition"),
    ("hypercube", {"n": 2}, (2, 16, 2), "16 vertices of the 4-cube in C^2, parity partition"),
    ("orthoplex", {"n": 2}, (2, 8, 2), "8 cross-polytope vertices in C^2, axis partition"),
    ("cell24", {"partition": "one"}, (2, 24, 1), "24-cell vertex set (single constellation)"),
    ("cell24", {"partition": "three"}, (2, 24, 3), "24-cell as three inscribed 16-cells"),
    ("cell24", {"partition": "two"}, (2, 24, 2), "24-cell as a 16-cell plus a tesseract"),
    ("cell600", {"partition": "one"}, (2, 120, 1), "600-cell vertex set (single constellation)"),
    ("cell600", {"partition": "five"}, (2, 120, 5), "600-cell as five inscribed 24-cells"),
    ("gamma", {"n": 2, "q": 3}, (2, 9, 3), "generalized hypercube over C^2, cubed roots"),
    ("beta", {"n": 2, "q": 3}, (2, 6, 3), "generalized orthoplex over C^2, cubed roots"),
    ("hessian", {}, (3, 27, 3), "27-vertex exceptional complex polytope in C^3"),
]


def _load_expected_properties() -> dict:
    try:
        path = importlib.resources.files("qsc") / "_fixtures" / "catalog_properties.json"
        return json.loads(path.read_text())
    except (FileNotFoundError, ModuleNotFoundError, OSError, json.JSONDecodeError):
        return {}


def list_catalog() -> list[CatalogEntry]:
    """All enabled catalog entries, with oracle-generated expected properties.
    Builds no code: each entry's shape comes from the table above."""
    expected = _load_expected_properties()
    entries = []
    for name, params, (modes, points, K), desc in _DEFAULT_ENTRIES:
        entry = CatalogEntry(name, modes, points, K, dict(params), desc)
        entries.append(replace(entry, expected_properties=dict(expected.get(entry.entry_id, {}))))
    return entries
