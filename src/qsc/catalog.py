"""Ready-made polytope constellations as codes.

Real polytopes live in R^{2n} and are read as points of C^n through the fixed
identification (x1, x2, ..., x_{2n}) -> (x1 + i*x2, ..., x_{2n-1} + i*x_{2n});
complex polytopes are given directly by their vertex coordinates.  Every
builder makes its points as one array, in a documented order, scaled to the
requested squared radius E, together with the class 0, 1, ... of each point:
one rule per builder, the code's logical partition.  Codeword mu, labeled
str(mu), holds the points of class mu, in their order.

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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constellation import CODE_SIZE_BUDGET, BudgetExceededError, QSCode, QscError, _check_entries

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
# The 16 sign vectors of itertools.product((1.0, -1.0), repeat=4), as rows.
_SIGNS4 = np.array(list(itertools.product((1.0, -1.0), repeat=4)))


class CatalogError(QscError):
    """Unknown catalog name or invalid builder option."""


# ---------------------------------------------------------------------------
# Vertex lists
# ---------------------------------------------------------------------------

def _real_to_complex(vertices: np.ndarray) -> np.ndarray:
    return vertices[:, 0::2] + 1j * vertices[:, 1::2]


def _cell600_vertices() -> np.ndarray:
    """The 120 vertices of the 600-cell at circumradius 1 (icosian group).

    First the binary tetrahedral group, an inscribed 24-cell: the 24 unit
    quaternions {+-1,+-i,+-j,+-k, (+-1+-i+-j+-k)/2}, +1 then -1 on each axis
    in turn, then the halves in sign-product order.  Then the 96 even
    permutations of (+-phi, +-1, +-1/phi, 0)/2: permutation by permutation (in
    itertools.permutations order), signs in product order.  The zero keeps
    the sign +, since a - on it only repeats a vertex."""
    units = np.zeros((8, 4))
    units[np.arange(8), np.arange(8) // 2] = np.tile([1.0, -1.0], 4)
    base = np.array([_GOLDEN / 2.0, 0.5, 1.0 / (2.0 * _GOLDEN), 0.0])
    perms = np.array([p for p in itertools.permutations(range(4))
                      if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0])
    signed = _SIGNS4[::2] * base                    # (8, 4): sign of the zero is +
    even = signed[:, perms].transpose(1, 0, 2).reshape(-1, 4)
    return np.vstack([units, _SIGNS4 / 2.0, even])


def _cell600_cosets(z: np.ndarray) -> np.ndarray:
    """The left coset vH of the binary tetrahedral group H (an inscribed
    24-cell) holding each of the 120 icosians, numbered in order of first
    vertex.  As points of C^2 the quaternions are a + b j, and u = c + d j
    lies in vH when v^-1 u = (conj(a) c + b conj(d)) + (conj(a) d - b conj(c)) j
    has every coordinate in {0, +-1/2, +-1}."""
    (a, b), (c, d) = z.T[:, :, None], z.T[:, None, :]
    twice = 2.0 * np.stack([a.conj() * c + b * d.conj(), a.conj() * d - b * c.conj()], axis=2)
    in_group = np.all(np.abs(twice - np.round(twice)) < 1e-9, axis=2)
    return np.unique(np.argmax(in_group, axis=0), return_inverse=True)[1]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _check_size(modes: int, base: int, exponent: int = 1) -> None:
    """Refuse a code of base^exponent points of ``modes`` amplitudes each,
    before any point is made, when its points exceed CODE_SIZE_BUDGET or its
    amplitudes the package's one budget of entries.  A base of at least 2 raised
    past that bit length exceeds it, so no larger power is ever formed."""
    count = f"{base}^{exponent}" if exponent > 1 else str(base)
    if exponent > CODE_SIZE_BUDGET.bit_length() or base ** exponent > CODE_SIZE_BUDGET:
        raise BudgetExceededError(f"code with {count} points exceeds the budget {CODE_SIZE_BUDGET}")
    _check_entries(base ** exponent * modes, f"code with {count} points of {modes} modes")


def _partitioned(E: float, points: np.ndarray, classes: np.ndarray) -> QSCode:
    """The code whose codeword mu, labeled str(mu), holds the points of
    class mu, in their order.  Points already in class order are not copied."""
    sizes = np.bincount(classes)
    if np.any(classes[1:] < classes[:-1]):
        points = points[np.argsort(classes, kind="stable")]
    return QSCode(points.shape[1], E, points, sizes, [str(mu) for mu in range(len(sizes))])


def _axis_points(n: int, values: list) -> tuple[np.ndarray, np.ndarray]:
    """Points values[c][s] e_j of C^n, ordered by class c, then axis j, then
    s, with the class c of each."""
    values = np.array(values, dtype=np.complex128)
    classes, per_class = values.shape
    points = np.zeros((classes, n, per_class, n), dtype=np.complex128)
    points[:, np.arange(n), :, np.arange(n)] = values
    return points.reshape(-1, n), np.repeat(np.arange(classes), n * per_class)


def _build_cat(E: float, S: int = 2, K: int = 2) -> QSCode:
    """The S*K-th roots of unity times sqrt(E); point k is in codeword k mod K."""
    if S < 1 or K < 1:
        raise CatalogError("cat needs S >= 1 and K >= 1")
    _check_size(1, S * K)
    alpha = math.sqrt(E)
    total = S * K
    # roots of unity from cmath.exp and complex powers, here and below: np.exp
    # differs from cmath.exp in the last bits on about a fifth of all roots
    points = np.array([alpha * cmath.exp(2j * math.pi * k / total) for k in range(total)])
    return _partitioned(E, points[:, None], np.arange(total) % K)


def _build_hypercube(E: float, n: int = 2) -> QSCode:
    """2^{2n} vertices (+-1 +- i, ...)/sqrt(2n), one per sign vector in
    {+-1}^{2n}, in product order; class 0 takes the vertices with an even
    number of minus signs, class 1 the rest."""
    if n < 1:
        raise CatalogError("hypercube needs n >= 1")
    _check_size(n, 4, n)
    minus = np.indices((2,) * (2 * n)).reshape(2 * n, -1).T
    points = _real_to_complex(1.0 - 2.0 * minus) * math.sqrt(E / (2.0 * n))
    return _partitioned(E, points, minus.sum(axis=1) % 2)


def _build_orthoplex(E: float, n: int = 2) -> QSCode:
    """4n cross-polytope vertices: +-sqrt(E) e_j (class 0, the real axes)
    and +-i sqrt(E) e_j (class 1, the imaginary axes)."""
    if n < 1:
        raise CatalogError("orthoplex needs n >= 1")
    _check_size(n, 4 * n)
    r = math.sqrt(E)
    return _partitioned(E, *_axis_points(n, [[sign * r for sign in (1.0, -1.0)],
                                             [1j * sign * r for sign in (1.0, -1.0)]]))


def _build_cell24(E: float, partition: str = "three") -> QSCode:
    """All 24 permutations of (+-1, +-1, 0, 0)/sqrt(2), support by support.

    The support of each vertex is a coordinate pair; the pairings
    {12,34}, {13,24}, {14,23} each collect 8 vertices forming an inscribed
    16-cell.  "three" splits by pairing, "two" takes the first 16-cell
    against the complementary tesseract, "one" keeps all 24 together.
    """
    rule = {"three": [0, 1, 2, 2, 1, 0], "two": [0, 1, 1, 1, 1, 0], "one": [0] * 6}
    if partition not in rule:
        raise CatalogError(f"cell24 partition must be 'three', 'two' or 'one', got {partition!r}")
    pairs = np.array(list(itertools.combinations(range(4), 2)))   # the six supports
    vertices = np.zeros((6, 4, 4))
    vertices[np.arange(6)[:, None, None], np.arange(4)[:, None], pairs[:, None]] = _SIGNS4[:4, 2:]
    z = _real_to_complex(vertices.reshape(24, 4) / math.sqrt(2.0)) * math.sqrt(E)
    return _partitioned(E, z, np.repeat(rule[partition], 4))


def _build_cell600(E: float, partition: str = "one") -> QSCode:
    """The 600-cell whole ("one") or as five inscribed 24-cells ("five")."""
    if partition not in ("one", "five"):
        raise CatalogError(f"cell600 partition must be 'one' or 'five', got {partition!r}")
    z = _real_to_complex(_cell600_vertices())
    classes = _cell600_cosets(z) if partition == "five" else np.zeros(120, dtype=int)
    return _partitioned(E, z * math.sqrt(E), classes)


def _build_gamma(E: float, n: int = 2, q: int = 3) -> QSCode:
    """Generalized hypercube: q^n vertices (w^{k_1},...,w^{k_n})*sqrt(E/n),
    w = exp(2pi i/q), k in product order, partitioned into q codewords by
    sum(k) mod q."""
    if n < 1 or q < 2:
        raise CatalogError("gamma needs n >= 1 and q >= 2")
    _check_size(n, q, n)
    w = cmath.exp(2j * math.pi / q)
    ks = np.indices((q,) * n).reshape(n, -1).T
    points = np.array([w ** k for k in range(q)])[ks] * math.sqrt(E / n)
    return _partitioned(E, points, ks.sum(axis=1) % q)


def _build_beta(E: float, n: int = 2, q: int = 3) -> QSCode:
    """Generalized orthoplex: q*n vertices w^k sqrt(E) e_j, partitioned into
    q codewords by the phase residue k."""
    if n < 1 or q < 2:
        raise CatalogError("beta needs n >= 1 and q >= 2")
    _check_size(n, q * n)
    w = cmath.exp(2j * math.pi / q)
    r = math.sqrt(E)
    return _partitioned(E, *_axis_points(n, [[r * w ** k] for k in range(q)]))


def _build_hessian(E: float) -> QSCode:
    """27-vertex exceptional complex polytope in C^3, partitioned into three
    9-point codewords by the phase residue of the nonzero coordinates.

    The vertices are (0, w^a, -w^b) and its cyclic shifts, w = exp(2pi i/3),
    by shift, then a, then b: the standard coordinatization, each of squared
    norm 2.  The class is (a + b) mod 3: the cyclic mode shift fixes each
    9-point class, the joint rotation diag(w, w, w) cycles them, and all
    diagonal moments match across classes (the classes are distinguished only
    by the off-diagonal z_i z_j moments).
    """
    w = cmath.exp(2j * math.pi / 3.0)
    powers = np.array([w ** k for k in range(3)])
    shift, a, b = np.indices((3, 3, 3)).reshape(3, -1)
    vertices = np.zeros((27, 3), dtype=np.complex128)
    vertices[np.arange(27), (shift + 1) % 3] = powers[a]
    vertices[np.arange(27), (shift + 2) % 3] = -powers[b]
    return _partitioned(E, vertices * math.sqrt(E / 2.0), (a + b) % 3)


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
    entries = [CatalogEntry(name, modes, points, K, dict(params), desc)
               for name, params, (modes, points, K), desc in _DEFAULT_ENTRIES]
    for entry in entries:   # each entry's own dict, filled before it is handed out
        entry.expected_properties.update(expected.get(entry.entry_id, {}))
    return entries
