from __future__ import annotations

import cmath
import math
from typing import Optional

import numpy as np
import pytest

import qsc
from qsc.constellation import TOL_POINT
from qsc.symmetries import _match_images


@pytest.fixture
def two_legged():
    return qsc.build("cat", 4.0, S=1, K=2)


@pytest.fixture
def four_legged():
    return qsc.build("cat", 4.0, S=2, K=2)


@pytest.fixture
def cat33():
    return qsc.build("cat", 4.0, S=3, K=3)


@pytest.fixture
def repetition_css():
    spec = qsc.ClassicalCodeSpec(2, 2, gen_x=[[1, 1]], gen_z=[])
    return qsc.compile_css(spec, 2.0)


def random_three_point_code(alpha: float, seed: int = 20240315) -> qsc.QSCode:
    """Three well-separated points on the radius-alpha circle, K = 3."""
    rng = np.random.default_rng(seed)
    while True:
        thetas = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=3))
        gaps = np.diff(np.concatenate([thetas, [thetas[0] + 2.0 * math.pi]]))
        if np.min(gaps) > 0.5:
            break
    return code_of(1, alpha ** 2, [[[alpha * cmath.exp(1j * t)]] for t in thetas])


def code_of(modes: int, radius_sq: float, codewords) -> qsc.QSCode:
    """The code whose codeword ``label`` holds the amplitude rows
    ``codewords[label]``, in the mapping's order; a list of row lists is
    labeled "0", "1", ... in its order."""
    if not isinstance(codewords, dict):
        codewords = {str(mu): rows for mu, rows in enumerate(codewords)}
    rows = [np.array(r, dtype=np.complex128) for r in codewords.values()]
    return qsc.QSCode(modes, radius_sq, np.concatenate(rows), [len(r) for r in rows],
                      list(codewords))


def rotation_action(code: qsc.QSCode, phases) -> Optional[tuple[int, ...]]:
    """The codeword permutation of the rotation diag(exp(i phases)) when it
    maps the code onto itself, else None: one rotation classified by the
    package's matching pass, at its tolerance."""
    tol = TOL_POINT * math.sqrt(code.radius_sq)
    maps, _, pi = _match_images(code, np.array([phases], dtype=float), tol)
    return tuple(pi[0].tolist()) if maps[0] else None


def constellations_as_lists(code: qsc.QSCode) -> list[list[list[complex]]]:
    return [c.tolist() for c in code.codewords]


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# (q, length, rank of gen_X, rank of gen_Z) of the CSS pairs of the css_catalog
# benchmark: K = q^(length - rx - rz) codewords of q^rx points each, from
# K = 128 singletons to K = 16 codewords of 16 points
CSS_SHAPES = (
    (2, 7, 0, 0), (2, 8, 2, 0), (2, 8, 4, 0),
    (2, 6, 1, 1), (3, 4, 0, 1), (3, 4, 1, 0), (3, 5, 1, 1),
    (2, 5, 0, 0), (3, 5, 2, 0), (2, 6, 1, 0), (2, 7, 2, 0),
    (3, 5, 2, 1), (2, 8, 4, 1), (3, 3, 0, 1), (2, 4, 3, 0),
)


def css_of_shape(q: int, length: int, rx: int, rz: int, alpha: complex = 1.8) -> qsc.QSCode:
    """A compiled CSS code of the given shape: gen_X rows e_i + e_(length-1)
    for i < rx and gen_Z rows e_(rx+j) for j < rz, orthogonal when
    rx + rz < length."""
    unit = np.eye(length, dtype=int)
    gen_x = [unit[i] + unit[length - 1] for i in range(rx)]
    gen_z = [unit[rx + j] for j in range(rz)]
    return qsc.compile_css(qsc.ClassicalCodeSpec(q, length, gen_x, gen_z), alpha)
