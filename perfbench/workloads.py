"""The benchmark's workloads: seeded inputs, command lists and output checks.

Two workloads run: ``css_catalog`` (the CSS pairs of ``css_detect`` with the
catalog survey of ``catalog_survey`` spread between them) and
``channel_sweep``.  Each workload function takes the seed, a scratch
directory and the imported ``qsc`` package, writes the input files there
(this is part of set-up) and returns the fixed list of ``qsc`` commands one
pass runs.  The seed changes
the inputs' contents, never their sizes, so every seed asks for the same
amount of work.

Every command carries a check that reads its captured output after the timed
region and returns the problems it found; an empty list means the output is
correct.  The references are independent of the code under test:

* design strengths and scaled separations: ``src/qsc/_fixtures/catalog_properties.json``;
* fidelities at the locked loss and dephasing levels: ``tests/fixtures/perf.json``;
* KL matrices and separations: the loop oracles in ``tests/brute_force.py``;
* compiled CSS codewords: the cosets, enumerated here word by word;
* symmetries and vanishing polynomials: re-evaluated here on the code points.

Values that known open defects are expected to change (which vanishing
polynomials are returned, and so the table's jump degrees) are not locked.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BRUTE_FORCE = ROOT / "tests" / "brute_force.py"
CATALOG_FIXTURE = ROOT / "src" / "qsc" / "_fixtures" / "catalog_properties.json"
PERF_FIXTURE = ROOT / "tests" / "fixtures" / "perf.json"
REQUIRED = (ROOT / "src" / "qsc" / "__init__.py", BRUTE_FORCE, CATALOG_FIXTURE, PERF_FIXTURE)

# |lambda| and delta are at most 1 for unit-normalized codewords; the oracle
# and the program sum the same terms in a different order.
KL_ATOL = 1e-9
# `qsc perf` prints fidelities with 12 significant digits.
FIDELITY_ATOL = 1e-10
# `qsc css` prints the separation with 6 significant digits.
SEPARATION_RTOL = 1e-5
# Points are compared at the radius scale (sqrt(E) <= 8 here).
POINT_ATOL = 1e-9
# A vanishing polynomial is accepted when |g(z)| stays below this share of
# the sum of its terms' magnitudes at z (vanishing_ideal's SVD cutoff is 1e-8).
IDEAL_RTOL = 1e-6


@dataclass
class Outcome:
    """One command as it ran: exit code (None if it raised), output, time."""

    rc: int | None
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Command:
    argv: list[str]
    check: Callable[[Outcome], list[str]]
    out_file: Path | None = None   # a file the command writes, read by its check


def brute_force():
    spec = importlib.util.spec_from_file_location("qsc_brute_force", BRUTE_FORCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_code_doc(text: str) -> tuple[int, float, list[list[list[complex]]]]:
    """(modes, radius_sq, constellations) read straight from a code document."""
    doc = json.loads(text)
    cws = [[[complex(re_, im) for re_, im in point] for point in cw["points"]]
           for cw in doc["codewords"]]
    return int(doc["modes"]), float(doc["radius_sq"]), cws


_LABEL_TOKEN = re.compile(r"^(ad|a)(\d+)(?:\^(\d+))?$")


def parse_error_label(label: str, modes: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exponents (r, s) of a normally ordered monomial label such as 'ad1 a2^2'."""
    r, s = [0] * modes, [0] * modes
    if label != "I":
        for token in label.split():
            match = _LABEL_TOKEN.match(token)
            if match is None:
                raise ValueError(f"unreadable error label {label!r}")
            target = r if match.group(1) == "ad" else s
            target[int(match.group(2)) - 1] += int(match.group(3) or 1)
    return tuple(r), tuple(s)


def check_kl_json(outcome: Outcome, modes: int, cws, max_degree: int,
                  sample: list[int], oracle) -> list[str]:
    """Row count and detection degree of a `qsc kl --json` report, and the
    sampled rows' lambda and delta against the brute-force KL matrix."""
    doc = json.loads(outcome.stdout)
    rows = doc["rows"]
    problems = []
    expected_rows = math.comb(2 * modes + max_degree, max_degree)
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} KL rows, expected {expected_rows}")
    degree = -1
    for d in range(max_degree + 1):
        if all(row["delta"] <= doc["tol"] for row in rows if row["degree"] <= d):
            degree = d
        else:
            break
    if doc["detection_degree"] != degree:
        problems.append(f"detection_degree {doc['detection_degree']}, rows give {degree}")
    K = len(cws)
    for index in sample:
        row = rows[index % len(rows)]
        r, s = parse_error_label(row["label"], modes)
        m = np.array(oracle.brute_kl_matrix(cws, r, s))
        lam = np.trace(m) / K
        delta = float(np.max(np.abs(m - lam * np.eye(K))))
        got = complex(*row["lambda"])
        if abs(got - lam) > KL_ATOL or abs(row["delta"] - delta) > KL_ATOL:
            problems.append(f"KL row {row['label']}: lambda {got:.12g} delta {row['delta']:.6g}, "
                            f"oracle {lam:.12g} {delta:.6g}")
    return problems


def _failure(outcome: Outcome) -> list[str]:
    if outcome.rc != 0:
        tail = outcome.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {outcome.rc}: {tail[0][:200]}"]
    return []


def checked(check: Callable[[Outcome], list[str]]) -> Callable[[Outcome], list[str]]:
    """Fail on a non-zero exit first; an unreadable output is a problem too."""
    def run(outcome: Outcome) -> list[str]:
        problems = _failure(outcome)
        if problems:
            return problems
        try:
            return check(outcome)
        except (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return run


# ---------------------------------------------------------------------------
# css_detect
# ---------------------------------------------------------------------------

# (q, length, rank of gen_X, rank of gen_Z): K = q^(length - rx - rz) codewords
# of q^rx points each.  Three large pairs (K = 128 with N = 128, and K = 64
# and K = 16 with N = 256), eight mid-size pairs (K = 16 to 32) and four small
# ones, so that many-small and few-large codewords are both present.
CSS_SHAPES = (
    (2, 7, 0, 0), (2, 8, 2, 0), (2, 8, 4, 0),
    (2, 6, 1, 1), (3, 4, 0, 1), (3, 4, 1, 0), (3, 5, 1, 1),
    (2, 5, 0, 0), (3, 5, 2, 0), (2, 6, 1, 0), (2, 7, 2, 0),
    (3, 5, 2, 1), (2, 8, 4, 1), (3, 3, 0, 1), (2, 4, 3, 0),
)
# Run order as (pair, command) with 0 = `qsc css`, 1 = `qsc kl`: the
# mid-size pairs are spread between the long commands of the large pairs.
CSS_ORDER = (
    (3, 0), (3, 1), (11, 0), (11, 1), (0, 0), (4, 0), (4, 1), (12, 0), (12, 1),
    (5, 0), (5, 1), (0, 1), (6, 0), (6, 1), (13, 0), (13, 1), (1, 0), (7, 0), (7, 1),
    (8, 0), (8, 1), (1, 1), (9, 0), (9, 1), (14, 0), (14, 1), (2, 0), (10, 0), (10, 1),
    (2, 1),
)
KL_SAMPLES_PER_CODE = 2


def _rank_mod(rows: list[list[int]], q: int) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] % q), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], q - 2, q)
        mat[rank] = [(x * inv) % q for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] % q:
                f = mat[i][col]
                mat[i] = [(a - f * b) % q for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _span(rows: list[list[int]], q: int, length: int) -> set[tuple[int, ...]]:
    words = set()
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        words.add(tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) % q
                        for i in range(length)))
    return words


def random_css_pair(rng: np.random.Generator, q: int, length: int, rx: int,
                    rz: int) -> tuple[list[list[int]], list[list[int]]]:
    """Full-rank gen_X, and gen_Z drawn from the words orthogonal to it."""
    while True:
        gen_x = rng.integers(0, q, size=(rx, length)).tolist()
        if _rank_mod(gen_x, q) == rx:
            break
    orthogonal = [w for w in itertools.product(range(q), repeat=length)
                  if any(w) and all(sum(a * b for a, b in zip(w, row)) % q == 0
                                    for row in gen_x)]
    while True:
        picks = rng.choice(len(orthogonal), size=rz, replace=False) if rz else []
        gen_z = [list(orthogonal[i]) for i in picks]
        if _rank_mod(gen_z, q) == rz:
            return gen_x, gen_z


def css_cosets(q: int, length: int, gen_x, gen_z) -> set[frozenset]:
    """The codewords the pair should compile to, as sets of Z_q words: the
    cosets of span(gen_X) inside the words orthogonal to gen_Z."""
    dual = [w for w in itertools.product(range(q), repeat=length)
            if all(sum(a * b for a, b in zip(w, row)) % q == 0 for row in gen_z)]
    c_x = _span(gen_x, q, length)
    return {frozenset(tuple((a + b) % q for a, b in zip(w, x)) for x in c_x) for w in dual}


def _words(cws, q: int, alpha: float) -> set[frozenset] | None:
    """Read each point back as the word b with point = alpha * w^b."""
    out = set()
    for cw in cws:
        words = set()
        for point in cw:
            word = []
            for z in point:
                k = round(np.angle(z) * q / (2 * math.pi)) % q
                if abs(z - alpha * np.exp(2j * math.pi * k / q)) > POINT_ATOL:
                    return None
                word.append(k)
            words.add(tuple(word))
        out.add(frozenset(words))
    return out


def css_detect(seed: int, workdir: Path, qsc) -> list[Command]:
    rng = np.random.default_rng(seed)
    oracle = brute_force()
    pairs = []
    for i, (q, length, rx, rz) in enumerate(CSS_SHAPES):
        gen_x, gen_z = random_css_pair(rng, q, length, rx, rz)
        alpha = round(float(rng.uniform(1.5, 2.5)), 4)
        gx, gz, code = (workdir / f"css{i}_gx.txt", workdir / f"css{i}_gz.txt",
                        workdir / f"css{i}.json")
        gx.write_text("".join(" ".join(map(str, r)) + "\n" for r in gen_x))
        gz.write_text("".join(" ".join(map(str, r)) + "\n" for r in gen_z))
        cosets = css_cosets(q, length, gen_x, gen_z)
        sample = rng.integers(0, 1 << 30, size=KL_SAMPLES_PER_CODE).tolist()

        def check_css(outcome: Outcome, q=q, alpha=alpha, cosets=cosets, code=code):
            _, _, cws = load_code_doc(code.read_text())
            problems = []
            if _words(cws, q, alpha) != cosets:
                problems.append("compiled codewords are not the cosets of C_X in C_Z-dual")
            size = len(next(iter(cosets)))
            fields = dict(re.findall(r"(K|separation)=([0-9.eE+-]+)", outcome.stderr))
            stated = re.search(r"(\d+) points per codeword", outcome.stderr)
            if int(fields["K"]) != len(cosets) or int(stated.group(1)) != size:
                problems.append(f"reported K={fields['K']}, {stated.group(1)} points; "
                                f"expected {len(cosets)}, {size}")
            sep = oracle.brute_min_separation(cws)
            if abs(float(fields["separation"]) - sep) > SEPARATION_RTOL * sep:
                problems.append(f"separation {fields['separation']}, oracle {sep:.9g}")
            return problems

        def check_kl(outcome: Outcome, length=length, code=code, sample=sample):
            _, _, cws = load_code_doc(code.read_text())
            return check_kl_json(outcome, length, cws, 1, sample, oracle)

        pairs.append((
            Command(["css", "--q", str(q), "--gx", str(gx), "--gz", str(gz),
                     "--length", str(length), "--alpha", repr(alpha), "--out", str(code)],
                    checked(check_css), code),
            Command(["kl", "--in", str(code), "--max-degree", "1", "--json"],
                    checked(check_kl), code)))
    return [pairs[i][step] for i, step in CSS_ORDER]


# ---------------------------------------------------------------------------
# catalog_survey
# ---------------------------------------------------------------------------

def check_symmetries(doc: list, cws) -> list[str]:
    """Each reported phase rotation must map every codeword onto the codeword
    its permutation names; the identity must be among them."""
    problems = []
    if not any(not any(action["phases"]) for action in doc):
        problems.append("identity rotation missing")
    arrays = [np.array(cw) for cw in cws]
    for action in doc:
        rot = np.exp(1j * np.array(action["phases"]))
        perm = action["codeword_permutation"]
        for mu, pts in enumerate(arrays):
            target = arrays[perm[mu]]
            dist = np.abs((pts * rot)[:, None, :] - target[None, :, :]).max(axis=2)
            if dist.min(axis=1).max() > POINT_ATOL * 10:
                problems.append(f"rotation {action['phases']} does not map codeword {mu} "
                                f"onto {perm[mu]}")
                break
        kind = "Z-type" if perm == sorted(perm) else "X-type"
        if action["classification"] != kind:
            problems.append(f"rotation {action['phases']} classified "
                            f"{action['classification']}, permutation says {kind}")
    return problems


def check_ideal(doc: list, cws) -> list[str]:
    """Every returned polynomial must vanish on every code point."""
    points = np.array([p for cw in cws for p in cw])
    problems = []
    for g in doc:
        total = np.zeros(len(points), dtype=complex)
        scale = np.zeros(len(points))
        for key, (re_, im) in g["terms"].items():
            exps = [int(e) for e in key.split()]
            term = complex(re_, im) * np.prod(points ** np.array(exps), axis=1)
            total += term
            scale += np.abs(term)
        worst = float(np.max(np.abs(total) / np.maximum(scale, 1e-300)))
        if worst > IDEAL_RTOL:
            problems.append(f"degree-{g['degree']} polynomial leaves relative residual "
                            f"{worst:.3e}")
        if abs(g["residual"] - float(np.max(np.abs(total)))) > IDEAL_RTOL * float(np.max(scale)):
            problems.append(f"reported residual {g['residual']:.3e}, "
                            f"recomputed {np.max(np.abs(total)):.3e}")
    return problems


def catalog_survey(seed: int, workdir: Path, qsc) -> list[Command]:
    rng = np.random.default_rng(seed)
    oracle = brute_force()
    fixture = json.loads(CATALOG_FIXTURE.read_text())
    commands = []
    entries = qsc.list_catalog()
    for i, entry in enumerate(entries):
        energy = round(float(rng.uniform(1.0, 16.0)), 3)
        path = workdir / f"catalog{i}.json"
        text = qsc.code_to_json(entry.build(energy))
        path.write_text(text)
        modes, _, cws = load_code_doc(text)
        expected = fixture[entry.entry_id]
        options = [part for key, value in sorted(entry.params.items())
                   for part in (f"--{key}", str(value))]
        sample = rng.integers(0, 1 << 30, size=KL_SAMPLES_PER_CODE).tolist()

        def check_build(outcome: Outcome, text=text, entry=entry):
            modes_, radius_sq, built = load_code_doc(outcome.stdout)
            problems = []
            if json.loads(outcome.stdout) != json.loads(text):
                problems.append("built code differs from the set-up build")
            if (len(built), sum(map(len, built)), modes_) != (
                    entry.num_codewords, entry.num_points, entry.modes):
                problems.append("built code has the wrong K, N or mode count")
            return problems

        def check_design(outcome: Outcome, expected=expected):
            doc = json.loads(outcome.stdout)
            want = (min(expected["t_sphere"], 8), min(expected["t_match"], 8))
            got = (doc["t_sphere"], doc["t_match"])
            return [] if got == want else [f"strengths {got}, fixture gives {want}"]

        def check_kl(outcome: Outcome, modes=modes, cws=cws, sample=sample):
            return check_kl_json(outcome, modes, cws, 2, sample, oracle)

        commands += [
            Command(["build", "--name", entry.name, "--energy", repr(energy)] + options,
                    checked(check_build)),
            Command(["design", "--in", str(path), "--tmax", "8", "--json"],
                    checked(check_design)),
            Command(["kl", "--in", str(path), "--max-degree", "2", "--json"],
                    checked(check_kl)),
            Command(["symmetries", "--in", str(path), "--max-order", "8", "--json"],
                    checked(lambda o, cws=cws: check_symmetries(json.loads(o.stdout), cws))),
            Command(["ideal", "--in", str(path), "--max-degree", "6", "--json"],
                    checked(lambda o, cws=cws: check_ideal(json.loads(o.stdout), cws))),
        ]
    table_energy = round(float(rng.uniform(1.0, 16.0)), 3)
    shapes = {e.entry_id: (e.modes, e.num_codewords) for e in entries}

    def check_table(outcome: Outcome):
        rows = json.loads(outcome.stdout)
        problems = []
        if [row["code"] for row in rows] != list(shapes):
            problems.append("table rows do not list the catalog in order")
        for row in rows:
            want = fixture[row["code"]]
            if (int(row["modes"]), int(row["K"])) != shapes[row["code"]]:
                problems.append(f"{row['code']}: wrong modes or K")
            if (int(row["t_sphere"]), int(row["t_match"])) != (
                    min(want["t_sphere"], 6), min(want["t_match"], 6)):
                problems.append(f"{row['code']}: strengths differ from the fixture")
            if want["min_separation"] is None:
                if row["min_separation"] != "-":
                    problems.append(f"{row['code']}: separation reported for K=1")
            else:
                sep = want["min_separation"] * math.sqrt(table_energy)
                if abs(float(row["min_separation"]) - sep) > 1e-9 * sep:
                    problems.append(f"{row['code']}: separation {row['min_separation']}, "
                                    f"fixture gives {sep:.12g}")
        return problems

    commands.append(Command(["table", "--energy", repr(table_energy), "--json"],
                            checked(check_table)))
    return commands


# ---------------------------------------------------------------------------
# channel_sweep
# ---------------------------------------------------------------------------

LOCKED_SIGMA = 0.1
TWO_MODE_LOSS_POINTS = 10


def check_perf(outcome: Outcome, level_key: str, spec: str, locked: dict[float, float],
               falling: bool) -> list[str]:
    """Levels as requested, fidelities in (0, 1], locked points equal to the
    fixture, and for a loss sweep a fidelity that falls as gamma grows."""
    rows = json.loads(outcome.stdout)
    parts = [float(x) for x in spec.split(":")]
    levels = np.linspace(parts[0], parts[1], int(parts[2])) if len(parts) == 3 else parts
    problems = []
    if len(rows) != len(levels) or any(abs(r[level_key] - x) > 1e-12
                                       for r, x in zip(rows, levels)):
        return [f"levels {[r[level_key] for r in rows]}, requested {list(levels)}"]
    fids = [r["fidelity"] for r in rows]
    if not all(0.0 < f <= 1.0 + 1e-9 for f in fids):
        problems.append(f"fidelity outside (0, 1]: {fids}")
    for r in rows:
        for level, want in locked.items():
            if abs(r[level_key] - level) < 1e-15 and abs(r["fidelity"] - want) > FIDELITY_ATOL:
                problems.append(f"{level_key}={level}: fidelity {r['fidelity']!r}, "
                                f"fixture {want!r}")
    if falling and any(b >= a for a, b in zip(fids, fids[1:])):
        problems.append(f"loss fidelity does not fall with gamma: {fids}")
    return problems


def channel_sweep(seed: int, workdir: Path, qsc) -> list[Command]:
    rng = np.random.default_rng(seed)
    perf = json.loads(PERF_FIXTURE.read_text())
    spec = qsc.ClassicalCodeSpec(2, 2, gen_x=[[1, 1]], gen_z=[])
    codes = {
        "two_legged_E4": qsc.build("cat", 4.0, S=1, K=2),
        "four_legged_E4": qsc.build("cat", 4.0, S=2, K=2),
        "css_rep2_E4": qsc.compile_css(spec, complex(math.sqrt(2.0))),
    }
    paths = {}
    for name, code in codes.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(qsc.code_to_json(code))

    def perf_command(name: str, channel: str, levels: str, locked: dict) -> Command:
        key, flag = ("gamma", "--gammas") if channel == "loss" else ("sigma", "--sigmas")
        return Command(
            ["perf", "--in", str(paths[name]), "--channel", channel, flag, levels, "--json"],
            checked(lambda o: check_perf(o, key, levels, locked, channel == "loss")))

    # The two cats run only at their locked levels.  Their 1-mode commands
    # are made of small matrix products whose time jumps between about 20 ms,
    # 30 ms and 100 ms with the state of OpenBLAS's threads, so they must not
    # hold the median.
    one_mode = []
    for name in ("two_legged_E4", "four_legged_E4"):
        locked = {float(g): v for g, v in perf["loss"][name].items()}
        levels = ":".join(perf["loss"][name]) + f":{len(locked)}"
        one_mode.append(perf_command(name, "loss", levels, locked))
        locked = {LOCKED_SIGMA: perf["dephasing"][f"{name}_sigma{LOCKED_SIGMA}"]}
        one_mode.append(perf_command(name, "dephasing", repr(LOCKED_SIGMA), locked))
    # 2-mode loss at seeded levels: the majority, which holds the median.  The
    # cost grows with the Kraus count per mode, which is 20 for every gamma in
    # this band at cutoff 60, so the seed changes no problem size.
    two_mode_loss = [perf_command("css_rep2_E4", "loss", repr(round(float(g), 4)), {})
                     for g in rng.uniform(0.0091, 0.0107, size=TWO_MODE_LOSS_POINTS)]
    locked = {LOCKED_SIGMA: perf["dephasing"][f"css_rep2_E4_sigma{LOCKED_SIGMA}"]}
    two_mode_dephasing = perf_command("css_rep2_E4", "dephasing", repr(LOCKED_SIGMA), locked)
    # The 2-mode loss points are split around the long dephasing point, so
    # the median samples more than one moment of the machine's speed.
    half = TWO_MODE_LOSS_POINTS // 2
    return one_mode + two_mode_loss[:half] + [two_mode_dephasing] + two_mode_loss[half:]


def css_catalog(seed: int, workdir: Path, qsc) -> list[Command]:
    """css_detect's commands with catalog_survey's spread between them.

    The many short catalog commands hold the median; spread over the whole
    pass, they sample it at every moment rather than in one burst.
    """
    css = css_detect(seed, workdir, qsc)
    catalog = catalog_survey(seed, workdir, qsc)
    merged = []
    for i, cmd in enumerate(css):
        merged.append(cmd)
        merged.extend(catalog[i * len(catalog) // len(css):(i + 1) * len(catalog) // len(css)])
    return merged


WORKLOADS = {
    "css_catalog": css_catalog,
    "channel_sweep": channel_sweep,
}
