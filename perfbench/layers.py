"""Per-layer tracing for the benchmark: spans around every public qsc function.

A layer is one module of the package.  ``Tracer.install`` replaces each public
function of a layer module with a wrapper that records a span (function,
start, end, parent) in memory, and rebinds every name under which a qsc
module holds that function, so calls through ``from .x import f`` (as in
``qsc.cli``) are traced too.  Generator functions are left alone because a
span around one would time only the creation of the generator.

A span's *self time* is its duration minus the time covered by its nearest
descendants in other layers.  A call from a layer into the same layer is not a
layer boundary, so its time stays with the caller: ``kl.detection_report_s``
includes the ``kl_matrix`` calls it makes but not ``moments`` helpers.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "constellation", "catalog", "css", "moments", "kl",
          "symmetries", "fock")

# Per-layer metrics: (name, unit).  Every one is reported by a traced run,
# as a value per pass of the workload's command list.
TIMED_FUNCTIONS = (
    "constellation.code_from_json", "constellation.validate_code",
    "constellation.min_separation", "constellation.code_to_json",
    "catalog.build", "catalog.list_catalog",
    "css.compile_css", "css.css_properties",
    "moments.design_strength",
    "kl.detection_report", "kl.kl_matrix",
    "symmetries.enumerate_phase_symmetries", "symmetries.vanishing_ideal",
    "symmetries.verify_jump_annihilates",
    "fock.loss_channel_fidelity", "fock.dephasing_channel_fidelity",
    "fock.embed_codewords",
)
CALL_COUNTS = {
    "catalog.builds": "catalog.build",
    "css.compile_css_calls": "css.compile_css",
    "kl.kl_matrix_calls": "kl.kl_matrix",
    "kl.codeword_norm_sq_calls": "kl.codeword_norm_sq",
    "symmetries.classify_symmetry_calls": "symmetries.classify_symmetry",
    "fock.embed_codewords_calls": "fock.embed_codewords",
}
RATIOS = ("css.compile_per_spec", "kl.norm_reuse_ratio",
          "symmetries.symmetry_hit_ratio")
COUNTS = ("cli.commands", "constellation.points_validated", "moments.indices",
          "kl.errors_evaluated", "symmetries.ideal_columns", "fock.hilbert_dim",
          "trace.spans")
# Leaf helpers called once per point pair or moment index, only from inside
# their own layer: no metric reads them, and a span per call would multiply
# their callers' traced time.
NOT_TRACED = ("constellation.chordal_distance", "moments.sphere_average")
PER_LAYER_METRICS = (
    [("cli.self_s", "s")]
    + [(f"{fn}_s", "s") for fn in TIMED_FUNCTIONS]
    + [(name, "count") for name in COUNTS]
    + [(name, "count") for name in CALL_COUNTS]
    + [(name, "ratio") for name in RATIOS]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [("trace.overhead_s", "s")]
)


def _index_count(a, result):
    modes = a["code"].modes
    return math.comb(a["t_max"] + 2 * modes, 2 * modes) * a["code"].K


def _spec_key(a, result):
    spec = a["spec"]
    return (spec.q, spec.length, spec.gen_x, spec.gen_z)


# What each traced call adds to the counts, from its arguments (bound by
# parameter name) and its result, taken after the call returns.
CALL_INFO = {
    "constellation.validate_code":
        lambda a, result: sum(len(c) for c in a["code"].codewords),
    "moments.design_strength": _index_count,
    "kl.detection_report": lambda a, result: len(result.rows),
    "kl.codeword_norm_sq": lambda a, result: id(a["c"]),
    "css.compile_css": _spec_key,
    "symmetries.enumerate_phase_symmetries": lambda a, result: len(result),
    "symmetries.vanishing_ideal":
        lambda a, result: math.comb(a["max_degree"] + a["code"].modes, a["code"].modes),
    "fock.embed_codewords": lambda a, result: a["cfg"].dim,
}
# Call infos that add up into a per-pass count.
SUMMED_INFO = {
    "constellation.validate_code": "constellation.points_validated",
    "moments.design_strength": "moments.indices",
    "kl.detection_report": "kl.errors_evaluated",
    "symmetries.enumerate_phase_symmetries": "symmetries.actions_found",
    "symmetries.vanishing_ideal": "symmetries.ideal_columns",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    error: bool = False  # a QscError left this call
    info: object = None  # CALL_INFO value, when the function has one


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus its nearest descendants in other layers.

    A child in another layer is subtracted from its parent and from every
    ancestor reached through an unbroken chain of the parent's layer.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent < 0:
            continue
        layer = layer_of(spans[s.parent].name)
        if layer == layer_of(s.name):
            continue
        duration = s.end - s.start
        up = s.parent
        while up >= 0 and layer_of(spans[up].name) == layer:
            own[up] -= duration
            up = spans[up].parent
    return own


def pass_tallies(spans: list[Span]) -> dict[str, float]:
    """Additive per-pass quantities from one pass's spans."""
    own = self_times(spans)
    tally: dict[str, float] = {"trace.spans": len(spans)}

    def add(key: str, value: float) -> None:
        tally[key] = tally.get(key, 0.0) + value

    norm_owners: dict[int, set] = {}   # top-level command -> codewords normed
    specs: set = set()
    for i, s in enumerate(spans):
        parent = spans[s.parent].name if s.parent >= 0 else None
        layer = layer_of(s.name)
        if parent != s.name:
            add(f"{s.name}_s", own[i])
        add(f"{s.name}.calls", 1)
        boundary = parent is None or layer_of(parent) != layer
        if boundary and layer == "cli":
            add("cli.self_s", own[i])
        # count an error once, where it leaves its layer or is caught there
        if s.error and (boundary or not spans[s.parent].error):
            add(f"{layer}.errors", 1)
        if s.name == "cli.run" and parent is None:
            add("cli.commands", 1)
        if s.info is None:   # no CALL_INFO, or the call raised
            continue
        if s.name in SUMMED_INFO:
            add(SUMMED_INFO[s.name], s.info)
        elif s.name == "kl.codeword_norm_sq":
            top = i
            while spans[top].parent >= 0:
                top = spans[top].parent
            norm_owners.setdefault(top, set()).add(s.info)
        elif s.name == "css.compile_css":
            specs.add(s.info)
        elif s.name == "fock.embed_codewords":
            tally["fock.hilbert_dim"] = max(tally.get("fock.hilbert_dim", 0), s.info)
    add("kl.distinct_norms", sum(len(v) for v in norm_owners.values()))
    add("css.distinct_specs", len(specs))
    return tally


def per_layer_metrics(tallies: list[dict[str, float]], overhead_s: float) -> dict:
    """Average the per-pass tallies into the reported per-layer metrics."""
    passes = max(1, len(tallies))
    total: dict[str, float] = {}
    for tally in tallies:
        for key, value in tally.items():
            if key == "fock.hilbert_dim":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0.0) + value

    def ratio(num: str, den: str) -> float:
        return total.get(num, 0.0) / total[den] if total.get(den) else 0.0

    values = {
        "css.compile_per_spec": ratio("css.compile_css.calls", "css.distinct_specs"),
        "kl.norm_reuse_ratio": ratio("kl.distinct_norms", "kl.codeword_norm_sq.calls"),
        "symmetries.symmetry_hit_ratio": ratio("symmetries.actions_found",
                                               "symmetries.classify_symmetry.calls"),
        "fock.hilbert_dim": total.get("fock.hilbert_dim", 0),
        "trace.overhead_s": overhead_s,
    }
    for metric, fn in CALL_COUNTS.items():
        values[metric] = total.get(f"{fn}.calls", 0.0) / passes
    out = {}
    for name, unit in PER_LAYER_METRICS:
        value = values[name] if name in values else total.get(name, 0.0) / passes
        out[name] = {"value": value, "unit": unit}
    return out


@dataclass
class Tracer:
    """Records spans while installed; ``spans`` is emptied by ``take``."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn, error_type):
        stack, clock = self._stack, time.perf_counter
        info_of = CALL_INFO.get(name)
        signature = inspect.signature(fn) if info_of else None

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            index = len(self.spans)
            self.spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if info_of is not None:
                span.info = info_of(signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of every layer module."""
        error_type = importlib.import_module("qsc.constellation").QscError
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qsc.{layer}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(value)
                        and f"{layer}.{attr}" not in NOT_TRACED):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value, error_type)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qsc" and not mod_name.startswith("qsc."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
