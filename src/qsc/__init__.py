"""Quantum spherical codes: constellations of coherent states on a sphere,
their design and error-detection analysis, and their channel fidelities with
transpose recovery: loss exactly in the coherent frame for any number of
modes, dephasing with exact Kraus operators on a truncated Fock space.

Importing the package runs none of its layers.  Each public name, and each
layer module as ``qsc.<module>``, is looked up in its module on first use
(PEP 562), so a program pays only for the layers it touches.  A name is read
from its module on every access, never copied here, so it is always the
module's current attribute.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "constellation": ("QSCode", "QscError", "BudgetExceededError",
                      "DimensionMismatchError", "CodeFormatError", "Violation",
                      "code_from_json", "code_to_json", "min_separation", "validate_code"),
    "moments": ("DesignReport", "design_strength", "sphere_average"),
    "kl": ("DetectionReport", "dephasing_kl_matrix", "detection_report", "kl_matrix",
           "stirling2"),
    "symmetries": ("PhaseSymmetries", "VanishingIdeal", "enumerate_phase_symmetries",
                   "vanishing_ideal", "verify_jump_annihilates"),
    "catalog": ("CatalogEntry", "CatalogError", "build", "list_catalog"),
    "css": ("ClassicalCodeSpec", "CssError", "CssProperties", "compile_css", "css_properties"),
    "fock": ("FockConfig", "KrausCompletenessError", "TruncationError",
             "dephasing_channel_fidelity", "embed_codewords", "loss_channel_fidelity"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(importlib.import_module("." + _MODULE_OF[name], __name__), name)
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
