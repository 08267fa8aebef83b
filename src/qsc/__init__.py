"""Quantum spherical codes: constellations of coherent states on a sphere,
their design and error-detection analysis, and their channel fidelities with
transpose recovery: loss exactly in the coherent frame for any number of
modes, dephasing with exact Kraus operators on a truncated Fock space."""

from .constellation import (
    PassiveUnitary,
    QSCode,
    QscError,
    DimensionMismatchError,
    CodeFormatError,
    Violation,
    code_from_json,
    code_to_json,
    min_separation,
    validate_code,
)
from .moments import (
    BudgetExceededError,
    DesignReport,
    design_strength,
    sphere_average,
)
from .kl import (
    DetectionReport,
    DetectionRow,
    MonomialError,
    dephasing_kl_matrix,
    detection_report,
    kl_matrix,
    stirling2,
)
from .symmetries import (
    SymmetryAction,
    VanishingPolynomial,
    classify_symmetry,
    enumerate_phase_symmetries,
    vanishing_ideal,
    verify_jump_annihilates,
)
from .catalog import CatalogEntry, CatalogError, build, list_catalog
from .css import ClassicalCodeSpec, CssError, CssProperties, compile_css, css_properties
from .fock import (
    FockConfig,
    KrausCompletenessError,
    TruncationError,
    dephasing_channel_fidelity,
    embed_codewords,
    loss_channel_fidelity,
)

__version__ = "0.1.0"
