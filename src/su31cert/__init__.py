"""Certification toolkit for real-trace subgroups of SU(3,1).

Given certified generators, the engine constructs an explicit conjugator
into the real form SO(3,1) or the block group SU(1,1)xSU(2) and certifies it
at the generators; only when that fails does it scan reduced words for one
with non-real trace.  Every claim comes with a residual certificate.
Supporting modules expose the underlying complex hyperbolic geometry: the
indefinite Hermitian form, element classification and normal forms, the
Siegel/Heisenberg boundary model, and the Cartan angular invariant.
"""

from .config import AnalysisConfig
from .hermitian import (
    J,
    BoundaryPoint,
    GroupElement,
    HorosphericalPoint,
    NotInGroup,
    herm_inner,
    heisenberg_mul,
    is_su31,
    siegel_embed,
    siegel_infinity,
    siegel_origin,
    verify_inverse_identities,
)
from .elements import (
    CharPoly,
    ElementType,
    LoxodromicNormalForm,
    char_poly,
    classify,
    eigen_solve,
    is_selfdual,
    normalize_loxodromic,
)
from .cartan import BoundaryTriple, cartan_invariant, triple_geometry
from .tracefield import (
    TraceReport,
    enumerate_words,
    entry_reality_check,
    lemma22_branch,
    pairwise_reality_checks,
    trace_reality_report,
)
from .engine import ClassificationResult, classify_group

__all__ = [
    "AnalysisConfig",
    "J",
    "BoundaryPoint",
    "BoundaryTriple",
    "CharPoly",
    "ClassificationResult",
    "ElementType",
    "GroupElement",
    "HorosphericalPoint",
    "LoxodromicNormalForm",
    "NotInGroup",
    "TraceReport",
    "cartan_invariant",
    "char_poly",
    "classify",
    "classify_group",
    "eigen_solve",
    "enumerate_words",
    "entry_reality_check",
    "heisenberg_mul",
    "herm_inner",
    "is_selfdual",
    "is_su31",
    "lemma22_branch",
    "normalize_loxodromic",
    "pairwise_reality_checks",
    "siegel_embed",
    "siegel_infinity",
    "siegel_origin",
    "trace_reality_report",
    "triple_geometry",
    "verify_inverse_identities",
]

__version__ = "0.1.0"
