"""Exact and empirical analysis of constant-length substitution systems."""

__version__ = "0.1.0"

from .core import WORD_BUDGET, Alphabet, Substitution
from .discrepancy import analyze_pairs
from .empirical import (
    lipschitz_ratio_probe,
    separation_profile,
)
from .errors import (
    EstimationError,
    InternalError,
    PreconditionError,
    ResourceLimitError,
    SpecParseError,
    SubstError,
)
from .invariants import (
    DEFAULT_SEED,
    AnalysisReport,
    amorphic_complexity,
    classify,
    kernel_monoid,
    null_witness_search,
    synthesize_target_ac,
)
from .structure import height, pure_base

__all__ = [
    "DEFAULT_SEED",
    "WORD_BUDGET",
    "Alphabet",
    "AnalysisReport",
    "EstimationError",
    "InternalError",
    "PreconditionError",
    "ResourceLimitError",
    "SpecParseError",
    "SubstError",
    "Substitution",
    "amorphic_complexity",
    "analyze_pairs",
    "classify",
    "height",
    "kernel_monoid",
    "lipschitz_ratio_probe",
    "null_witness_search",
    "pure_base",
    "separation_profile",
    "synthesize_target_ac",
]
