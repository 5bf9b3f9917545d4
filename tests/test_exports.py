"""The public surface of ``substdyn``: the names README lists, no more."""

from __future__ import annotations

import substdyn

# the 22 names of README's "Other entry points of note"; the surface may
# shrink, and a name added here is a documented API change
EXPORTS = [
    "Alphabet",
    "AnalysisReport",
    "COMPARISON_BUDGET",
    "DEFAULT_SEED",
    "EstimationError",
    "InternalError",
    "PreconditionError",
    "ResourceLimitError",
    "SpecParseError",
    "SubstError",
    "Substitution",
    "WORD_BUDGET",
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


def test_all_is_the_documented_surface():
    assert sorted(substdyn.__all__) == EXPORTS


def test_every_export_resolves():
    for name in substdyn.__all__:
        assert hasattr(substdyn, name), name
