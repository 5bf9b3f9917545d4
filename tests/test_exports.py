"""The public surface of ``substdyn``: the names README lists, no more,
and the budget constants README quotes."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import substdyn

README = Path(__file__).resolve().parent.parent / "README.md"

# the 21 names of README's "Other entry points of note"; the surface may
# shrink, and a name added here is a documented API change
EXPORTS = [
    "Alphabet",
    "AnalysisReport",
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


def test_readme_constants_match_the_modules():
    # each `NAME = 2**N` in README, NAME bare or qualified by its module,
    # is a constant of that value in the module or modules that define it
    modules = [
        importlib.import_module(f"substdyn.{info.name}")
        for info in pkgutil.iter_modules(substdyn.__path__)
    ]
    text = README.read_text(encoding="utf-8")
    quoted = re.findall(r"`((?:\w+\.)*)([A-Z][A-Z0-9_]*) = 2\*\*(\d+)`", text)
    assert quoted
    for qualifier, name, power in quoted:
        owners = [importlib.import_module(qualifier[:-1])] if qualifier else [
            module for module in modules if name in vars(module)
        ]
        assert owners, name
        for module in owners:
            assert getattr(module, name) == 2 ** int(power), (module.__name__, name)
