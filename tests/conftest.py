"""Shared fixtures: the worked example substitutions used across the suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from substdyn import Substitution

from oracles import tuple_power

EXAMPLE_RULES: dict[str, dict[str, str]] = {
    "e1": {"a": "aac", "b": "acc", "c": "aab"},
    "e2": {"a": "baac", "b": "bbca", "c": "bcba"},
    "e3": {"a": "aaac", "b": "abbb", "c": "accb"},
    "e4": {"0": "010", "1": "102", "2": "201"},
    "e5": {"0": "0012", "1": "1012", "2": "2012"},
    "e6": {"0": "00012", "1": "12012", "2": "20012"},
    "thue_morse": {"a": "ab", "b": "ba"},
    "period_doubling": {"a": "ab", "b": "aa"},
}

#: A 6-letter, k = 3 draw whose kernel monoid has 36,942 elements.
WIDE_KERNEL_RULES = {
    "a": "bbe", "b": "eef", "c": "fdb", "d": "caa", "e": "dff", "f": "acc",
}


def example(name: str) -> Substitution:
    return Substitution.from_strings(EXAMPLE_RULES[name])


def power(subst: Substitution, n: int) -> Substitution:
    """The substitution phi^n, of length k^n."""
    return Substitution(subst.alphabet, tuple_power(subst.rules, n))


def pure_base_single_char(subst: Substitution) -> Substitution:
    """Pure base with letters renamed to single characters (A, B, ...),
    digestible by the string-based oracle helpers."""
    from substdyn import pure_base

    base = pure_base(subst).pure_base
    fresh = "ABCDEFGH"
    rename = {
        letter: fresh[i] for i, letter in enumerate(base.alphabet.letters)
    }
    rules = {
        rename[letter]: "".join(
            rename[base.alphabet.letters[s]] for s in base.rules[i]
        )
        for i, letter in enumerate(base.alphabet.letters)
    }
    return Substitution.from_strings(rules)


@pytest.fixture(params=sorted(EXAMPLE_RULES))
def example_name(request) -> str:
    return request.param


@pytest.fixture
def example_subst(example_name: str) -> Substitution:
    return example(example_name)
