"""Shared fixtures: the worked example substitutions used across the suite."""

from __future__ import annotations

import random
import string
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from substdyn import (
    Alphabet,
    PreconditionError,
    Substitution,
    pure_base,
)
from substdyn.core import is_primitive

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

#: x_i -> x_{i+1} x0 on the 300 letters x0 .. x299, indices mod 300: height
#: 1, uint16 letters, a kernel monoid of 600 elements, 300 of them constant.
WIDE_ALPHABET_RULES = {f"x{i}": [f"x{(i + 1) % 300}", "x0"] for i in range(300)}


def patch_recurrence(monkeypatch, bad=lambda call: False) -> list[tuple[int, bool, int]]:
    """Wrap ``matrices._recurrence`` to record (p, full, terms) of every
    call, terms being the Krylov terms it ran, and to add 1 mod p to the
    constant term of call number ``call`` (from 0) whenever ``bad(call)``.

    A Krylov step is the one ``np.add.reduceat`` call of ``matrices``, so
    ``matrices.np`` is replaced by numpy with that call counted."""
    from substdyn import matrices

    recurrence, calls, steps = matrices._recurrence, [], [0]

    def reduceat(*args):
        steps[0] += 1
        return np.add.reduceat(*args)

    class CountingNumpy:
        add = types.SimpleNamespace(reduceat=reduceat)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(matrices, "np", CountingNumpy())

    def wrapped(rows, p, full):
        before = steps[0]
        poly = recurrence(rows, p, full)
        terms = steps[0] - before
        if bad(len(calls)):
            poly[-1] = (poly[-1] + 1) % p
        calls.append((p, full, terms))
        return poly

    monkeypatch.setattr(matrices, "_recurrence", wrapped)
    return calls


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


def height_two_draw(rng: random.Random) -> Substitution:
    """A primitive draw of height 2: letters of two classes, k odd.

    Position r of the image of a letter of class c holds a letter of class
    c + r mod 2, so the fixed point alternates the classes.
    """
    while True:
        size = rng.choice((4, 6, 8))
        k = rng.choice((3, 5))
        rules = tuple(
            tuple(2 * rng.randrange(size // 2) + (a + r) % 2 for r in range(k))
            for a in range(size)
        )
        candidate = Substitution(Alphabet("abcdefgh"[:size]), rules)
        try:
            if pure_base(candidate).height_h == 2:
                return candidate
        except PreconditionError:  # not primitive, or a periodic fixed point
            continue


def random_primitive_substitution(
    rng: random.Random, max_letters: int = 4, max_k: int = 4
) -> Substitution:
    """Rejection-sample a primitive substitution with |A| and k in [2, max].

    Draws with a periodic fixed point, whose block substitution is not
    primitive, are rejected as well, so every returned substitution has a
    pure base and can be analyzed.  The letters are a, b, ..., so
    ``max_letters`` is at most 26.
    """
    if not 2 <= max_letters <= len(string.ascii_lowercase):
        raise PreconditionError("max_letters must be in [2, 26]")
    if max_k < 2:
        raise PreconditionError("max_k must be at least 2")
    while True:
        size = rng.randint(2, max_letters)
        k = rng.randint(2, max_k)
        alphabet = Alphabet(tuple(string.ascii_lowercase[:size]))
        rules = tuple(
            tuple(rng.randrange(size) for _ in range(k)) for _ in range(size)
        )
        candidate = Substitution(alphabet, rules)
        if not is_primitive(candidate):
            continue
        try:
            pure_base(candidate)
        except PreconditionError:
            continue
        return candidate


def wide_draw(rng: random.Random) -> Substitution:
    """A primitive draw on 40 letters named l0 .. l39, with k in 2..4."""
    alphabet = Alphabet(f"l{i}" for i in range(40))
    while True:
        k = rng.randint(2, 4)
        rules = tuple(tuple(rng.randrange(40) for _ in range(k)) for _ in range(40))
        candidate = Substitution(alphabet, rules)
        if is_primitive(candidate):
            return candidate


def sweep_draw(draw: int) -> Substitution:
    """Draw number ``draw`` of the seeded sweeps against the oracles.

    Every fifth draw has height 2 and every tenth, shifted by one, has 40
    letters; the rest come from random_primitive_substitution.
    """
    rng = random.Random(7700 + draw)
    if draw % 5 == 0:
        return height_two_draw(rng)
    if draw % 10 == 1:
        return wide_draw(rng)
    return random_primitive_substitution(rng, max_letters=8, max_k=5)


@pytest.fixture(params=sorted(EXAMPLE_RULES))
def example_name(request) -> str:
    return request.param


@pytest.fixture
def example_subst(example_name: str) -> Substitution:
    return example(example_name)
