"""Seeded inputs for the substdyn benchmark, made without substdyn.

Primitivity is decided here with boolean matrix powers, and no draw is
kept or dropped because of anything the analysis returns, so a change to
the analysis cannot change which inputs a seed produces.
"""

from __future__ import annotations

import math
import random

LETTERS = "abcdefghijklmnopqrstuvwxyz"

#: The eight worked examples of the test suite, as letter -> image.
GOLDEN: dict[str, dict[str, str]] = {
    "e1": {"a": "aac", "b": "acc", "c": "aab"},
    "e2": {"a": "baac", "b": "bbca", "c": "bcba"},
    "e3": {"a": "aaac", "b": "abbb", "c": "accb"},
    "e4": {"0": "010", "1": "102", "2": "201"},
    "e5": {"0": "0012", "1": "1012", "2": "2012"},
    "e6": {"0": "00012", "1": "12012", "2": "20012"},
    "thue_morse": {"a": "ab", "b": "ba"},
    "period_doubling": {"a": "ab", "b": "aa"},
}

_GOLDEN_RATIO = (1 + math.sqrt(5)) / 2

#: Closed-form amorphic complexities; ``math.inf`` when lambda_s = k.
GOLDEN_AC: dict[str, float] = {
    "e1": math.log(3) / (math.log(3) - math.log(_GOLDEN_RATIO)),
    "e2": math.log(4) / (math.log(4) - math.log(3)),
    "e3": 2.0,
    "e4": math.log(3) / (math.log(3) - math.log(2)),
    "thue_morse": math.inf,
}


def synth_target(k: int, n: int, l: int) -> float:
    """ac(k, n, l) = n log k / (n log k - log l)."""
    return n * math.log(k) / (n * math.log(k) - math.log(l))


def is_primitive(rules: list[list[int]]) -> bool:
    """True iff the incidence matrix has an entrywise positive power.

    Squares the boolean adjacency until the exponent passes the Wielandt
    bound (n-1)^2 + 1; a primitive matrix is positive from there on and
    an imprimitive one never is.
    """
    n = len(rules)
    adj = [0] * n
    for a, image in enumerate(rules):
        for b in image:
            adj[a] |= 1 << b
    power, exponent = adj, 1
    while exponent < (n - 1) ** 2 + 1:
        squared = []
        for row in power:
            acc = 0
            for b in range(n):
                if row >> b & 1:
                    acc |= power[b]
            squared.append(acc)
        power, exponent = squared, exponent * 2
    return all(row == (1 << n) - 1 for row in power)


def raw_draw(rng: random.Random, size: int, k: int) -> list[list[int]]:
    """Uniform letters in every image position, redrawn until primitive."""
    while True:
        rules = [[rng.randrange(size) for _ in range(k)] for _ in range(size)]
        if is_primitive(rules):
            return rules


def dekking_draw(rng: random.Random, size: int, k: int) -> list[list[int]]:
    """A primitive draw of height at least 2, for odd k.

    The letters split into two classes c(a) in {0, 1}, and position j of
    phi(a) is drawn from class (c(a) + j) mod 2.  This is Dekking's
    labelling c(phi(a)_j) = (k c(a) + j) mod 2 for odd k, so every return
    time of the fixed point's first letter is even.
    """
    if k % 2 == 0:
        raise ValueError("the height-2 labelling needs an odd length")
    classes = [i % 2 for i in range(size)]
    while True:
        rng.shuffle(classes)
        members = [[a for a in range(size) if classes[a] == c] for c in (0, 1)]
        rules = [
            [rng.choice(members[(classes[a] + j) % 2]) for j in range(k)]
            for a in range(size)
        ]
        if is_primitive(rules):
            return rules


def spec_text(rules: list[list[int]]) -> str:
    """Spec-file text for rules over the letters a, b, c, ..."""
    return "".join(
        f"{LETTERS[a]} -> {''.join(LETTERS[b] for b in image)}\n"
        for a, image in enumerate(rules)
    )


def golden_text(name: str) -> str:
    return "".join(f"{a} -> {image}\n" for a, image in GOLDEN[name].items())
