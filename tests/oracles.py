"""Independent brute-force reference implementations used only by tests.

Everything here works on plain ``{letter: image}`` dicts of single-character
strings and favors obviousness over speed: words are materialized, columns
are enumerated one by one, and eigenvalues come from numpy.  None of the
package's own machinery is imported, so agreement between the two routes is
meaningful.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

Rules = dict[str, str]


def brute_apply(rules: Rules, word: str) -> str:
    return "".join(rules[ch] for ch in word)


def brute_power(rules: Rules, n: int) -> Rules:
    out = {a: a for a in rules}
    for _ in range(n):
        out = {a: brute_apply(rules, w) for a, w in out.items()}
    return out


def brute_fixed_point(rules: Rules, seed: str, n_symbols: int) -> str:
    word = seed
    while len(word) < n_symbols:
        word = brute_apply(rules, word)[: max(n_symbols, len(word) + 1)]
    return word[:n_symbols]


def brute_diff_count(rules: Rules, a: str, b: str, n: int) -> int:
    wa = brute_power(rules, n)[a]
    wb = brute_power(rules, n)[b]
    assert len(wa) == len(wb)
    return sum(1 for x, y in zip(wa, wb) if x != y)


def brute_pair_matrix(rules: Rules) -> tuple[list[tuple[str, str]], np.ndarray]:
    """Incidence matrix of the pair substitution, pairs in lexicographic order."""
    letters = sorted(rules)
    pairs = list(combinations(letters, 2))
    index = {p: i for i, p in enumerate(pairs)}
    m = np.zeros((len(pairs), len(pairs)), dtype=np.int64)
    for a, b in pairs:
        for x, y in zip(rules[a], rules[b]):
            if x != y:
                m[index[tuple(sorted((x, y)))], index[(a, b)]] += 1
    return pairs, m


def brute_lambda_s(rules: Rules) -> float:
    """Spectral radius of the full pair matrix (assumes height 1)."""
    pairs, m = brute_pair_matrix(rules)
    if not pairs:
        return 0.0
    return float(max(abs(np.linalg.eigvals(m))))


def brute_column_count(rules: Rules, m: int) -> int:
    """Number of nonconstant columns of phi^m, counted one by one."""
    power = brute_power(rules, m)
    letters = sorted(rules)
    length = len(next(iter(power.values())))
    count = 0
    for j in range(length):
        images = {power[a][j] for a in letters}
        if len(images) > 1:
            count += 1
    return count


def brute_column_sets(rules: Rules) -> set[frozenset[str]]:
    letters = frozenset(rules)
    k = len(next(iter(rules.values())))
    seen = {letters}
    frontier = [letters]
    while frontier:
        current = frontier.pop()
        for j in range(k):
            image = frozenset(rules[a][j] for a in current)
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


def brute_height(rules: Rules, n_symbols: int = 1 << 15) -> int:
    """Coprime part of the gcd of return times of x_0 in a long prefix.

    x is the fixed point of phi^p at the first letter, in rule order, that
    lies on a cycle of the first-letter map; p is that cycle's length.
    """
    first = {a: w[0] for a, w in rules.items()}

    def cycle_length(a: str) -> int:
        b, p = first[a], 1
        while b != a and p <= len(rules):
            b, p = first[b], p + 1
        return p if b == a else 0

    seed = next(a for a in rules if cycle_length(a))
    x = brute_fixed_point(brute_power(rules, cycle_length(seed)), seed, n_symbols)
    k = len(next(iter(rules.values())))
    g = 0
    for pos in range(1, len(x)):
        if x[pos] == x[0]:
            g = math.gcd(g, pos)
    while (d := math.gcd(g, k)) > 1:
        g //= d
    return g


def brute_is_primitive(rules: Rules, horizon: int = 12) -> bool:
    letters = sorted(rules)
    reach = {a: set(rules[a]) for a in letters}
    for _ in range(horizon):
        if all(len(reach[a]) == len(letters) for a in letters):
            return True
        reach = {a: {c for b in reach[a] for c in rules[b]} for a in letters}
    return all(len(reach[a]) == len(letters) for a in letters)
