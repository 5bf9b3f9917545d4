"""Independent brute-force reference implementations used only by tests.

Everything here works on plain ``{letter: image}`` dicts of single-character
strings (the ``tuple_*`` helpers, ``brute_kernel_monoid``,
``brute_pair_rules`` and the primitivity, erasing and closed-walk oracles
on tuples of int-tuple images, ``brute_pseudometric_compatible`` on index
pairs, ``brute_null_witness_search`` on a tuple of letter indices) and
favors obviousness over speed: words are materialized, columns are
enumerated one by one, and eigenvalues come from numpy.  None of the
package's own machinery is imported, so agreement between the two routes
is meaningful; the one exception is named in ``brute_kernel_listing``.
Matrices are nested lists of ints.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

Rules = dict[str, str]


def brute_apply(rules: Rules, word: str) -> str:
    return "".join(rules[ch] for ch in word)


def brute_power(rules: Rules, n: int) -> Rules:
    out = {a: a for a in rules}
    for _ in range(n):
        out = {a: brute_apply(rules, w) for a, w in out.items()}
    return out


def tuple_power(rules: tuple[tuple[int, ...], ...], n: int) -> tuple[tuple[int, ...], ...]:
    """Images of the n-th power of a substitution on letters 0 .. len(rules)-1.

    ``rules[a]`` is the image of letter a as a tuple of letters; images may
    be empty or uneven, as in a pair substitution.
    """
    out = tuple((a,) for a in range(len(rules)))
    for _ in range(n):
        out = tuple(tuple(b for a in word for b in rules[a]) for word in out)
    return out


def tuple_incidence(rules: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Matrix whose entry (a, b) counts occurrences of letter a in ``rules[b]``."""
    size = len(rules)
    return [[rules[b].count(a) for b in range(size)] for a in range(size)]


def brute_kernel_monoid(
    rules: tuple[tuple[int, ...], ...],
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[bool]]:
    """(elements, words, constant flags) of the column-map monoid, by a queue.

    Each element is visited once, in the order it was found, and composed
    with the generator columns in order; a new map is appended with word
    (r,) + word of its parent, the generator outermost.
    """
    generators = list(zip(*rules))
    identity = tuple(range(len(rules)))
    elements = [identity]
    words: list[tuple[int, ...]] = [()]
    seen = {identity}
    for cursor, tau in enumerate(elements):  # grows while it is read
        for r, gen in enumerate(generators):
            child = tuple(gen[v] for v in tau)  # phi_r . tau
            if child not in seen:
                seen.add(child)
                elements.append(child)
                words.append((r,) + words[cursor])
    return elements, words, [len(set(tau)) == 1 for tau in elements]


def kernel_words(parent: list[int], generator: list[int]) -> list[tuple[int, ...]]:
    """Word of each monoid element from its parent and generator links.

    Element i > 0 is phi_r . (element p) for r = generator[i] and p =
    parent[i] < i, so its word is (r,) + the word of p; element 0 spells ().
    """
    words: list[tuple[int, ...]] = [()]
    for r, p in zip(generator[1:], parent[1:]):
        words.append((r,) + words[p])
    return words


def element_strings(letters, elements) -> list[str]:
    """Labels of column maps: "id" first, "const x" or "a->b, ..." after."""
    out = ["id"]
    for tau in elements[1:]:
        if len(set(tau)) == 1:
            out.append(f"const {letters[tau[0]]}")
        else:
            out.append(", ".join(f"{letters[a]}->{letters[b]}" for a, b in enumerate(tau)))
    return out


def brute_kernel_listing(subst, m_max: int) -> str:
    """Stdout of ``substdyn kernel --m-max m_max`` on a height-1 substitution.

    The monoid, its order and its words come from ``brute_kernel_monoid``;
    only the d_m lines come from the package's ``nonconstant_counts``,
    which the d_m tests check against ``brute_column_count``.
    """
    from substdyn.invariants import nonconstant_counts

    elements, words, flags = brute_kernel_monoid(subst.rules)
    labels = element_strings(subst.alphabet.letters, elements)
    spelled = [" . ".join(f"phi_{r}" for r in word) or "(empty word)" for word in words]
    lines = [f"kernel monoid: {len(elements)} element(s)"]
    lines += [f"  {label:<24} via {word}" for label, word in zip(labels, spelled)]
    lines.append(f"constant elements: {sum(flags)}")
    lines.append("nonconstant column counts:")
    lines += [f"  d_{m} = {d}" for m, d in enumerate(nonconstant_counts(subst, m_max))]
    return "\n".join(lines) + "\n"


def brute_fixed_point(rules: Rules, seed: str, n_symbols: int) -> str:
    word = seed
    while len(word) < n_symbols:
        word = brute_apply(rules, word)[: max(n_symbols, len(word) + 1)]
    return word[:n_symbols]


def brute_fixed_point_prefix(
    rules: tuple[tuple[int, ...], ...], n_symbols: int
) -> tuple[int, ...]:
    """First n symbols of the fixed point of phi^p, grown by list extension.

    The seed is the least letter that the first-letter map a -> rules[a][0]
    brings back to itself, after p steps.  Each application stops once n
    output symbols exist.
    """
    first = [image[0] for image in rules]
    for seed in range(len(rules)):
        x, p = first[seed], 1
        while x != seed and p <= len(rules):
            x, p = first[x], p + 1
        if x == seed:
            break
    if len(rules[seed]) == 1:
        return (seed,) * n_symbols
    prefix = [seed]
    while len(prefix) < n_symbols:
        for _ in range(p):
            out: list[int] = []
            for sym in prefix:
                out.extend(rules[sym])
                if len(out) >= n_symbols:
                    break
            prefix = out[:n_symbols]
    return tuple(prefix[:n_symbols])


def brute_lipschitz_ratio_probe(
    rules: tuple[tuple[int, ...], ...],
    pairs: list[tuple[int, int]],
    samples: int,
    window_n: int,
    seed: int,
) -> float:
    """Minimum ratio of the sampled probe, inf when no pair was accepted.

    The windows are materialised, and every position is looked up in a 2-D
    table of the flagged pairs.
    """
    size = len(rules)
    table = np.zeros((size, size), dtype=bool)
    for a, b in pairs:
        table[a, b] = table[b, a] = True
    m_pool = max(4 * samples, 64)
    prefix = np.array(brute_fixed_point_prefix(rules, m_pool + window_n))

    def density(u, v, filtered):
        hits = table[u, v] if filtered else u != v
        return float(np.count_nonzero(hits)) / len(u)

    rng = random.Random(seed)
    best = math.inf
    accepted = attempts = 0
    while accepted < samples and attempts < 50 * samples:
        attempts += 1
        i, j = rng.randrange(m_pool), rng.randrange(m_pool)
        if i == j:
            continue
        u, v = prefix[i : i + window_n], prefix[j : j + window_n]
        d1 = density(u, v, False)
        if d1 < 0.01:
            continue
        accepted += 1
        best = min(best, density(u, v, True) / d1)
    return best


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


def brute_pair_rules(rules: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Pair rules over int-tuple images, pairs (a, b) with a < b in
    lexicographic order, each differing position looked up in a dict."""
    pairs = list(combinations(range(len(rules)), 2))
    index = {p: i for i, p in enumerate(pairs)}
    return tuple(
        tuple(index[(min(x, y), max(x, y))] for x, y in zip(rules[a], rules[b]) if x != y)
        for a, b in pairs
    )


def brute_pseudometric_compatible(pairs: list[tuple[int, int]], size: int) -> bool:
    """True iff for every {a, b} in ``pairs`` and every third letter c, at
    least one of {a, c}, {b, c} is in ``pairs``: the complement of the set
    is transitive.  Pairs are (lo, hi) with lo < hi."""
    in_s = set(pairs)
    for a, b in pairs:
        for c in range(size):
            if c in (a, b):
                continue
            if (min(a, c), max(a, c)) not in in_s and (min(b, c), max(b, c)) not in in_s:
                return False
    return True


def brute_null_witness_search(
    prefix: tuple[int, ...], t: int, window: int
) -> tuple[tuple[int, ...], tuple[int, int]] | None:
    """(gaps, (a, b)) of the first witness that {a,b}^t occurs along the
    gaps, or None: the set of patterns per gap set, then a t-bit mask per
    letter pair, gap sets and pairs in lexicographic order."""
    letters = sorted(set(prefix))
    want = 1 << t
    for gaps in combinations(range(window), t):
        reach = gaps[-1]
        patterns = set()
        for s in range(len(prefix) - reach):
            patterns.add(tuple(prefix[s + g] for g in gaps))
        for a, b in combinations(letters, 2):
            seen = 0
            for pattern in patterns:
                if all(v in (a, b) for v in pattern):
                    code = 0
                    for v in pattern:
                        code = (code << 1) | (1 if v == b else 0)
                    seen |= 1 << code
            if seen == (1 << want) - 1:
                return gaps, (a, b)
    return None


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


def brute_graph_condition(rules: Rules) -> bool:
    """The graph condition on the column-set graph, by boolean reachability.

    Vertices are the column sets of two letters or more, with one edge per
    column map whose image also has two letters or more.  Each strongly
    connected piece with an internal edge must be a simple cycle: each of
    its vertices has exactly one internal edge out, labels counted apart.
    """
    k = len(next(iter(rules.values())))
    wide = [s for s in brute_column_sets(rules) if len(s) >= 2]
    images = {s: [frozenset(rules[a][j] for a in s) for j in range(k)] for s in wide}
    targets = {s: [t for t in images[s] if len(t) >= 2] for s in wide}
    reach = {}
    for s in wide:
        seen = {s}
        stack = [s]
        while stack:
            for t in targets[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        reach[s] = seen
    for s in wide:
        piece = {t for t in reach[s] if s in reach[t]}
        inside = [sum(u in piece for u in targets[t]) for t in piece]
        if any(inside) and any(d != 1 for d in inside):
            return False
    return True


def brute_images_coincide(rules: Rules) -> bool:
    """True iff phi^n(a) = phi^n(b) for all letters a, b and some n.

    phi^n(a) = phi^n(b) iff the images of a and b agree letter by letter
    after n - 1 more steps, so the set of coinciding pairs grows as a
    monotone fixpoint; if every pair coincides, it does within #pairs steps.
    """
    pairs = list(combinations(sorted(rules), 2))
    equal: set[tuple[str, str]] = set()
    for _ in range(len(pairs) + 1):
        equal = {
            (a, b)
            for a, b in pairs
            if all(
                x == y or (min(x, y), max(x, y)) in equal
                for x, y in zip(rules[a], rules[b])
            )
        }
    return len(equal) == len(pairs)


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


def boolean_power_is_primitive(rules: tuple[tuple[int, ...], ...]) -> bool:
    """True iff a power of the incidence matrix is entrywise positive.

    Squares the boolean matrix in numpy until the exponent reaches the
    Wielandt bound (n - 1)^2 + 1: a primitive matrix is positive from that
    power on, and a power of any other matrix never is.
    """
    n = len(rules)
    power = np.zeros((n, n), dtype=np.int64)
    for a, rule in enumerate(rules):
        power[a, list(rule)] = 1
    exponent = 1
    while exponent < (n - 1) ** 2 + 1:
        power = (power @ power > 0).astype(np.int64)
        exponent *= 2
    return bool(power.all())


def kleene_erasing(rules: tuple[tuple[int, ...], ...]) -> frozenset[int]:
    """Least fixed point of "every entry of my rule is erasing".

    Kleene iteration from the empty set, one numpy round per step, for
    len(rules) steps: each step that changes the set adds a letter, so the
    fixed point is reached by then.
    """
    n = len(rules)
    width = max(map(len, rules), default=0)
    table = np.full((n, width), n)  # index n is padding, always erasing
    for p, rule in enumerate(rules):
        table[p, : len(rule)] = rule
    erasing = np.zeros(n + 1, dtype=bool)
    erasing[n] = True
    for _ in range(n):
        erasing[:n] = erasing[table].all(axis=1)
    return frozenset(np.flatnonzero(erasing[:n]).tolist())


def closed_walk_rate_at_most_one(rules: tuple[tuple[int, ...], ...]) -> bool:
    """True iff the incidence matrix has spectral radius at most 1.

    Decided by counting closed walks, capped at 2, for lengths up to n^2:
    the radius exceeds 1 iff some letter v starts two different closed
    walks of lengths a, b <= n, and then both go around to length ab.
    """
    n = len(rules)
    m = np.array(tuple_incidence(rules), dtype=np.int64).reshape(n, n)
    power = np.eye(n, dtype=np.int64)
    for _ in range(n * n):
        power = np.minimum(power @ m, 2)
        if (np.diagonal(power) == 2).any():
            return False
    return True


def faddeev_leverrier(rows: list[list[int]]) -> tuple[int, ...]:
    """Coefficients (monic, descending powers) of det(tI - M), O(n^4).

    Faddeev-LeVerrier over Python integers: M_1 = M, c_s = -tr(M_s)/s,
    M_{s+1} = M (M_s + c_s I); every division is asserted exact.
    """
    n = len(rows)
    coeffs = [1]
    work = [list(row) for row in rows]
    for step in range(1, n + 1):
        trace = sum(work[i][i] for i in range(n))
        assert trace % step == 0, "Faddeev-LeVerrier produced a non-exact division"
        c = -(trace // step)
        coeffs.append(c)
        if step == n:
            break
        for i in range(n):
            work[i][i] += c
        work = [
            [sum(rows[i][t] * work[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return tuple(coeffs)


def krylov_rank(rows: list[list[int]]) -> int:
    """Rank of [1, M 1, ..., M^n 1] over the rationals: the degree of the
    minimal polynomial of the all-ones vector.

    Gaussian elimination on Fractions, one Krylov vector at a time, each
    reduced against the pivot rows kept so far.  The first vector in the
    span of the earlier ones ends it: their span is then M-invariant.
    """
    n = len(rows)
    pivots: list[tuple[int, list[Fraction]]] = []
    vector = [1] * n
    for _ in range(n + 1):
        v = [Fraction(x) for x in vector]
        for col, pivot in pivots:
            if v[col]:
                factor = v[col] / pivot[col]
                v = [a - factor * b for a, b in zip(v, pivot)]
        lead = next((i for i, a in enumerate(v) if a), None)
        if lead is None:
            break
        pivots.append((lead, v))
        vector = [sum(rows[i][j] * vector[j] for j in range(n)) for i in range(n)]
    return len(pivots)


def dense_spectral_radius(rows, tol: float = 1e-10, cap: int = 10**5) -> float:
    """Perron root by power iteration on the dense M + I, every zero included.

    The same float recurrence as ``matrices.spectral_radius``, which sums
    only the nonzeros: a zero term adds exactly +0.0 to a positive sum, so
    the two must agree bit for bit.
    """
    n = len(rows)
    if n == 0:
        return 0.0
    if n == 1:
        return float(rows[0][0])
    shifted = [[float(rows[i][j]) + (1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
    v = [1.0] * n
    for _ in range(cap):
        y = [0.0] * n
        for i in range(n):
            for j in range(n):  # left to right: sum() is compensated from 3.12
                y[i] += shifted[i][j] * v[j]
        ratios = [y[i] / v[i] for i in range(n)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo < tol:
            return (lo + hi) / 2.0 - 1.0
        top = max(y)
        v = [max(y[i] / top, 1e-300) for i in range(n)]
    raise AssertionError(f"power iteration did not converge on a matrix of order {n}")


def recursive_growth_types(
    radii: tuple[float, ...],
    condensation: tuple[tuple[int, ...], ...],
    component_of: tuple[int, ...],
    erasing: frozenset[int],
    tol: float = 1e-9,
) -> list[tuple[float, int]]:
    """(rate, degree) of every index by recursion over a condensation DAG.

    The rate of an index is the largest radius reachable from its component;
    the degree is one less than the most components with a radius within
    ``tol`` of that rate on one condensation path, counted by a recursion
    memoised on (component, rate).  Erasing indices get (0.0, 1).  The
    recursion is as deep as the longest condensation path.
    """
    max_reach: dict[int, float] = {}

    def reach(ci: int) -> float:
        if ci not in max_reach:
            max_reach[ci] = max([radii[ci]] + [reach(cj) for cj in condensation[ci]])
        return max_reach[ci]

    path_counts: dict[tuple[int, float], int] = {}

    def count_on_path(ci: int, rate: float) -> int:
        key = (ci, rate)
        if key not in path_counts:
            own = 1 if abs(radii[ci] - rate) <= tol else 0
            below = max((count_on_path(cj, rate) for cj in condensation[ci]), default=0)
            path_counts[key] = own + below
        return path_counts[key]

    out = []
    for a, ci in enumerate(component_of):
        if a in erasing:
            out.append((0.0, 1))
        else:
            rate = reach(ci)
            out.append((rate, count_on_path(ci, rate) - 1))
    return out


def orbit_windows(
    rules: tuple[tuple[int, ...], ...], m_points: int, window_n: int
) -> np.ndarray:
    """Windows of one long fixed-point prefix standing in for orbit points.

    Row i is ``x[i : i + window_n]`` for i < m_points: a read-only view into
    one int16 array of m_points + window_n symbols.
    """
    prefix = np.array(brute_fixed_point_prefix(rules, m_points + window_n), np.int16)
    return sliding_window_view(prefix, window_n)[:m_points]


def pair_filter_table(size: int, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Boolean lookup P[a, b] = True iff {a, b} is one of the given pairs."""
    table = np.zeros((size, size), dtype=bool)
    for a, b in pairs:
        table[a, b] = table[b, a] = True
    return table


def mismatch_density(
    a: np.ndarray, b: np.ndarray, pair_filter: np.ndarray | None = None
) -> float:
    """Fraction of positions where two equal-length windows disagree.

    With a filter, only positions whose unordered letter pair is flagged
    count; that is the sampled version of the S-restricted density.
    """
    if pair_filter is None:
        return float(np.count_nonzero(a != b)) / len(a)
    return float(np.count_nonzero(pair_filter[a, b])) / len(a)


def brute_mismatch_counts(windows: np.ndarray) -> np.ndarray:
    """Plain mismatch counts between all rows, one row of pairs at a time."""
    return np.array([np.count_nonzero(windows != row, axis=1) for row in windows])


def brute_greedy_count(density: np.ndarray, nu: float) -> int:
    """Greedy nu-separated subset in index order, tested against every kept index."""
    kept: list[int] = []
    for idx in range(density.shape[0]):
        if all(density[idx, j] >= nu for j in kept):
            kept.append(idx)
    return len(kept)
