"""The discrepancy substitution: pair dynamics that drive separation counts.

For a height-1 substitution, the image of an unordered pair of distinct
letters {a, b} is the sequence of pairs {phi(a)_i, phi(b)_i} read at the
positions i where the two images differ.  Iterating this pair substitution
counts exactly how many positions of phi^n(a) and phi^n(b) disagree, so
its growth rate governs how fast orbits separate.  Substitutions of larger
height are purified first.

Call S the set of pairs whose growth rate attains the largest, lambda_s.
In an infinite system (lambda_s >= 1) a pair is in S iff its rule holds a
pair in S.  Proof: a pair's rate is the max of its component's radius and
the rates of the pairs in its rule, and a pair on a cycle has a member of
its component, of equal rate, in its rule; off a cycle its radius is 0.

The complement of S, "same class", is an equivalence relation on the
letters, so S is the set of pairs whose letters lie in different classes,
and the S-restricted density is a plain mismatch density on class labels.
``analyze_pairs`` checks the relation exactly and returns the classes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from . import matrices
from .core import Substitution, _tarjan
from .errors import InternalError
from .matrices import RATE_TOL, CountMatrix, GrowthType
from .structure import PureBaseResult, pure_base


class LetterPair(NamedTuple):
    """Unordered pair of distinct letter indices, lo < hi."""

    lo: int
    hi: int

    def name(self, letters: tuple[str, ...]) -> str:
        a, b = letters[self.lo], letters[self.hi]
        return f"({a}{b})" if len(a) == 1 and len(b) == 1 else f"({a},{b})"


@dataclass(frozen=True)
class GeneralSubstitution:
    """A substitution over letter pairs with possibly empty, uneven images.

    ``rules[p]`` is a word over pair indices; ``erasing`` is the set of
    pairs whose iterated image is eventually empty (the least fixed point
    of "every pair in my rule is erasing"); ``rate_at_most_one`` says
    whether the pair matrix has spectral radius at most 1.
    """

    pair_alphabet: tuple[LetterPair, ...]
    rules: tuple[tuple[int, ...], ...]
    erasing: frozenset[int]
    rate_at_most_one: bool

    @staticmethod
    def from_rules(
        pair_alphabet: tuple[LetterPair, ...], rules: tuple[tuple[int, ...], ...]
    ) -> "GeneralSubstitution":
        """One pass over the strongly connected components, sinks first: a
        component is erasing iff it is one pair with no self-loop whose rule
        entries are erasing, and the radius is at most 1 iff each component
        is such a pair or a simple cycle (``invariants`` module docstring).
        The pass does not read ``matrices.decompose``, which power-iterates
        every component: a 2000-pair cycle with one doubled edge kept that
        iterating for minutes, up to its iteration cap."""
        erasing: set[int] = set()
        at_most_one = True
        for comp in _tarjan(rules):
            members = set(comp)
            inside = [sum(q in members for q in rules[p]) for p in comp]
            if inside == [0]:
                if all(q in erasing for q in rules[comp[0]]):
                    erasing.add(comp[0])
            elif any(d != 1 for d in inside):
                at_most_one = False
        return GeneralSubstitution(pair_alphabet, rules, frozenset(erasing), at_most_one)

    def coincidence(self, k: int) -> bool:
        """True iff every pair reaches, along the rules, a pair whose rule is
        shorter than k, i.e. whose images agree somewhere: Dekking's
        coincidence condition, pairwise.  One backward search decides it."""
        sources: list[list[int]] = [[] for _ in self.rules]
        for p, rule in enumerate(self.rules):
            for q in rule:
                sources[q].append(p)
        merging = [p for p, rule in enumerate(self.rules) if len(rule) < k]
        reached = set(merging)
        for q in merging:  # grows while it is walked
            for p in sources[q]:
                if p not in reached:
                    reached.add(p)
                    merging.append(p)
        return len(reached) == len(self.rules)

    def incidence(self) -> CountMatrix:
        """Pair matrix: column q counts the pairs in rule q."""
        return CountMatrix(tuple(tuple(sorted(Counter(rule).items())) for rule in self.rules))

    def rule_strings(self, letters: tuple[str, ...]) -> list[str]:
        names = [p.name(letters) for p in self.pair_alphabet]
        return [
            f"{names[p]} -> {''.join(names[q] for q in rule) or 'eps'}"
            for p, rule in enumerate(self.rules)
        ]


def pair_rules(subst: Substitution) -> GeneralSubstitution:
    """Pair substitution of ``subst`` as-is, with no purification.

    Only meaningful for height-1 inputs.  At height h > 1 the unpurified
    matrix overshoots the true rate to exactly k: pairs of letters in
    different Dekking classes mod h differ at every position of their
    images, so they span a closed block whose columns all sum to k.
    """
    size = subst.alphabet.size
    pairs = tuple(LetterPair(a, b) for a, b in combinations(range(size), 2))
    index = [[0] * size for _ in range(size)]
    for i, (a, b) in enumerate(pairs):
        index[a][b] = index[b][a] = i
    rules = tuple(
        tuple(index[x][y] for x, y in zip(subst.rules[a], subst.rules[b]) if x != y)
        for a, b in pairs
    )
    return GeneralSubstitution.from_rules(pairs, rules)


@dataclass(frozen=True)
class DiscrepancyAnalysis:
    """Everything the pair dynamics yield in one pass."""

    pure: PureBaseResult
    pairs: GeneralSubstitution
    rate_type: GrowthType  # (lambda_s, d_s)
    maximal: tuple[LetterPair, ...]  # the pairs whose growth rate attains lambda_s
    classes: tuple[int, ...]  # letter -> its class; S is the pairs across classes
    critical: CountMatrix  # lambda_s is a root of its minimal polynomial of 1


def analyze_pairs(subst: Substitution) -> DiscrepancyAnalysis:
    """Pure base, pair substitution, (lambda_s, d_s), S and its classes.

    ``critical`` is the pair matrix's principal block on the first strongly
    connected component (in discovery order) whose Perron radius attains
    lambda_s; lambda_s is a root of :func:`matrices.minimal_polynomial` of it.
    """
    pure = pure_base(subst)
    gs = pair_rules(pure.pure_base)
    k = subst.length_k
    if not gs.pair_alphabet:
        # one letter, so one class
        return DiscrepancyAnalysis(pure, gs, GrowthType(0.0, 1), (), (0,), CountMatrix(()))

    m = gs.incidence()
    dec = matrices.decompose(m)
    growth = dec.growth_types(gs.erasing)
    rate_type = matrices.max_growth_type(growth)
    rate = rate_type.rate
    if not (abs(rate) <= RATE_TOL or 1.0 - RATE_TOL <= rate <= k + RATE_TOL):
        raise InternalError(f"discrepancy rate {rate} outside {{0}} u [1, {k}]")

    in_s = [abs(g.rate - rate) <= RATE_TOL for g in growth]
    maximal = tuple(p for p, s in zip(gs.pair_alphabet, in_s) if s)
    classes = _check_pseudometric(maximal, pure.pure_base.alphabet.size)
    if rate > RATE_TOL:  # in a finite system every pair is in S, at rate 0
        _check_closed(gs.rules, in_s)

    for comp, radius in zip(dec.components, dec.radii):
        if abs(radius - rate) <= RATE_TOL:
            return DiscrepancyAnalysis(pure, gs, rate_type, maximal, classes, m.restrict(comp))
    raise InternalError(f"no strongly connected component attains the rate {rate}")


def _check_pseudometric(maximal: tuple[LetterPair, ...], size: int) -> tuple[int, ...]:
    # "Same class" (the complement of S) must be an equivalence relation.
    # same[a] holds a and every letter not paired with a in S; the distinct
    # rows cover the alphabet, so they partition it iff their sizes sum to
    # |A|, and then they are the classes, numbered here in the order of
    # their least letters.  This is a theorem, so a violation means a bug,
    # not bad input.
    same = [(1 << size) - 1] * size
    for a, b in maximal:
        same[a] &= ~(1 << b)
        same[b] &= ~(1 << a)
    if sum(r.bit_count() for r in set(same)) != size:
        raise InternalError("maximal-growth pairs are not pseudometric-compatible")
    number: dict[int, int] = {}
    return tuple(number.setdefault(row, len(number)) for row in same)


def _check_closed(rules: tuple[tuple[int, ...], ...], in_s: list[bool]) -> None:
    # The closure of S in an infinite system (module docstring).  The rates
    # are maxima of the very floats growth_types compares, so the theorem
    # holds exactly on them, and a violation means a bug, not bad input.
    members = {p for p, s in enumerate(in_s) if s}
    if [not members.isdisjoint(rule) for rule in rules] != in_s:
        raise InternalError("maximal-growth pairs are not closed under the pair rules")
