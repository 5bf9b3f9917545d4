"""The discrepancy substitution: pair dynamics that drive separation counts.

For a height-1 substitution, the image of an unordered pair of distinct
letters {a, b} is the sequence of pairs {phi(a)_i, phi(b)_i} read at the
positions i where the two images differ.  Iterating this pair substitution
counts exactly how many positions of phi^n(a) and phi^n(b) disagree, so
its growth rate governs how fast orbits separate.  Substitutions of larger
height are purified first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import matrices
from .core import Substitution
from .errors import InternalError
from .matrices import RATE_TOL, CountMatrix, GrowthType
from .structure import PureBaseResult, pure_base


@dataclass(frozen=True)
class LetterPair:
    """Unordered pair of distinct letter indices; stored with lo < hi."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo == self.hi:
            raise ValueError("a letter pair needs two distinct letters")
        if self.lo > self.hi:
            lo, hi = self.hi, self.lo
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)

    def name(self, letters: tuple[str, ...]) -> str:
        a, b = letters[self.lo], letters[self.hi]
        return f"({a}{b})" if len(a) == 1 and len(b) == 1 else f"({a},{b})"


@dataclass(frozen=True)
class GeneralSubstitution:
    """A substitution over letter pairs with possibly empty, uneven images.

    ``rules[p]`` is a word over pair indices; ``erasing`` is the set of
    pairs whose iterated image is eventually empty (the least fixed point
    of "every pair in my rule is erasing").
    """

    pair_alphabet: tuple[LetterPair, ...]
    rules: tuple[tuple[int, ...], ...]
    erasing: frozenset[int]

    @staticmethod
    def from_rules(
        pair_alphabet: tuple[LetterPair, ...], rules: tuple[tuple[int, ...], ...]
    ) -> "GeneralSubstitution":
        erasing: set[int] = set()
        changed = True
        while changed:
            changed = False
            for p, rule in enumerate(rules):
                if p not in erasing and all(q in erasing for q in rule):
                    erasing.add(p)
                    changed = True
        return GeneralSubstitution(pair_alphabet, rules, frozenset(erasing))

    def apply(self, word: tuple[int, ...]) -> tuple[int, ...]:
        out: list[int] = []
        for p in word:
            out.extend(self.rules[p])
        return tuple(out)

    def power(self, n: int) -> "GeneralSubstitution":
        if n < 1:
            raise ValueError("power requires n >= 1")
        rules = self.rules
        for _ in range(n - 1):
            rules = tuple(self.apply(r) for r in rules)
        return GeneralSubstitution.from_rules(self.pair_alphabet, rules)

    def incidence(self) -> CountMatrix:
        n = len(self.pair_alphabet)
        entries = [[0] * n for _ in range(n)]
        for q, rule in enumerate(self.rules):
            for p in rule:
                entries[p][q] += 1
        return CountMatrix.from_rows(entries)

    def rule_strings(self, letters: tuple[str, ...]) -> list[str]:
        out = []
        for p, rule in enumerate(self.rules):
            image = "".join(self.pair_alphabet[q].name(letters) for q in rule)
            out.append(f"{self.pair_alphabet[p].name(letters)} -> {image or 'eps'}")
        return out


@dataclass(frozen=True)
class DiscrepancyType:
    """(lambda_s, d_s): pair-count growth is Theta(n^d_s * lambda_s^n)."""

    rate_lambda_s: float
    degree_d_s: int


@dataclass(frozen=True)
class MaximalPairSet:
    """Pairs of the pure base whose growth rate attains lambda_s."""

    pairs: tuple[LetterPair, ...]


def pair_rules(subst: Substitution) -> GeneralSubstitution:
    """Pair substitution of ``subst`` as-is, with no purification.

    Only meaningful for height-1 inputs; exposed separately because the
    unpurified matrix is a useful diagnostic for larger heights (its
    dominant eigenvalue overshoots the true rate).
    """
    size = subst.alphabet.size
    pairs = tuple(LetterPair(a, b) for a, b in combinations(range(size), 2))
    index = {p: i for i, p in enumerate(pairs)}
    rules = []
    for pair in pairs:
        image_lo = subst.rules[pair.lo]
        image_hi = subst.rules[pair.hi]
        rules.append(
            tuple(
                index[LetterPair(x, y)]
                for x, y in zip(image_lo, image_hi)
                if x != y
            )
        )
    return GeneralSubstitution.from_rules(pairs, tuple(rules))


@dataclass(frozen=True)
class DiscrepancyAnalysis:
    """Everything the pair dynamics yield in one pass."""

    pure: PureBaseResult
    pairs: GeneralSubstitution
    growth: tuple[GrowthType, ...]
    rate_type: DiscrepancyType
    maximal: MaximalPairSet
    critical_poly: tuple[int, ...]


def analyze_pairs(subst: Substitution) -> DiscrepancyAnalysis:
    """Pure base, pair substitution, per-pair growth, (lambda_s, d_s), S.

    The critical polynomial is the exact characteristic polynomial of the
    first strongly connected component (in discovery order) whose Perron
    radius attains lambda_s; lambda_s is one of its roots.
    """
    pure = pure_base(subst)
    gs = pair_rules(pure.pure_base)
    k = subst.length_k
    if not gs.pair_alphabet:
        rate_type = DiscrepancyType(0.0, 1)
        return DiscrepancyAnalysis(pure, gs, (), rate_type, MaximalPairSet(()), (1,))

    m = gs.incidence()
    dec = matrices.decompose(m)
    growth = tuple(dec.growth_types(gs.erasing))
    top = matrices.max_growth_type(growth)
    rate = top.rate
    if not (abs(rate) <= RATE_TOL or 1.0 - RATE_TOL <= rate <= k + RATE_TOL):
        raise InternalError(f"discrepancy rate {rate} outside {{0}} u [1, {k}]")
    rate_type = DiscrepancyType(rate, top.degree)

    maximal = tuple(
        gs.pair_alphabet[p]
        for p in range(len(gs.pair_alphabet))
        if abs(growth[p].rate - rate) <= RATE_TOL
    )
    _check_pseudometric(maximal, pure.pure_base.alphabet.size)

    critical_poly: tuple[int, ...] = (1, 0)
    for ci, comp in enumerate(dec.components):
        if abs(dec.radii[ci] - rate) <= RATE_TOL:
            block = CountMatrix.from_rows(
                [[m.entries[i][j] for j in comp] for i in comp]
            )
            critical_poly = matrices.characteristic_polynomial(block)
            break
    return DiscrepancyAnalysis(
        pure, gs, growth, rate_type, MaximalPairSet(maximal), critical_poly
    )


def _check_pseudometric(maximal: tuple[LetterPair, ...], size: int) -> None:
    # "Same class" (the complement of S) must be transitive: for {a,b} in S
    # and any third letter c, at least one of {a,c}, {b,c} is in S.  This is
    # a theorem, so a violation means a bug, not bad input.
    in_s = {(p.lo, p.hi) for p in maximal}
    for p in maximal:
        for c in range(size):
            if c in (p.lo, p.hi):
                continue
            first = (min(p.lo, c), max(p.lo, c))
            second = (min(p.hi, c), max(p.hi, c))
            if first not in in_s and second not in in_s:
                raise InternalError(
                    "maximal-growth pairs are not pseudometric-compatible"
                )
