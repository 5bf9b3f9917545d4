"""Words, constant-length substitutions, column sets and SCCs.

Letters are arbitrary text tokens.  Internally every letter is a dense
index ``0 .. size-1`` into an :class:`Alphabet` and words are tuples of
such indices; all hot loops run on indices and only rendering touches
the tokens again.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import PreconditionError, ResourceLimitError

#: Longest word any operation is allowed to materialize (symbols).
WORD_BUDGET = 1 << 26
#: Most column sets :func:`column_sets` may enumerate; there can be 2^|A| - 1.
COLUMN_SET_BUDGET = 1 << 16

Word = tuple[int, ...]


class Alphabet:
    """An ordered, duplicate-free set of letter tokens.

    The ordering is fixed at construction and is what every matrix row,
    column and report key is indexed by.
    """

    __slots__ = ("letters", "_index")

    def __init__(self, letters: Iterable[str]):
        self.letters: tuple[str, ...] = tuple(letters)
        if not self.letters:
            raise ValueError("alphabet must not be empty")
        self._index = {tok: i for i, tok in enumerate(self.letters)}
        if len(self._index) != len(self.letters):
            raise ValueError("alphabet letters must be distinct")

    @property
    def size(self) -> int:
        return len(self.letters)

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise ValueError(f"letter {token!r} is not in the alphabet") from None

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.letters)!r})"


class Substitution:
    """A constant-length substitution: one length-k image word per letter."""

    __slots__ = ("alphabet", "rules", "length_k")

    def __init__(self, alphabet: Alphabet, rules: Sequence[Word]):
        if len(rules) != alphabet.size:
            raise ValueError("need exactly one rule per letter")
        rules = tuple(tuple(r) for r in rules)
        lengths = {len(r) for r in rules}
        if len(lengths) != 1:
            raise ValueError("rules do not share a common length")
        k = lengths.pop()
        if k < 1:
            raise ValueError("rule length must be at least 1")
        for r in rules:
            for sym in r:
                if not 0 <= sym < alphabet.size:
                    raise ValueError(f"rule symbol {sym} out of range")
        self.alphabet = alphabet
        self.rules = rules
        self.length_k = k

    @classmethod
    def from_strings(cls, rules: Mapping[str, Sequence[str] | str]) -> "Substitution":
        """Build from ``{letter: image}``.

        The image may be a sequence of letter tokens or, when every
        letter is a single character, a plain string like ``"aac"``.
        """
        alphabet = Alphabet(rules.keys())
        compact_ok = all(len(tok) == 1 for tok in alphabet.letters)
        indexed = []
        for letter in alphabet.letters:
            image = rules[letter]
            if isinstance(image, str) and compact_ok:
                image = tuple(image)
            indexed.append(tuple(alphabet.index(tok) for tok in image))
        return cls(alphabet, indexed)

    def columns(self) -> list[tuple[int, ...]]:
        """The k column maps; map i sends each letter to position i of its image."""
        return list(zip(*self.rules))

    def rule_strings(self) -> list[str]:
        """Human-readable rules, compact when all tokens are single chars."""
        toks = self.alphabet.letters
        joiner = "" if all(len(t) == 1 for t in toks) else " "
        return [
            f"{toks[a]} -> {joiner.join(toks[b] for b in rule)}"
            for a, rule in enumerate(self.rules)
        ]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Substitution)
            and self.alphabet == other.alphabet
            and self.rules == other.rules
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.rules))

    def __repr__(self) -> str:
        return f"Substitution<{'; '.join(self.rule_strings())}>"


def apply(subst: Substitution, word: Word) -> Word:
    """Apply the substitution to a word by concatenating rule images."""
    size = subst.alphabet.size
    out: list[int] = []
    for sym in word:
        if not 0 <= sym < size:
            raise ValueError(f"symbol {sym} not in the alphabet")
        out.extend(subst.rules[sym])
    return tuple(out)


def is_primitive(subst: Substitution) -> bool:
    """True iff some power of the incidence matrix is entrywise positive.

    That holds iff the letter digraph, a -> b when b occurs in phi(a), is
    strongly connected and aperiodic (Perron-Frobenius).  Its period is the
    gcd, over edges a -> b, of level(a) + 1 - level(b), the levels being
    breadth-first distances from letter 0.  O(|A| k).
    """
    if len(_tarjan(subst.rules)) != 1:
        return False
    level = [0] + [-1] * (subst.alphabet.size - 1)
    queue = [0]
    period = 0
    for a in queue:  # grows while it is walked; each edge is read once
        for b in subst.rules[a]:
            if level[b] == -1:
                level[b] = level[a] + 1
                queue.append(b)
            period = math.gcd(period, level[a] + 1 - level[b])
    return period == 1


def _tarjan(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Iterative Tarjan; components come out in reverse topological order,
    sinks first: each after every component it reaches."""
    n = len(succ)
    index, low, on_stack = [-1] * n, [0] * n, [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            if index[v] == -1:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            for w in edges:  # resumes after the child it last descended into
                if index[w] == -1:
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        on_stack[comp[-1]] = False
                    components.append(sorted(comp))
    return components


def require_primitive(subst: Substitution, op: str) -> None:
    """Refuse a non-primitive substitution on behalf of ``op``."""
    if not is_primitive(subst):
        raise PreconditionError(f"{op} requires a primitive substitution")


def column_sets(subst: Substitution) -> tuple[frozenset[int], ...]:
    """Closure of {alphabet} under images of the k column maps.

    Sets come in breadth-first discovery order, the full alphabet first, so
    that reports are reproducible.  Past ``COLUMN_SET_BUDGET`` sets the
    closure raises ResourceLimitError.
    """
    return _column_set_closure(subst)[0]


def _column_set_closure(
    subst: Substitution,
) -> tuple[tuple[frozenset[int], ...], tuple[tuple[int, ...], ...]]:
    # The column sets in the order of column_sets, and per set i the k ids
    # of its images: column map j sends set i onto set targets[i][j].
    cols = subst.columns()
    start = frozenset(range(subst.alphabet.size))
    position = {start: 0}
    order = [start]
    targets = []
    for current in order:  # grows while it is walked
        row = []
        for col in cols:
            img = frozenset(col[a] for a in current)
            if img not in position:
                position[img] = len(order)
                order.append(img)
            row.append(position[img])
        targets.append(tuple(row))
        if len(order) > COLUMN_SET_BUDGET:
            raise ResourceLimitError(
                f"column_sets: more than {COLUMN_SET_BUDGET} sets on "
                f"{subst.alphabet.size} letters with k = {subst.length_k}"
            )
    return tuple(order), tuple(targets)


def first_letter_cycle(subst: Substitution) -> tuple[int, int]:
    """Seed letter and cycle length for fixed-point generation.

    Follows the first-letter map a -> phi(a)[0], returns the least letter
    (in alphabet order) lying on a cycle together with its cycle length p;
    phi^p then has a one-sided fixed point starting at that letter.
    """
    first = [rule[0] for rule in subst.rules]
    for seed in range(len(first)):
        x = first[seed]
        for p in range(1, len(first) + 1):
            if x == seed:
                return seed, p
            x = first[x]
    raise AssertionError("a map of a finite set into itself has a cycle")


def fixed_point_prefix(subst: Substitution, n_symbols: int) -> Word:
    """First n symbols of the canonical one-sided fixed point.

    The seed is the least letter on a first-letter cycle and the fixed
    point is that of phi^p where p is the seed's cycle length, making
    the result deterministic for every primitive substitution.
    """
    require_primitive(subst, "fixed_point_prefix")
    return tuple(fixed_point_array(subst, n_symbols).tolist())


def fixed_point_array(subst: Substitution, n_symbols: int) -> np.ndarray:
    """:func:`fixed_point_prefix` as an integer array (int16 up to 2^15 letters).

    The caller has checked that ``subst`` is primitive.  A round applies
    phi to the first ceil(n / k) symbols, which is all the first n symbols
    of the image depend on.
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    if n_symbols > WORD_BUDGET:
        raise ResourceLimitError(
            f"prefix of {n_symbols} symbols exceeds the {WORD_BUDGET}-symbol budget"
        )
    seed, p = first_letter_cycle(subst)
    dtype = np.int16 if subst.alphabet.size <= 1 << 15 else np.int32
    if subst.length_k == 1:
        # phi^p fixes the seed letter; the "fixed point" is that letter repeated
        return np.full(n_symbols, seed, dtype=dtype)
    rules = np.asarray(subst.rules, dtype=dtype)
    needed = -(-n_symbols // subst.length_k)
    prefix = np.array([seed], dtype=dtype)
    while len(prefix) < n_symbols:
        for _ in range(p):
            prefix = rules[prefix[:needed]].ravel()[:n_symbols]
    return prefix
