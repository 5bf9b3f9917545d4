"""Height and pure base of a constant-length substitution.

A substitution can hide a purely cyclic factor: the positions at which the
initial letter of a fixed point recurs may all share a common divisor h
coprime to the length k.  Recoding the fixed point into blocks of length h
(read at positions divisible by h) removes that factor; the induced
substitution on blocks is the pure base, and it always has height 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import (
    Alphabet,
    Substitution,
    Word,
    apply,
    first_letter_cycle,
    fixed_point_array,
    is_primitive,
    require_primitive,
)
from .errors import InternalError, PreconditionError


def height(subst: Substitution) -> int:
    """Largest h coprime to the length k dividing all return times of x_0.

    Exact, by Dekking's characterisation (1978): h is the largest n <= |A|
    coprime to k with a labelling c: A -> Z/n and a constant e such that
    c(seed) = 0 and c(phi(a)_j) = k c(a) + j + e (mod n) for every letter a
    and column j.  Such a labelling keeps each letter of the fixed point in
    one position class mod n; e is the phase shift of phi(x), which is not
    x itself when the seed's first-letter cycle is longer than one.
    """
    require_primitive(subst, "height")
    return _dekking_height(subst)


def _dekking_height(subst: Substitution) -> int:
    seed, _ = first_letter_cycle(subst)
    for n in range(subst.alphabet.size, 1, -1):
        if math.gcd(n, subst.length_k) == 1:
            if any(_has_labelling(subst, seed, n, e) for e in range(n)):
                return n
    return 1


def _has_labelling(subst: Substitution, seed: int, n: int, e: int) -> bool:
    # c(seed) = 0 fixes c along every edge a -> phi(a)_j; primitivity makes
    # every letter reachable, so every edge gets checked.
    k = subst.length_k
    label: list[int | None] = [None] * subst.alphabet.size
    label[seed] = 0
    queue = [seed]
    for a in queue:
        for j, b in enumerate(subst.rules[a]):
            want = (k * label[a] + j + e) % n
            if label[b] is None:
                label[b] = want
                queue.append(b)
            elif label[b] != want:
                return False
    return True


@dataclass(frozen=True)
class PureBaseResult:
    """Outcome of purification.

    ``decoding`` sends each block letter back to the h original letters it
    stands for; for height 1 it is the identity on single letters.
    """

    height_h: int
    pure_base: Substitution
    decoding: dict[str, tuple[str, ...]]
    original: Substitution


def pure_base(subst: Substitution) -> PureBaseResult:
    """Induced substitution psi on h-blocks at positions divisible by h.

    Blocks are ordered by first occurrence in the fixed point and named by
    joining their letters with a separator that keeps distinct blocks
    apart: ``""`` when every letter is one character, else ``|`` when no
    letter contains it, else the first code point after ``|`` in no letter.
    The image of a block is the image of its letters chopped into k
    h-blocks.  The fixed point is fixed by phi^p (p the seed's first-letter
    cycle length), so each block first occurs in the psi^p-image of a block
    found before it.  A non-primitive psi means the fixed point is periodic
    and phi permutes its block phases: PreconditionError, outside the analysis.
    """
    require_primitive(subst, "pure_base")
    h = _dekking_height(subst)
    alphabet = subst.alphabet
    if h == 1:
        decoding = {a: (a,) for a in alphabet.letters}
        return PureBaseResult(1, subst, decoding, subst)

    k = subst.length_k
    _, p = first_letter_cycle(subst)
    blocks: list[Word] = []
    seen: dict[Word, int] = {}

    def intern(block: Word) -> int:
        if block not in seen:
            seen[block] = len(blocks)
            blocks.append(block)
        return seen[block]

    def psi(block: Word) -> list[Word]:
        image = apply(subst, block)
        return [image[j * h : (j + 1) * h] for j in range(k)]

    walked: set[tuple[Word, int]] = set()

    def walk(block: Word, depth: int) -> None:
        # intern the blocks of psi^depth(block) from left to right; a
        # (block, depth) walked before can add no new block
        if depth == 0:
            intern(block)
        elif (block, depth) not in walked:
            walked.add((block, depth))
            for child in psi(block):
                walk(child, depth - 1)

    intern(tuple(fixed_point_array(subst, h).tolist()))
    for block in blocks:  # grows while it is walked
        walk(block, p)
    rules: list[Word] = []
    while len(rules) < len(blocks):  # psi can leave the fixed point's blocks
        rules.append(tuple(intern(b) for b in psi(blocks[len(rules)])))

    joiner = ""
    if any(len(a) > 1 for a in alphabet.letters):
        used = set("".join(alphabet.letters))
        joiner = next(c for c in map(chr, itertools.count(ord("|"))) if c not in used)
    spelled = [tuple(alphabet.letters[v] for v in block) for block in blocks]
    block_alphabet = Alphabet(joiner.join(letters) for letters in spelled)
    decoding = dict(zip(block_alphabet.letters, spelled))
    induced = Substitution(block_alphabet, tuple(rules))
    if not is_primitive(induced):
        raise PreconditionError(
            "purification produced a non-primitive block substitution "
            "(the fixed point is periodic)"
        )
    if _dekking_height(induced) != 1:
        raise InternalError("pure base failed to have height 1")
    return PureBaseResult(h, induced, decoding, subst)
