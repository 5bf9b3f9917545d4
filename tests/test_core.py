"""Words, substitutions, columns, primitivity, and fixed points."""

from __future__ import annotations

import random

import numpy as np
import pytest

from substdyn import (
    WORD_BUDGET,
    Alphabet,
    PreconditionError,
    ResourceLimitError,
    Substitution,
    kernel_monoid,
    pure_base,
)
from substdyn.core import (
    apply,
    column_sets,
    first_letter_cycle,
    fixed_point_array,
    fixed_point_prefix,
    is_primitive,
)
from substdyn.matrices import CountMatrix

from conftest import (
    EXAMPLE_RULES,
    example,
    power,
    random_primitive_substitution,
    sweep_draw,
)
from oracles import (
    boolean_power_is_primitive,
    brute_apply,
    brute_column_sets,
    brute_fixed_point,
    brute_fixed_point_prefix,
    brute_is_primitive,
    brute_power,
    kernel_words,
    tuple_incidence,
)


def as_string(subst: Substitution, word) -> str:
    return "".join(subst.alphabet.letters[s] for s in word)


class TestConstruction:
    def test_from_strings_round_trip(self, example_name):
        subst = example(example_name)
        rendered = dict(
            line.split(" -> ") for line in subst.rule_strings()
        )
        assert rendered == EXAMPLE_RULES[example_name]

    def test_token_sequences_equal_compact_strings(self):
        compact = Substitution.from_strings({"a": "ab", "b": "ba"})
        spelled = Substitution.from_strings({"a": ("a", "b"), "b": ("b", "a")})
        assert compact == spelled

    def test_multicharacter_letters(self):
        subst = Substitution.from_strings({"01": ("01", "02"), "02": ("02", "01")})
        assert subst.length_k == 2
        assert subst.rule_strings() == ["01 -> 01 02", "02 -> 02 01"]

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            Substitution.from_strings({"a": "ab", "b": "a"})

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError):
            Substitution.from_strings({"a": "az", "b": "aa"})

    def test_alphabet_membership(self):
        alpha = Alphabet(["a", "b"])
        assert "a" in alpha and "z" not in alpha
        assert alpha.index("b") == 1
        assert len(alpha) == 2


class TestApplicationAndPowers:
    def test_apply_matches_oracle(self, example_name):
        subst = example(example_name)
        rules = EXAMPLE_RULES[example_name]
        word = tuple(range(subst.alphabet.size)) * 3
        expected = brute_apply(rules, as_string(subst, word))
        assert as_string(subst, apply(subst, word)) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_power_matches_iterated_oracle(self, example_name, n):
        # n applications of the substitution to a one-letter word
        subst = example(example_name)
        oracle = brute_power(EXAMPLE_RULES[example_name], n)
        for letter in subst.alphabet.letters:
            word = (subst.alphabet.index(letter),)
            for _ in range(n):
                word = apply(subst, word)
            assert len(word) == subst.length_k**n
            assert as_string(subst, word) == oracle[letter]

    def test_incidence_column_sums_equal_length(self, example_subst):
        m = CountMatrix.from_rows(tuple_incidence(example_subst.rules))
        sums = [sum(v for _, v in column) for column in m.columns]
        assert all(s == example_subst.length_k for s in sums)


class TestColumns:
    def test_columns_read_positions(self):
        subst = example("e4")  # 0 -> 010, 1 -> 102, 2 -> 201
        assert subst.columns() == [(0, 1, 2), (1, 0, 0), (0, 2, 1)]

    def test_compose_order(self):
        # words[i] = (r0, r1, ..) spells elements[i] = phi_r0 . phi_r1 . ..,
        # outermost generator first
        for name in sorted(EXAMPLE_RULES):
            subst = pure_base(example(name)).pure_base
            kd = kernel_monoid(subst)
            cols = subst.columns()
            words = kernel_words(kd.parent.tolist(), kd.generator.tolist())
            for tau, word in zip(kd.elements.tolist(), words):
                folded = tuple(range(subst.alphabet.size))
                for r in reversed(word):
                    folded = tuple(cols[r][v] for v in folded)
                assert folded == tuple(tau)

    def test_identity_and_constant(self):
        kd = kernel_monoid(example("e5"))
        assert kd.elements[0].tolist() == [0, 1, 2]
        assert kd.constant.tolist() == [False, True, True, True]

    def test_column_sets_match_oracle(self, example_name):
        subst = example(example_name)
        got = {
            frozenset(subst.alphabet.letters[s] for s in fs)
            for fs in column_sets(subst)
        }
        assert got == brute_column_sets(EXAMPLE_RULES[example_name])

    def test_coincidence_verdicts(self):
        # a singleton column set is a coincidence; the oracle agrees
        for name, expected in (("e5", True), ("e1", True), ("thue_morse", False)):
            assert any(len(s) == 1 for s in column_sets(example(name))) == expected
            oracle = brute_column_sets(EXAMPLE_RULES[name])
            assert any(len(s) == 1 for s in oracle) == expected


class TestPrimitivity:
    def test_examples_are_primitive(self, example_subst):
        assert is_primitive(example_subst)

    def test_reducible_substitution(self):
        # b never reaches a
        subst = Substitution.from_strings({"a": "ab", "b": "bb"})
        assert not is_primitive(subst)

    def test_periodic_irreducible_substitution(self):
        # irreducible but 2-periodic: phi^n(a) alternates between {b} and {a}
        subst = Substitution.from_strings({"a": "bb", "b": "aa"})
        assert not is_primitive(subst)

    def test_cyclic_non_primitive(self):
        subst = Substitution.from_strings({"a": "b", "b": "a"})
        assert not is_primitive(subst)

    def test_matches_oracle_on_random_draws(self):
        rng = random.Random(20260814)
        letters = "abcd"
        for _ in range(200):
            size = rng.randint(2, 4)
            k = rng.randint(1, 3)
            rules = {
                letters[i]: "".join(rng.choice(letters[:size]) for _ in range(k))
                for i in range(size)
            }
            subst = Substitution.from_strings(rules)
            assert is_primitive(subst) == brute_is_primitive(rules)

    def test_matches_boolean_powers_on_wide_and_cyclic_draws(self):
        # up to 40 letters and k = 1 .. 3; every other draw sends each
        # letter's image into the next of p classes, a period-p digraph,
        # and half of those get one random entry that may break the period
        rng = random.Random(20261019)
        verdicts = set()
        for draw in range(600):
            n, k = rng.randint(1, 40), rng.randint(1, 3)
            if draw % 2:
                p = rng.randint(1, n)
                cls = [rng.randrange(p) for _ in range(n)]
                members = [[a for a in range(n) if cls[a] == c] for c in range(p)]
                rules = [
                    [rng.choice(members[(cls[a] + 1) % p] or range(n)) for _ in range(k)]
                    for a in range(n)
                ]
                if draw % 4 == 1:
                    rules[rng.randrange(n)][rng.randrange(k)] = rng.randrange(n)
            else:
                rules = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
            subst = Substitution(Alphabet(map(str, range(n))), rules)
            want = boolean_power_is_primitive(subst.rules)
            assert is_primitive(subst) == want, rules
            verdicts.add((want, k == 1, draw % 2))
        # both verdicts come up, for k = 1 and for the cyclic draws
        assert len(verdicts) == 8


class TestFixedPoints:
    def test_prefix_matches_oracle(self, example_name):
        subst = example(example_name)
        seed_idx, _ = first_letter_cycle(subst)
        seed = subst.alphabet.letters[seed_idx]
        got = as_string(subst, fixed_point_prefix(subst, 2000))
        assert got == brute_fixed_point(EXAMPLE_RULES[example_name], seed, 2000)

    def test_prefix_is_fixed_under_substitution(self, example_subst):
        # every worked example has a first letter fixed by phi, so p = 1
        n = 500
        prefix = fixed_point_prefix(example_subst, n)
        assert apply(example_subst, prefix)[:n] == prefix

    def test_seed_on_two_cycle(self):
        subst = Substitution.from_strings({"0": "10", "1": "00"})
        seed, p = first_letter_cycle(subst)
        assert (seed, p) == (0, 2)
        prefix = fixed_point_prefix(subst, 8)
        # fixed point of phi^2, which maps 0 -> 0010 and 1 -> 1010
        assert prefix == tuple(int(c) for c in "00100010")

    def test_seed_skips_a_letter_off_the_cycle(self):
        # first letters 0 -> 1 -> 2 -> 1: the least letter on the cycle is 1
        subst = Substitution.from_strings({"0": "10", "1": "20", "2": "10"})
        assert first_letter_cycle(subst) == (1, 2)

    def test_fixed_seed(self):
        seed, p = first_letter_cycle(example("period_doubling"))
        assert (seed, p) == (0, 1)

    def test_requires_primitive(self):
        subst = Substitution.from_strings({"a": "ab", "b": "bb"})
        with pytest.raises(PreconditionError):
            fixed_point_prefix(subst, 10)

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            fixed_point_prefix(example("e1"), WORD_BUDGET + 1)

    @pytest.mark.parametrize("chunk", range(4))
    def test_gather_matches_list_extension(self, chunk):
        # 200 draws: height 2, first-letter cycles p > 1, 40 letters, and
        # lengths on both sides of a multiple of k
        cycles = 0
        for draw in range(50 * chunk, 50 * chunk + 50):
            subst = sweep_draw(draw)
            k = subst.length_k
            cycles += first_letter_cycle(subst)[1] > 1
            rng = random.Random(draw)
            lengths = {1, k, k + 1, 3 * k - 1, rng.randrange(2, 5000)}
            for n in sorted(lengths):
                want = brute_fixed_point_prefix(subst.rules, n)
                assert fixed_point_prefix(subst, n) == want
                array = fixed_point_array(subst, n)
                assert array.dtype == np.int16 and array.tolist() == list(want)
        assert cycles > 0

    def test_length_one(self):
        subst = Substitution.from_strings({"a": "a"})
        assert fixed_point_prefix(subst, 5) == brute_fixed_point_prefix(subst.rules, 5)
        assert fixed_point_prefix(subst, 5) == (0,) * 5

    def test_random_substitutions_have_fixed_prefixes(self):
        # the prefix is fixed by phi^p where p is the seed's cycle length
        rng = random.Random(7)
        for _ in range(25):
            subst = random_primitive_substitution(rng)
            _, p = first_letter_cycle(subst)
            prefix = fixed_point_prefix(subst, 200)
            assert apply(power(subst, p), prefix)[:200] == prefix
