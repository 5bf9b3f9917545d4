"""Height of the maximal cyclic factor and purification to a pure base."""

from __future__ import annotations

import random

import pytest

from substdyn import (
    PreconditionError,
    Substitution,
    classify,
    fixed_point_prefix,
    height,
    is_primitive,
    power,
    pure_base,
    random_primitive_substitution,
)

from conftest import EXAMPLE_RULES, example
from oracles import brute_height

EXPECTED_HEIGHTS = {
    "e1": 1,
    "e2": 1,
    "e3": 1,
    "e4": 2,
    "e5": 1,
    "e6": 1,
    "thue_morse": 1,
    "period_doubling": 1,
}


class TestHeight:
    def test_example_heights(self, example_name):
        assert height(example(example_name)) == EXPECTED_HEIGHTS[example_name]

    def test_matches_oracle(self, example_name):
        rules = EXAMPLE_RULES[example_name]
        assert height(example(example_name)) == brute_height(rules)

    def test_requires_primitive(self):
        with pytest.raises(PreconditionError):
            height(Substitution.from_strings({"a": "ab", "b": "bb"}))

    def test_invariant_under_powers(self, example_name):
        subst = example(example_name)
        h = height(subst)
        for n in (2, 3):
            assert height(power(subst, n)) == h

    def test_return_gcd_toys(self):
        # fixed point 010 011 ... returns to 0 at positions 2 and 3: gcd 1
        subst = Substitution.from_strings({"0": "010", "1": "011"})
        assert height(subst) == 1

    def test_height_three_periodic_toy(self):
        # fixed point (abc)(abc)... returns to a at multiples of 3; k = 4
        subst = Substitution.from_strings({"a": "abca", "b": "bcab", "c": "cabc"})
        assert height(subst) == 3
        result = pure_base(subst)
        assert result.block_alphabet.letters == ("abc",)
        assert result.pure_base.rule_strings() == ["abc -> abc abc abc abc"]

    @pytest.mark.parametrize(
        "rules",
        [
            # the return-time gcd of x_0 is 2 up to length 27 and 1 after
            {"a": "caa", "b": "beb", "c": "beb", "d": "eda", "e": "ecd"},
            {"a": "dca", "b": "cba", "c": "bcb", "d": "dab"},
        ],
    )
    def test_late_odd_return_is_height_one(self, rules):
        assert height(Substitution.from_strings(rules)) == 1

    def test_height_above_k(self):
        # fixed point (abc)(abc)...: height 3 > k = 2, still a finite system
        subst = Substitution.from_strings({"a": "ab", "b": "ca", "c": "bc"})
        assert height(subst) == 3
        report = classify(subst)
        assert report.height_h == 3
        assert report.finite_system

    def test_phase_shift_needs_the_constant(self):
        # first-letter cycle a -> b -> a: phi(x) is x shifted by one, so the
        # labelling c(a) = 0, c(b) = 1 holds with e = 1 only
        subst = Substitution.from_strings({"a": "bab", "b": "aba"})
        assert height(subst) == 2

    def test_random_raw_draws_match_long_prefix_oracle(self):
        rng = random.Random(2718)
        draws = 0
        while draws < 500:
            size, k = rng.randint(2, 6), rng.randint(2, 5)
            letters = "abcdef"[:size]
            rules = {
                a: "".join(rng.choice(letters) for _ in range(k)) for a in letters
            }
            subst = Substitution.from_strings(rules)
            if not is_primitive(subst):
                continue
            draws += 1
            assert height(subst) == brute_height(rules), rules


class TestPureBase:
    def test_height_one_is_identity(self):
        subst = example("e1")
        result = pure_base(subst)
        assert result.height_h == 1
        assert result.pure_base == subst
        assert result.original == subst

    def test_e4_pure_rules(self):
        result = pure_base(example("e4"))
        assert result.height_h == 2
        assert result.pure_base.rule_strings() == [
            "01 -> 01 01 02",
            "02 -> 01 02 01",
        ]

    def test_e4_block_decoding(self):
        result = pure_base(example("e4"))
        decoded = {
            name: "".join(result.decoding[name])
            for name in result.block_alphabet.letters
        }
        assert decoded == {"01": "01", "02": "02"}

    def test_pure_base_has_height_one(self, example_subst):
        assert height(pure_base(example_subst).pure_base) == 1

    def test_decode_round_trip(self, example_name):
        """Decoding the pure-base fixed point recovers the original one."""
        subst = example(example_name)
        result = pure_base(subst)
        n_blocks = 10_000
        pure_prefix = fixed_point_prefix(result.pure_base, n_blocks)
        decoded = result.decode_word(pure_prefix)
        original = fixed_point_prefix(subst, len(decoded))
        original_tokens = tuple(
            subst.alphabet.letters[s] for s in original
        )
        assert decoded == original_tokens
        assert len(decoded) == n_blocks * result.height_h

    def test_periodic_phase_is_a_precondition(self):
        # blocks ab -> ba ba ba -> ab ab ab: phi swaps the two block phases
        with pytest.raises(PreconditionError, match="periodic"):
            pure_base(Substitution.from_strings({"a": "bab", "b": "aba"}))

    def test_random_substitutions_purify(self):
        rng = random.Random(314159)
        for _ in range(30):
            subst = random_primitive_substitution(rng)
            result = pure_base(subst)
            assert height(result.pure_base) == 1
            assert result.pure_base.length_k == subst.length_k
