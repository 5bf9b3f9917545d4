"""Pair dynamics: discrepancy substitution, growth rate/degree, maximal pairs."""

from __future__ import annotations

import random

import pytest

from substdyn import (
    GeneralSubstitution,
    LetterPair,
    RATE_TOL,
    Substitution,
    analyze_pairs,
    has_coincidence,
    pair_rules,
    polynomial_text,
    power,
    pure_base,
    random_primitive_substitution,
)

from conftest import EXAMPLE_RULES, example, pure_base_single_char
from oracles import brute_diff_count, brute_lambda_s

EXPECTED_RULES = {
    "e1": ["(ab) -> (ac)", "(ac) -> (bc)", "(bc) -> (ac)(bc)"],
    "e5": ["(01) -> (01)", "(02) -> (02)", "(12) -> (12)"],
    "e6": ["(01) -> (01)(02)", "(02) -> (02)", "(12) -> (12)(02)"],
    "thue_morse": ["(ab) -> (ab)(ab)"],
    "period_doubling": ["(ab) -> (ab)"],
}

EXPECTED_TYPES = {
    "e1": (1.618033988749895, 0),
    "e2": (3.0, 0),
    "e3": (2.0, 1),
    "e4": (2.0, 0),
    "e5": (1.0, 0),
    "e6": (1.0, 1),
    "thue_morse": (2.0, 0),
    "period_doubling": (1.0, 0),
}

EXPECTED_MAXIMAL = {
    "e1": ["(ab)", "(ac)", "(bc)"],
    "e2": ["(ab)", "(ac)"],
    "e3": ["(ab)", "(ac)", "(bc)"],
    "e4": ["(01,02)"],
    "e5": ["(01)", "(02)", "(12)"],
    "e6": ["(01)", "(02)", "(12)"],
    "thue_morse": ["(ab)"],
    "period_doubling": ["(ab)"],
}

EXPECTED_POLY = {
    "e1": "t^2 - t - 1",
    "e2": "t^2 - 3*t",
    "e3": "t - 2",
    "e4": "t - 2",
    "e5": "t - 1",
    "e6": "t - 1",
    "thue_morse": "t - 2",
    "period_doubling": "t - 1",
}


def pure_as_single_char(name: str) -> Substitution:
    return pure_base_single_char(example(name))


class TestLetterPair:
    def test_normalization(self):
        assert (LetterPair(2, 1).lo, LetterPair(2, 1).hi) == (1, 2)
        assert LetterPair(0, 1) == LetterPair(1, 0)

    def test_distinct_letters_required(self):
        with pytest.raises(ValueError):
            LetterPair(1, 1)

    def test_name_formats(self):
        assert LetterPair(0, 1).name(("a", "b")) == "(ab)"
        assert LetterPair(0, 1).name(("01", "02")) == "(01,02)"


class TestGeneralSubstitution:
    def test_erasing_fixed_point(self):
        pairs = tuple(LetterPair(0, i + 1) for i in range(3))
        rules = ((), (0,), (1, 2))  # p -> eps, q -> p, r -> q r
        g = GeneralSubstitution.from_rules(pairs, rules)
        assert g.erasing == frozenset({0, 1})

    def test_apply_concatenates(self):
        pairs = (LetterPair(0, 1), LetterPair(0, 2))
        g = GeneralSubstitution.from_rules(pairs, ((0, 1), (1,)))
        assert g.apply((0, 1, 0)) == (0, 1, 1, 0, 1)

    def test_incidence_counts(self):
        pairs = (LetterPair(0, 1), LetterPair(0, 2))
        g = GeneralSubstitution.from_rules(pairs, ((0, 0, 1), (1,)))
        assert g.incidence().entries == ((2, 0), (1, 1))

    def test_rule_strings_mark_empty_images(self):
        pairs = (LetterPair(0, 1),)
        g = GeneralSubstitution.from_rules(pairs, ((),))
        assert g.rule_strings(("a", "b")) == ["(ab) -> eps"]


class TestPairRules:
    @pytest.mark.parametrize("name", sorted(EXPECTED_RULES))
    def test_expected_rules(self, name):
        analysis = analyze_pairs(example(name))
        letters = analysis.pure.pure_base.alphabet.letters
        assert analysis.pairs.rule_strings(letters) == EXPECTED_RULES[name]

    def test_e4_purified_pair_rule(self):
        analysis = analyze_pairs(example("e4"))
        letters = analysis.pure.pure_base.alphabet.letters
        assert analysis.pairs.rule_strings(letters) == [
            "(01,02) -> (01,02)(01,02)"
        ]

    def test_identical_images_are_erasing(self):
        subst = Substitution.from_strings({"a": "ab", "b": "ab"})
        g = pair_rules(subst)
        assert g.erasing == frozenset({0})

    def test_pair_count_is_all_unordered_pairs(self, example_subst):
        g = pair_rules(example_subst)
        n = example_subst.alphabet.size
        assert len(g.pair_alphabet) == n * (n - 1) // 2


class TestDifferenceCounting:
    """|phi_s^n(pair)| equals the differing-position count of phi^n images."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_pure_base_pair_lengths_match_oracle(self, example_name, n):
        base = pure_as_single_char(example_name)
        g = pair_rules(base).power(n)
        letters = base.alphabet.letters
        oracle_rules = {
            letters[i]: "".join(letters[s] for s in base.rules[i])
            for i in range(base.alphabet.size)
        }
        for idx, pair in enumerate(g.pair_alphabet):
            a, b = letters[pair.lo], letters[pair.hi]
            assert len(g.rules[idx]) == brute_diff_count(oracle_rules, a, b, n)


class TestRateAndDegree:
    def test_expected_types(self, example_name):
        rate, degree = EXPECTED_TYPES[example_name]
        got = analyze_pairs(example(example_name)).rate_type
        assert got.rate_lambda_s == pytest.approx(rate, abs=1e-8)
        assert got.degree_d_s == degree

    def test_rate_matches_numpy_oracle(self, example_name):
        base = pure_as_single_char(example_name)
        oracle_rules = {
            letter: "".join(base.alphabet.letters[s] for s in base.rules[i])
            for i, letter in enumerate(base.alphabet.letters)
        }
        expected = brute_lambda_s(oracle_rules)
        got = analyze_pairs(example(example_name)).rate_type.rate_lambda_s
        assert got == pytest.approx(expected, abs=1e-8)

    def test_e3_per_pair_types(self):
        analysis = analyze_pairs(example("e3"))
        letters = analysis.pure.pure_base.alphabet.letters
        by_name = {
            p.name(letters): (analysis.growth[i].rate, analysis.growth[i].degree)
            for i, p in enumerate(analysis.pairs.pair_alphabet)
        }
        assert by_name["(ab)"] == (pytest.approx(2.0, abs=1e-9), 1)
        assert by_name["(ac)"] == (pytest.approx(2.0, abs=1e-9), 1)
        assert by_name["(bc)"] == (pytest.approx(2.0, abs=1e-9), 0)

    def test_rate_power_identity(self, example_name):
        subst = example(example_name)
        rate = analyze_pairs(subst).rate_type.rate_lambda_s
        for n in (2, 3):
            powered = analyze_pairs(power(subst, n)).rate_type.rate_lambda_s
            assert powered == pytest.approx(rate**n, rel=1e-8)

    def test_rate_lands_in_allowed_range(self):
        rng = random.Random(424242)
        for _ in range(100):
            subst = random_primitive_substitution(rng)
            rate = analyze_pairs(subst).rate_type.rate_lambda_s
            k = pure_base(subst).pure_base.length_k
            assert rate == pytest.approx(0.0, abs=RATE_TOL) or (
                1.0 - RATE_TOL <= rate <= k + RATE_TOL
            )

    def test_zero_rate_means_identical_images(self):
        subst = Substitution.from_strings({"a": "ab", "b": "ab"})
        assert analyze_pairs(subst).rate_type.rate_lambda_s == 0.0

    def test_full_rate_means_no_coincidence(self, example_name):
        subst = example(example_name)
        rate = analyze_pairs(subst).rate_type.rate_lambda_s
        base = pure_base(subst).pure_base
        hits_k = abs(rate - base.length_k) <= RATE_TOL
        assert hits_k == (not has_coincidence(base))


class TestMaximalPairs:
    def test_expected_sets(self, example_name):
        subst = example(example_name)
        letters = pure_base(subst).pure_base.alphabet.letters
        got = [p.name(letters) for p in analyze_pairs(subst).maximal.pairs]
        assert got == EXPECTED_MAXIMAL[example_name]

    def test_e2_set_is_transitive(self):
        # S must satisfy: {a,b} in S implies {a,c} or {b,c} in S for all c
        got = {
            (p.lo, p.hi) for p in analyze_pairs(example("e2")).maximal.pairs
        }
        assert got == {(0, 1), (0, 2)}
        for a, b in got:
            for c in range(3):
                if c in (a, b):
                    continue
                assert (
                    tuple(sorted((a, c))) in got or tuple(sorted((b, c))) in got
                )


class TestCriticalPolynomial:
    def test_expected_polynomials(self, example_name):
        analysis = analyze_pairs(example(example_name))
        assert polynomial_text(analysis.critical_poly) == EXPECTED_POLY[example_name]


class TestPowerIdentity:
    @pytest.mark.parametrize("n", [2, 3])
    def test_discrepancy_of_power_is_power_of_discrepancy(self, example_name, n):
        subst = example(example_name)
        direct = pair_rules(pure_base(power(subst, n)).pure_base)
        iterated = pair_rules(pure_base(subst).pure_base).power(n)
        assert direct.pair_alphabet == iterated.pair_alphabet
        assert direct.rules == iterated.rules
        assert direct.erasing == iterated.erasing
