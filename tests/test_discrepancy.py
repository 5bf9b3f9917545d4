"""Pair dynamics: discrepancy substitution, growth rate/degree, maximal pairs."""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest

from substdyn import (
    InternalError,
    Substitution,
    analyze_pairs,
    pure_base,
)
from substdyn.core import column_sets
from substdyn.discrepancy import (
    GeneralSubstitution,
    LetterPair,
    _check_closed,
    _check_pseudometric,
    pair_rules,
)
from substdyn.matrices import RATE_TOL, growth_types, minimal_polynomial, polynomial_text

from conftest import (
    WIDE_ALPHABET_RULES,
    example,
    power,
    pure_base_single_char,
    random_primitive_substitution,
)
from oracles import (
    brute_diff_count,
    brute_lambda_s,
    brute_pair_matrix,
    brute_pair_rules,
    brute_pseudometric_compatible,
    closed_walk_rate_at_most_one,
    kleene_erasing,
    tuple_power,
)

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
    def test_is_a_plain_pair(self):
        lo, hi = LetterPair(1, 2)
        assert (lo, hi) == (LetterPair(1, 2).lo, LetterPair(1, 2).hi) == (1, 2)
        assert LetterPair(1, 2) == (1, 2)

    def test_name_formats(self):
        assert LetterPair(0, 1).name(("a", "b")) == "(ab)"
        assert LetterPair(0, 1).name(("01", "02")) == "(01,02)"


class TestGeneralSubstitution:
    def test_erasing_fixed_point(self):
        pairs = tuple(LetterPair(0, i + 1) for i in range(3))
        rules = ((), (0,), (1, 2))  # p -> eps, q -> p, r -> q r
        g = GeneralSubstitution.from_rules(pairs, rules)
        assert g.erasing == frozenset({0, 1})

    @pytest.mark.parametrize("last,doubled,erasing,at_most_one", [
        ((), False, True, True),
        ((), True, True, True),  # nilpotent: rate 0
        ((1999,), False, False, True),
        ((1999, 1999), False, False, False),
        ((0,), False, False, True),  # one simple 2000-cycle
        ((0, 0), False, False, False),
    ])
    def test_2000_pair_chain(self, last, doubled, erasing, at_most_one):
        # pair i -> pair i + 1, so a pass in index order settles one pair
        n = 2000
        pairs = tuple(LetterPair(0, i + 1) for i in range(n))
        rules = tuple((i + 1,) * (1 + doubled) for i in range(n - 1)) + (last,)
        g = GeneralSubstitution.from_rules(pairs, rules)
        assert g.erasing == kleene_erasing(rules)
        assert g.erasing == (frozenset(range(n)) if erasing else frozenset())
        assert g.rate_at_most_one == at_most_one

    def test_matches_oracles_on_random_rules(self):
        # uneven, possibly empty images over up to 10 pairs
        rng = random.Random(20261019)
        for _ in range(300):
            n = rng.randint(1, 10)
            rules = tuple(
                tuple(rng.randrange(n) for _ in range(rng.choice((0, 0, 1, 1, 1, 2))))
                for _ in range(n)
            )
            pairs = tuple(LetterPair(0, i + 1) for i in range(n))
            g = GeneralSubstitution.from_rules(pairs, rules)
            assert g.erasing == kleene_erasing(rules), rules
            assert g.rate_at_most_one == closed_walk_rate_at_most_one(rules), rules

    def test_incidence_counts(self):
        pairs = (LetterPair(0, 1), LetterPair(0, 2))
        g = GeneralSubstitution.from_rules(pairs, ((0, 0, 1), (1,)))
        assert g.incidence().columns == (((0, 2), (1, 1)), ((1, 1),))
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

    def test_incidence_matches_dense_oracle(self):
        rng = random.Random(1919)
        for _ in range(60):
            subst = random_primitive_substitution(rng, max_letters=8, max_k=5)
            letters = subst.alphabet.letters
            rules = {
                a: "".join(letters[s] for s in subst.rules[i])
                for i, a in enumerate(letters)
            }
            _, m = brute_pair_matrix(rules)
            assert pair_rules(subst).incidence().entries == tuple(map(tuple, m.tolist()))

    def test_wide_alphabet_matches_dict_builder(self):
        # 44,850 pairs: too many for the dense oracle
        subst = Substitution.from_strings(WIDE_ALPHABET_RULES)
        g = pair_rules(subst)
        assert g.pair_alphabet == tuple(combinations(range(300), 2))
        assert g.rules == brute_pair_rules(subst.rules)

    def test_pair_count_is_all_unordered_pairs(self, example_subst):
        g = pair_rules(example_subst)
        n = example_subst.alphabet.size
        assert len(g.pair_alphabet) == n * (n - 1) // 2


class TestDifferenceCounting:
    """|phi_s^n(pair)| equals the differing-position count of phi^n images."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_pure_base_pair_lengths_match_oracle(self, example_name, n):
        base = pure_as_single_char(example_name)
        g = pair_rules(base)
        powered = tuple_power(g.rules, n)
        letters = base.alphabet.letters
        oracle_rules = {
            letters[i]: "".join(letters[s] for s in base.rules[i])
            for i in range(base.alphabet.size)
        }
        for idx, pair in enumerate(g.pair_alphabet):
            a, b = letters[pair.lo], letters[pair.hi]
            assert len(powered[idx]) == brute_diff_count(oracle_rules, a, b, n)


class TestRateAndDegree:
    def test_expected_types(self, example_name):
        rate, degree = EXPECTED_TYPES[example_name]
        got = analyze_pairs(example(example_name)).rate_type
        assert got.rate == pytest.approx(rate, abs=1e-8)
        assert got.degree == degree

    def test_rate_matches_numpy_oracle(self, example_name):
        base = pure_as_single_char(example_name)
        oracle_rules = {
            letter: "".join(base.alphabet.letters[s] for s in base.rules[i])
            for i, letter in enumerate(base.alphabet.letters)
        }
        expected = brute_lambda_s(oracle_rules)
        got = analyze_pairs(example(example_name)).rate_type.rate
        assert got == pytest.approx(expected, abs=1e-8)

    def test_e3_per_pair_types(self):
        analysis = analyze_pairs(example("e3"))
        letters = analysis.pure.pure_base.alphabet.letters
        growth = growth_types(analysis.pairs.incidence(), analysis.pairs.erasing)
        by_name = {
            p.name(letters): (growth[i].rate, growth[i].degree)
            for i, p in enumerate(analysis.pairs.pair_alphabet)
        }
        assert by_name["(ab)"] == (pytest.approx(2.0, abs=1e-9), 1)
        assert by_name["(ac)"] == (pytest.approx(2.0, abs=1e-9), 1)
        assert by_name["(bc)"] == (pytest.approx(2.0, abs=1e-9), 0)

    def test_rate_power_identity(self, example_name):
        subst = example(example_name)
        rate = analyze_pairs(subst).rate_type.rate
        for n in (2, 3):
            powered = analyze_pairs(power(subst, n)).rate_type.rate
            assert powered == pytest.approx(rate**n, rel=1e-8)

    def test_rate_lands_in_allowed_range(self):
        rng = random.Random(424242)
        for _ in range(100):
            subst = random_primitive_substitution(rng)
            rate = analyze_pairs(subst).rate_type.rate
            k = pure_base(subst).pure_base.length_k
            assert rate == pytest.approx(0.0, abs=RATE_TOL) or (
                1.0 - RATE_TOL <= rate <= k + RATE_TOL
            )

    def test_zero_rate_means_identical_images(self):
        subst = Substitution.from_strings({"a": "ab", "b": "ab"})
        assert analyze_pairs(subst).rate_type.rate == 0.0

    def test_full_rate_means_no_coincidence(self, example_name):
        subst = example(example_name)
        rate = analyze_pairs(subst).rate_type.rate
        base = pure_base(subst).pure_base
        hits_k = abs(rate - base.length_k) <= RATE_TOL
        coincidence = any(len(s) == 1 for s in column_sets(base))
        assert hits_k == (not coincidence)


class TestMaximalPairs:
    def test_expected_sets(self, example_name):
        subst = example(example_name)
        letters = pure_base(subst).pure_base.alphabet.letters
        got = [p.name(letters) for p in analyze_pairs(subst).maximal]
        assert got == EXPECTED_MAXIMAL[example_name]

    def test_e2_set_is_transitive(self):
        # S must satisfy: {a,b} in S implies {a,c} or {b,c} in S for all c
        got = [tuple(p) for p in analyze_pairs(example("e2")).maximal]
        assert got == [(0, 1), (0, 2)]
        assert brute_pseudometric_compatible(got, 3)

    def test_maximal_is_the_cross_class_pairs(self):
        rng = random.Random(31)
        for _ in range(200):
            analysis = analyze_pairs(random_primitive_substitution(rng, 8, 5))
            classes = analysis.classes
            assert len(classes) == analysis.pure.pure_base.alphabet.size
            # numbered 0, 1, ... in the order of their least letters
            first = [c for a, c in enumerate(classes) if c not in classes[:a]]
            assert first == list(range(len(first)))
            cross = [
                p for p in analysis.pairs.pair_alphabet if classes[p.lo] != classes[p.hi]
            ]
            assert analysis.maximal == tuple(cross)


class TestPseudometricCheck:
    def test_matches_oracle_on_partitions_and_flips(self):
        # S from a random partition is compatible; one flipped pair may not be
        rng = random.Random(19)
        verdicts = []
        for draw in range(400):
            size = 66 if draw % 80 == 0 else rng.randint(2, 9)
            label = [rng.randrange(rng.randint(1, size)) for _ in range(size)]
            all_pairs = list(combinations(range(size), 2))
            partition = [(a, b) for a, b in all_pairs if label[a] != label[b]]
            flipped = sorted(set(partition) ^ {rng.choice(all_pairs)})
            assert brute_pseudometric_compatible(partition, size)
            for chosen in (partition, flipped):
                maximal = tuple(LetterPair(a, b) for a, b in chosen)
                compatible = brute_pseudometric_compatible(chosen, size)
                verdicts.append(compatible)
                if compatible:
                    classes = _check_pseudometric(maximal, size)
                    # S is the pairs across the returned classes
                    cross = [(a, b) for a, b in all_pairs if classes[a] != classes[b]]
                    assert cross == chosen
                    if chosen is partition:  # the drawn classes, renamed
                        renaming = set(zip(classes, label))
                        assert len(renaming) == len(set(classes)) == len(set(label))
                else:
                    with pytest.raises(InternalError, match="pseudometric-compatible"):
                        _check_pseudometric(maximal, size)
        # 302 flips rejected; 98 flips accepted besides the 400 partitions
        assert verdicts.count(False) > 200 and verdicts.count(True) > 450


class TestClosureCheck:
    """In an infinite system a pair is in S iff its rule holds a pair in S."""

    def test_fires_when_one_pair_is_dropped_or_added(self):
        # each pair of e1 is maximal and sits in a rule of another
        rules = analyze_pairs(example("e1")).pairs.rules
        for p in range(3):
            with pytest.raises(InternalError, match="not closed"):
                _check_closed(rules, [q != p for q in range(3)])
        # on draws, a flip of one pair fires iff the flipped set breaks the
        # closure, read off the dense pair incidence
        rng = random.Random(29)
        fired = {True: 0, False: 0}  # by whether the flip dropped the pair
        for _ in range(150):
            analysis = analyze_pairs(random_primitive_substitution(rng, 6, 4))
            if analysis.rate_type.rate <= RATE_TOL:
                continue
            rules = analysis.pairs.rules
            incidence = np.zeros((len(rules), len(rules)), dtype=np.int64)
            for p, rule in enumerate(rules):
                for q in rule:
                    incidence[q, p] += 1
            in_s = [p in analysis.maximal for p in analysis.pairs.pair_alphabet]
            assert np.array_equal(np.array(in_s) @ incidence > 0, in_s)
            for p in range(len(rules)):
                flipped = in_s.copy()
                flipped[p] = not in_s[p]
                if np.array_equal(np.array(flipped) @ incidence > 0, flipped):
                    _check_closed(rules, flipped)
                else:
                    with pytest.raises(InternalError, match="not closed"):
                        _check_closed(rules, flipped)
                    fired[in_s[p]] += 1
        assert fired[True] > 0 and fired[False] > 0


class TestCriticalPolynomial:
    def test_expected_polynomials(self, example_name):
        critical = analyze_pairs(example(example_name)).critical
        assert polynomial_text(minimal_polynomial(critical)) == EXPECTED_POLY[example_name]


class TestPowerIdentity:
    @pytest.mark.parametrize("n", [2, 3])
    def test_discrepancy_of_power_is_power_of_discrepancy(self, example_name, n):
        subst = example(example_name)
        direct = pair_rules(pure_base(power(subst, n)).pure_base)
        base_pairs = pair_rules(pure_base(subst).pure_base)
        iterated = GeneralSubstitution.from_rules(
            base_pairs.pair_alphabet, tuple_power(base_pairs.rules, n)
        )
        assert direct.pair_alphabet == iterated.pair_alphabet
        assert direct.rules == iterated.rules
        assert direct.erasing == iterated.erasing
