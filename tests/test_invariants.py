"""Classification reports, kernels, AP counts, graph condition, synthesis."""

from __future__ import annotations

import hashlib
import math
import random
import string
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from substdyn import (
    DEFAULT_SEED,
    PreconditionError,
    ResourceLimitError,
    Substitution,
    amorphic_complexity,
    classify,
    height,
    kernel_monoid,
    null_witness_search,
    pure_base,
    synthesize_target_ac,
)
from substdyn import core, invariants
from substdyn.core import fixed_point_prefix
from substdyn.discrepancy import pair_rules
from substdyn.invariants import graph_condition, nonconstant_ap_counts
from substdyn.matrices import RATE_TOL, growth_types, max_growth_type

from conftest import (
    EXAMPLE_RULES,
    WIDE_ALPHABET_RULES,
    WIDE_KERNEL_RULES,
    example,
    power,
    pure_base_single_char,
    random_primitive_substitution,
)
from oracles import (
    brute_column_count,
    brute_column_sets,
    brute_graph_condition,
    brute_images_coincide,
    brute_kernel_monoid,
    brute_null_witness_search,
    element_strings,
    kernel_words,
)
from test_matrices import DEKKING_A8_K5

GOLDEN = (1 + math.sqrt(5)) / 2

# name -> (height, lambda_s, snapped integer, d_s, ac, finite, discrete,
#          null+tame, graph, mef, polynomial)
EXPECTED_REPORTS = {
    "e1": (1, GOLDEN, None, 0, 1.7794160409973399, False, True, False, False,
           "Z_3 x Z/1Z", "t^2 - t - 1"),
    "e2": (1, 3.0, 3, 0, 4.818841679275951, False, True, False, False,
           "Z_4 x Z/1Z", "t^2 - 3*t"),
    "e3": (1, 2.0, 2, 1, 2.0, False, True, False, False,
           "Z_4 x Z/1Z", "t - 2"),
    "e4": (2, 2.0, 2, 0, 2.709511291351454, False, True, False, False,
           "Z_3 x Z/2Z", "t - 2"),
    "e5": (1, 1.0, 1, 0, 1.0, False, True, True, True,
           "Z_4 x Z/1Z", "t - 1"),
    "e6": (1, 1.0, 1, 1, 1.0, False, True, True, True,
           "Z_5 x Z/1Z", "t - 1"),
    "thue_morse": (1, 2.0, 2, 0, math.inf, False, False, False, False,
                   "Z_2 x Z/1Z", "t - 2"),
    "period_doubling": (1, 1.0, 1, 0, 1.0, False, True, True, True,
                        "Z_2 x Z/1Z", "t - 1"),
}


class TestClassify:
    def test_expected_report(self, example_name):
        (h, lam, lam_int, d_s, ac, fin, disc, null, graph, mef, poly) = (
            EXPECTED_REPORTS[example_name]
        )
        r = classify(example(example_name))
        assert r.height_h == h
        assert r.lambda_s == pytest.approx(lam, abs=1e-8)
        assert r.lambda_s_integer == lam_int
        assert r.d_s == d_s
        if math.isinf(ac):
            assert math.isinf(r.ac)
        else:
            assert r.ac == pytest.approx(ac, abs=1e-9)
        assert r.finite_system == fin
        assert r.discrete_spectrum == disc
        assert r.null_and_tame == null
        assert r.graph_condition == graph
        assert r.mef == mef
        assert r.lambda_s_polynomial == poly

    def test_closed_form_ac(self):
        r = classify(example("e1"))
        k = 3
        expected = math.log(k) / (math.log(k) - math.log(GOLDEN))
        assert r.ac == pytest.approx(expected, abs=1e-9)
        assert amorphic_complexity(example("e1")) == r.ac

    def test_e4_unpurified_rate_overshoots(self):
        r = classify(example("e4"))
        assert r.unpurified_rate == pytest.approx(3.0, abs=1e-8)
        assert r.lambda_s == pytest.approx(2.0, abs=1e-9)

    def test_unpurified_rate_absent_at_height_one(self):
        assert classify(example("e1")).unpurified_rate is None

    def test_unpurified_rate_is_exactly_k(self):
        rng = random.Random(6)
        draws = [random_primitive_substitution(rng) for _ in range(4000)]
        tall = [s for s in draws if height(s) > 1]
        assert len(tall) >= 10
        for subst in [example("e4"), Substitution.from_strings(DEKKING_A8_K5)] + tall:
            k = subst.length_k
            assert classify(subst).unpurified_rate == float(k)
            # the raw pair substitution's own growth types agree
            raw = pair_rules(subst)
            rate = max_growth_type(growth_types(raw.incidence(), raw.erasing)).rate
            assert rate == pytest.approx(k, abs=1e-9)

    def test_finite_system(self):
        r = classify(Substitution.from_strings({"a": "ab", "b": "ab"}))
        assert r.finite_system
        assert r.lambda_s == 0.0
        assert r.ac == 0.0
        assert r.null_and_tame
        assert r.mef == "finite cyclic"

    def test_requires_length_two(self):
        with pytest.raises(PreconditionError):
            classify(Substitution.from_strings({"a": "a"}))

    def test_requires_primitive(self):
        with pytest.raises(PreconditionError):
            classify(Substitution.from_strings({"a": "ab", "b": "bb"}))

    def test_to_dict_serializes_infinity(self):
        import json

        d = classify(example("thue_morse")).to_dict()
        assert d["ac"] == "infinity"
        json.dumps(d)  # must be serializable as-is

    def test_consistency_on_random_draws(self):
        rng = random.Random(5150)
        for _ in range(60):
            r = classify(random_primitive_substitution(rng))
            assert r.finite_system == (r.ac == 0.0)
            assert r.finite_system == (r.lambda_s == 0.0)
            assert math.isinf(r.ac) == (not r.discrete_spectrum)
            assert r.null_and_tame == (r.ac in (0.0, 1.0))


class TestPowerInvariance:
    @pytest.mark.parametrize("n", [2, 3])
    def test_ac_and_height_stable_under_powers(self, example_name, n):
        subst = example(example_name)
        base_report = classify(subst)
        powered = classify(power(subst, n))
        if math.isinf(base_report.ac):
            assert math.isinf(powered.ac)
        else:
            assert powered.ac == pytest.approx(base_report.ac, abs=1e-9)
        assert powered.height_h == base_report.height_h


def labels(kd) -> list[str]:
    return element_strings(kd.alphabet.letters, kd.elements.tolist())


def words(kd) -> list[tuple[int, ...]]:
    return kernel_words(kd.parent.tolist(), kd.generator.tolist())


class TestKernelMonoid:
    def test_e5_constants_only(self):
        kd = kernel_monoid(example("e5"))
        assert labels(kd) == ["id", "const 0", "const 1", "const 2"]
        assert words(kd) == [(), (1,), (2,), (3,)]

    def test_e6_five_elements(self):
        kd = kernel_monoid(example("e6"))
        assert labels(kd) == [
            "id",
            "0->0, 1->2, 2->0",
            "const 0",
            "const 1",
            "const 2",
        ]

    def test_thue_morse_group(self):
        kd = kernel_monoid(example("thue_morse"))
        assert labels(kd) == ["id", "a->b, b->a"]
        assert kd.constant.tolist() == [False, False]

    def test_period_doubling(self):
        kd = kernel_monoid(example("period_doubling"))
        assert labels(kd) == ["id", "const a", "a->b, b->a", "const b"]
        # the two-step word composes columns outer-first
        assert words(kd) == [(), (0,), (1,), (1, 0)]

    def test_closure_is_a_monoid(self, example_name):
        # the kernel is defined on the pure base (e4's is A -> AAB, B -> ABA)
        subst = pure_base(example(example_name)).pure_base
        kd = kernel_monoid(subst)
        maps = kd.elements.tolist()
        elements = set(map(tuple, maps))
        assert len(elements) <= subst.alphabet.size**subst.alphabet.size
        for f in maps:
            for g in maps:
                assert tuple(f[v] for v in g) in elements

    def test_requires_height_one(self):
        with pytest.raises(PreconditionError):
            kernel_monoid(example("e4"))

    @pytest.mark.parametrize("block", range(6))
    def test_matches_queue_closure(self, block):
        # 6 x 50 height-1 draws: same elements, words and flags, in order
        rng = random.Random(9300 + block)
        checked = 0
        while checked < 50:
            subst = random_primitive_substitution(rng, max_letters=6, max_k=5)
            if height(subst) != 1:
                continue
            kd = kernel_monoid(subst)
            elements, expected_words, flags = brute_kernel_monoid(subst.rules)
            assert kd.elements.tolist() == list(map(list, elements)), subst.rule_strings()
            assert words(kd) == expected_words, subst.rule_strings()
            assert kd.constant.tolist() == flags, subst.rule_strings()
            checked += 1

    def test_wide_alphabet_matches_queue_closure(self):
        subst = Substitution.from_strings(WIDE_ALPHABET_RULES)
        assert height(subst) == 1
        kd = kernel_monoid(subst)
        elements, expected_words, flags = brute_kernel_monoid(subst.rules)
        assert kd.elements.dtype == np.uint16
        assert (len(elements), sum(flags)) == (600, 300)
        assert kd.elements.tolist() == list(map(list, elements))
        assert words(kd) == expected_words
        assert kd.constant.tolist() == flags

    @pytest.mark.parametrize("block", range(3))
    def test_both_membership_paths_match_queue_closure(self, block, monkeypatch):
        # height-1 draws of 2-7 letters, k 2-5, four or more of them on 7
        # letters per block: |A|^|A| <= KERNEL_BUDGET indexes a flag array, a
        # budget patched to |A|^|A| - 1 looks the children up in a set
        assert 7**7 <= invariants.KERNEL_BUDGET < 8**8
        rng = random.Random(9400 + block)
        drawn = Counter()
        while drawn[7] < 4 or drawn.total() < 25:
            subst = random_primitive_substitution(rng, max_letters=7, max_k=5)
            if height(subst) != 1:
                continue
            size = subst.alphabet.size
            elements, expected_words, flags = brute_kernel_monoid(subst.rules)
            results = [kernel_monoid(subst)]
            with monkeypatch.context() as patch:
                patch.setattr(invariants, "KERNEL_BUDGET", size**size - 1)
                if len(elements) < size**size:
                    results.append(kernel_monoid(subst))
                else:  # every map: too many for the patched budget
                    with pytest.raises(ResourceLimitError):
                        kernel_monoid(subst)
            for kd in results:
                assert kd.elements.tolist() == list(map(list, elements)), subst.rule_strings()
                assert words(kd) == expected_words, subst.rule_strings()
                assert kd.constant.tolist() == flags, subst.rule_strings()
            drawn[size] += 1

    def test_wide_draw_closure_memory(self):
        # the flag array and a block's candidates, not one bytes key per element
        wide = Substitution.from_strings(WIDE_KERNEL_RULES)
        tracemalloc.start()
        try:
            assert len(kernel_monoid(wide).elements) == 36942
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 10**6

    def test_wide_draw_size_and_budget(self, monkeypatch):
        wide = Substitution.from_strings(WIDE_KERNEL_RULES)
        monkeypatch.setattr(invariants, "KERNEL_BUDGET", 36942)
        assert len(kernel_monoid(wide).elements) == 36942
        monkeypatch.setattr(invariants, "KERNEL_BUDGET", 36941)
        with pytest.raises(ResourceLimitError, match="kernel_monoid: more than 36941"):
            kernel_monoid(wide)


class TestNonconstantApCounts:
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5])
    def test_matches_brute_enumeration(self, example_name, m):
        # counts are defined on the pure base; its block letters are renamed
        # to one character each, which the string oracle needs
        base = pure_base_single_char(example(example_name))
        letters = base.alphabet.letters
        rules = {a: "".join(letters[b] for b in image) for a, image in zip(letters, base.rules)}
        assert nonconstant_ap_counts(base, m)[m] == brute_column_count(rules, m)

    def test_matches_brute_enumeration_on_random_draws(self):
        # the graph's counts against phi^m built symbol by symbol
        rng = random.Random(20261018)
        checked = 0
        while checked < 200:
            subst = random_primitive_substitution(rng, max_letters=4, max_k=4)
            if height(subst) != 1:
                continue
            letters = subst.alphabet.letters
            rules = {
                a: "".join(letters[b] for b in image)
                for a, image in zip(letters, subst.rules)
            }
            expected = [brute_column_count(rules, m) for m in range(5)]
            assert nonconstant_ap_counts(subst, 4) == expected
            checked += 1

    def test_frozen_sequences(self):
        assert nonconstant_ap_counts(example("e1"), 5) == [1, 2, 3, 5, 8, 13]
        assert nonconstant_ap_counts(example("e6"), 5) == [1, 2, 3, 4, 5, 6]
        assert nonconstant_ap_counts(example("e5"), 5) == [1, 1, 1, 1, 1, 1]
        assert nonconstant_ap_counts(example("thue_morse"), 5) == [1, 2, 4, 8, 16, 32]

    def test_nondecreasing(self, example_name):
        subst = example(example_name)
        if height(subst) != 1:
            subst = pure_base(subst).pure_base
        counts = nonconstant_ap_counts(subst, 12)
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_growth_tracks_lambda_s(self):
        """(d_2m / d_m)^(1/m) approximates lambda_s for expanding systems."""
        for name in ("e1", "e2", "e3", "thue_morse"):
            subst = example(name)
            lam = classify(subst).lambda_s
            counts = nonconstant_ap_counts(subst, 20)
            estimate = (counts[20] / counts[10]) ** (1 / 10)
            assert abs(estimate - lam) / lam < 0.1

    def test_bounded_when_rate_one(self):
        # lambda_s = 1: d_m / m^{d_s} stays bounded
        for name, d_s in (("e5", 0), ("e6", 1), ("period_doubling", 0)):
            counts = nonconstant_ap_counts(example(name), 20)
            ratios = [counts[m] / max(1, m) ** d_s for m in range(4, 21)]
            assert max(ratios) <= 4.0

    def test_column_set_budget(self, monkeypatch):
        wide = Substitution.from_strings(WIDE_KERNEL_RULES)
        monkeypatch.setattr(core, "COLUMN_SET_BUDGET", 63)
        assert len(core.column_sets(wide)) == 63
        assert nonconstant_ap_counts(wide, 2) == [1, 3, 9]
        monkeypatch.setattr(core, "COLUMN_SET_BUDGET", 62)
        message = "column_sets: more than 62 sets on 6 letters with k = 3"
        with pytest.raises(ResourceLimitError, match=message):
            core.column_sets(wide)
        with pytest.raises(ResourceLimitError, match=message):
            nonconstant_ap_counts(wide, 2)

    def test_m_max_cap(self):
        with pytest.raises(ResourceLimitError):
            nonconstant_ap_counts(example("e5"), 65)

    def test_negative_m_max(self):
        with pytest.raises(PreconditionError):
            nonconstant_ap_counts(example("e5"), -1)

    def test_requires_height_one(self):
        with pytest.raises(PreconditionError):
            nonconstant_ap_counts(example("e4"), 3)


def column_set_graph(
    subst: Substitution,
) -> tuple[tuple[frozenset[int], ...], tuple[tuple[int, ...], ...]]:
    """The column sets of the pure base and the k images of each."""
    return core._column_set_closure(pure_base(subst).pure_base)


class TestGraphCondition:
    def test_expected_verdicts(self, example_name):
        expected = EXPECTED_REPORTS[example_name][8]
        assert graph_condition(example(example_name)) == expected

    def test_thue_morse_fails_by_double_self_loop(self):
        # the only size->=2 vertex {a,b} carries two internal labeled edges
        sets, targets = column_set_graph(example("thue_morse"))
        assert len([v for v in sets if len(v) >= 2]) == 1
        internal = [
            (src, dst)
            for src, row in enumerate(targets)
            for dst in row
            if len(sets[src]) >= 2 and len(sets[dst]) >= 2
        ]
        assert len(internal) == 2
        assert not graph_condition(example("thue_morse"))
        assert not brute_graph_condition(EXAMPLE_RULES["thue_morse"])

    def test_graph_shape(self, example_subst):
        sets, targets = column_set_graph(example_subst)
        assert len(targets) == len(sets)
        assert all(len(row) == example_subst.length_k for row in targets)

    def test_matches_rate_characterization_on_random_draws(self):
        rng = random.Random(31337)
        for _ in range(80):
            subst = random_primitive_substitution(rng)
            r = classify(subst)
            expected = r.lambda_s <= 1.0 + RATE_TOL
            assert r.graph_condition == expected


class TestPairVerdicts:
    """The verdicts decided on the pairs against oracles on the column sets."""

    def test_seeded_sweep(self):
        # seed 21 also draws two substitutions of height 2
        rng = random.Random(21)
        draws = [example("e4")]
        draws += [random_primitive_substitution(rng, 8, 5) for _ in range(300)]
        outcomes = Counter()
        tall = 0
        for subst in draws:
            r = classify(subst)
            base = subst
            if height(subst) > 1:
                tall += 1
                base = pure_base_single_char(subst)
            letters = base.alphabet.letters
            rules = {
                a: "".join(letters[b] for b in image)
                for a, image in zip(letters, base.rules)
            }
            label = subst.rule_strings()
            assert r.discrete_spectrum == any(
                len(s) == 1 for s in brute_column_sets(rules)
            ), label
            assert r.graph_condition == brute_graph_condition(rules), label
            assert r.null_and_tame == r.graph_condition, label
            assert r.finite_system == brute_images_coincide(rules), label
            outcomes[r.discrete_spectrum, r.graph_condition, r.finite_system] += 1
        assert tall == 3
        # (discrete, graph, finite): every combination the theory allows
        assert set(outcomes) == {
            (True, False, False),
            (True, True, False),
            (True, True, True),
            (False, False, False),
        }


class TestSynthesizer:
    def test_spec_pair_2_2_1(self):
        subst = synthesize_target_ac(2, 2, 1)
        assert subst.rule_strings() == ["0 -> 1010", "1 -> 0010"]

    def test_target_2_4_3(self):
        subst = synthesize_target_ac(2, 4, 3)
        r = classify(subst)
        target = (4 * math.log(2)) / (4 * math.log(2) - math.log(3))
        assert r.ac == pytest.approx(target, abs=1e-9)
        assert r.height_h == 1

    def test_target_3_1_2(self):
        subst = synthesize_target_ac(3, 1, 2)
        r = classify(subst)
        assert r.ac == pytest.approx(math.log(3) / (math.log(3) - math.log(2)), abs=1e-9)

    def test_rejects_out_of_range_l(self):
        with pytest.raises(PreconditionError):
            synthesize_target_ac(2, 2, 0)
        with pytest.raises(PreconditionError):
            synthesize_target_ac(2, 2, 4)
        with pytest.raises(PreconditionError):
            synthesize_target_ac(1, 2, 1)

    def test_rule_length_over_word_budget(self):
        # k^n > 2^63: refused before any image list is built
        with pytest.raises(ResourceLimitError):
            synthesize_target_ac(10, 30, 1)
        with pytest.raises(ResourceLimitError):
            synthesize_target_ac(2, 64, 3)

    def test_small_grid(self):
        for k, n, l in [(2, 2, 2), (2, 3, 5), (3, 2, 4), (3, 2, 8)]:
            r = classify(synthesize_target_ac(k, n, l))
            target = (n * math.log(k)) / (n * math.log(k) - math.log(l))
            assert r.height_h == 1
            assert r.ac == pytest.approx(target, abs=1e-9)


class TestNullWitness:
    def test_thue_morse_witness(self):
        prefix = fixed_point_prefix(example("thue_morse"), 4096)
        w = null_witness_search(prefix, 2, 16)
        assert w is not None
        assert w.gaps == (0, 1)

    def test_period_doubling_witness(self):
        prefix = fixed_point_prefix(example("period_doubling"), 4096)
        w = null_witness_search(prefix, 2, 16)
        assert w is not None
        assert w.gaps == (0, 2)

    def test_null_example_still_has_fixed_t_witness(self):
        # nullness concerns arbitrarily large t, so a t = 2 witness can
        # coexist with it; the search just reports what the prefix shows
        prefix = fixed_point_prefix(example("e5"), 4096)
        w = null_witness_search(prefix, 2, 16)
        assert w is not None and w.gaps == (0, 4)

    def test_periodic_word_has_no_witness(self):
        # x = (ab)(ab)... realizes only two of the four patterns per gap set
        prefix = fixed_point_prefix(
            Substitution.from_strings({"a": "ab", "b": "ab"}), 4096
        )
        assert null_witness_search(prefix, 2, 16) is None

    def test_parameter_validation(self):
        prefix = fixed_point_prefix(example("e5"), 4096)
        with pytest.raises(PreconditionError):
            null_witness_search(prefix, 0, 16)
        with pytest.raises(ResourceLimitError):
            null_witness_search(prefix, 4, 16)
        with pytest.raises(ResourceLimitError):
            null_witness_search(prefix, 2, 33)
        with pytest.raises(PreconditionError):
            null_witness_search(prefix[:60], 2, 16)
        # the window must hold t positions
        with pytest.raises(PreconditionError):
            null_witness_search(prefix, 2, 0)
        with pytest.raises(PreconditionError):
            null_witness_search(prefix, 3, 2)
        assert null_witness_search(prefix, 2, 2) is None  # window = t is allowed

    @pytest.mark.parametrize("t, tail", [(2, (1, 1, 0)), (3, (1, 0, 1, 1, 1, 0, 0))])
    def test_witness_needs_the_last_start(self, t, tail):
        # zeros, then a tail with one pattern along G = (0, .., t - 1) that
        # only the last start realizes: a search that stops short of the end
        # of the prefix finds no witness
        prefix = (0,) * (64 - len(tail)) + tail
        w = null_witness_search(prefix, t, 16)
        assert w is not None and (w.gaps, w.letters) == (tuple(range(t)), (0, 1))
        assert brute_null_witness_search(prefix, t, 16) == (w.gaps, w.letters)
        assert brute_null_witness_search(prefix[:-1], t, 16) is None

    def test_matches_loop_oracle_sweep(self):
        # the loop takes 3 ms per gap set on a 4096-symbol prefix, so t = 3
        # runs on C(8, 3) = 56 gap sets at most
        rng = random.Random(20)
        named = [example(name) for name in sorted(EXAMPLE_RULES)]
        named += [synthesize_target_ac(*c) for c in [(2, 1, 1), (3, 1, 1), (2, 3, 2), (2, 2, 3)]]
        draws = [random_primitive_substitution(rng, 6, 4) for _ in range(100)]
        outcomes = Counter()
        for subst, t3_window in [(s, 8) for s in named] + [(s, rng.randint(3, 5)) for s in draws]:
            prefix = fixed_point_prefix(subst, 4096)
            for t, window in ((1, rng.randint(1, 32)), (2, rng.randint(2, 16)), (3, t3_window)):
                w = null_witness_search(prefix, t, window)
                expected = brute_null_witness_search(prefix, t, window)
                assert (w and (w.gaps, w.letters)) == expected, (subst.rule_strings(), t, window)
                outcomes[t, w is None] += 1
        # both answers occur at t = 2 and t = 3
        assert all(outcomes[t, none] for t in (2, 3) for none in (False, True)), outcomes


class TestRandomGenerator:
    def test_draws_are_primitive_and_bounded(self):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(40):
            subst = random_primitive_substitution(rng)
            assert 2 <= subst.alphabet.size <= 4
            assert 2 <= subst.length_k <= 4
            height(subst)  # must analyze cleanly

    def test_deterministic_for_fixed_seed(self):
        a = random_primitive_substitution(random.Random(12))
        b = random_primitive_substitution(random.Random(12))
        assert a == b

    def test_draws_up_to_eight_letters_are_pinned(self):
        draws = []
        for seed in range(50):
            rng = random.Random(seed)
            for max_letters, max_k in ((2, 2), (4, 4), (8, 5)):
                s = random_primitive_substitution(rng, max_letters, max_k)
                draws.append((s.alphabet.letters, s.rules))
        assert hashlib.sha256(repr(draws).encode()).hexdigest() == (
            "4246bf4dfa34ecd399b6a2816d088e72d6ed642dd1512939e9221f8285e12fd7"
        )
        assert random_primitive_substitution(random.Random(0), 8, 5).rules[0] == (
            6, 0, 4, 7, 6,
        )

    def test_more_than_eight_letters(self):
        # the letter pool used to stop at h, and 12 letters raised ValueError
        subst = random_primitive_substitution(random.Random(0), max_letters=12)
        assert subst.alphabet.letters == tuple("abcdefg")
        rng = random.Random(3)
        sizes = {random_primitive_substitution(rng, 26, 3).alphabet.size for _ in range(40)}
        assert max(sizes) > 20
        wide = random_primitive_substitution(random.Random(1), 26, 3)
        assert wide.alphabet.letters == tuple(string.ascii_lowercase[: wide.alphabet.size])

    @pytest.mark.parametrize("max_letters, max_k", [(1, 4), (27, 4), (4, 1), (0, 0)])
    def test_refuses_bad_bounds(self, max_letters, max_k):
        with pytest.raises(PreconditionError):
            random_primitive_substitution(random.Random(0), max_letters, max_k)
