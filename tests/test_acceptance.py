"""End-to-end acceptance suite: eleven scenarios the package must satisfy.

Each criterion is one test; running the file under ``pytest -v`` yields one
PASSED/FAILED line per criterion.  Every numeric tolerance is stated inline.
"""

from __future__ import annotations

import math
import random
import time

from substdyn import (
    DEFAULT_SEED,
    analyze_pairs,
    classify,
    height,
    kernel_monoid,
    separation_profile,
    synthesize_target_ac,
)
from substdyn.core import is_primitive
from substdyn.discrepancy import pair_rules
from substdyn.invariants import nonconstant_ap_counts
from substdyn.matrices import growth_types

from conftest import (
    EXAMPLE_RULES,
    example,
    power,
    pure_base_single_char,
    random_primitive_substitution,
)
from oracles import brute_column_count, brute_diff_count, element_strings, tuple_power

GOLDEN = (1 + math.sqrt(5)) / 2


def test_criterion_01_e1_golden_rate_and_closed_form_ac():
    started = time.monotonic()
    report = classify(example("e1"))
    elapsed = time.monotonic() - started
    assert abs(report.lambda_s - GOLDEN) <= 1e-6
    assert abs(report.ac - 1.779430) <= 1e-4
    assert elapsed < 1.0
    print("criterion 01: PASS - golden-ratio rate, ac 1.779430 +/- 1e-4, under 1s")


def test_criterion_02_e2_type_and_maximal_pairs():
    subst = example("e2")
    report = classify(subst)
    assert report.lambda_s_integer == 3
    assert abs(report.lambda_s - 3.0) <= 1e-6
    assert report.d_s == 0
    assert abs(report.ac - 4.818842) <= 1e-4
    assert set(report.maximal_pairs) == {"(ab)", "(ac)"}
    print("criterion 02: PASS - type (3, 0), ac 4.818842 +/- 1e-4, S = {(ab), (ac)}")


def test_criterion_03_e3_degree_one_type_and_per_pair_oracle():
    subst = example("e3")
    report = classify(subst)
    assert abs(report.lambda_s - 2.0) <= 1e-9
    assert report.d_s == 1
    assert abs(report.ac - 2.0) <= 1e-9

    analysis = analyze_pairs(subst)
    letters = subst.alphabet.letters
    expected_types = {"(ab)": (2.0, 1), "(ac)": (2.0, 1), "(bc)": (2.0, 0)}
    powers = {n: tuple_power(analysis.pairs.rules, n) for n in range(1, 6)}
    growth = growth_types(analysis.pairs.incidence(), analysis.pairs.erasing)
    for i, pair in enumerate(analysis.pairs.pair_alphabet):
        rate, degree = expected_types[pair.name(letters)]
        assert abs(growth[i].rate - rate) <= 1e-9
        assert growth[i].degree == degree
        # pair image lengths equal brute differing-position counts, n <= 5
        a, b = letters[pair.lo], letters[pair.hi]
        for n in range(1, 6):
            got = len(powers[n][i])
            assert got == brute_diff_count(EXAMPLE_RULES["e3"], a, b, n)
    print("criterion 03: PASS - type (2, 1), ac exactly 2, per-pair counts match brute force n <= 5")


def test_criterion_04_e4_purification():
    report = classify(example("e4"))
    assert report.height_h == 2
    assert report.pure_base_rules == ("01 -> 01 01 02", "02 -> 01 02 01")
    assert abs(report.lambda_s - 2.0) <= 1e-9
    assert abs(report.ac - 2.709511) <= 1e-4
    assert report.unpurified_rate is not None
    assert abs(report.unpurified_rate - 3.0) <= 1e-6
    print("criterion 04: PASS - height 2, expected pure rules, rate 2, unpurified eigenvalue 3")


def test_criterion_05_null_examples_kernel_and_counts():
    for name in ("e5", "e6"):
        report = classify(example(name))
        assert abs(report.ac - 1.0) <= 1e-9
        assert report.null_and_tame

    kd = kernel_monoid(example("e6"))
    assert element_strings(kd.alphabet.letters, kd.elements.tolist()) == [
        "id",
        "0->0, 1->2, 2->0",
        "const 0",
        "const 1",
        "const 2",
    ]

    counts = nonconstant_ap_counts(example("e6"), 3)
    assert counts == [1, 2, 3, 4]
    for m in range(4):
        assert counts[m] == brute_column_count(EXAMPLE_RULES["e6"], m)
    print("criterion 05: PASS - ac = 1 null+tame twice, 5-element kernel, d_m = m + 1 vs brute force")


def test_criterion_06_boundary_examples():
    tm = classify(example("thue_morse"))
    assert abs(tm.lambda_s - 2.0) <= 1e-9
    assert tm.length_k == 2
    assert math.isinf(tm.ac)
    assert not tm.discrete_spectrum
    assert not tm.null_and_tame

    pd = classify(example("period_doubling"))
    assert abs(pd.lambda_s - 1.0) <= 1e-9
    assert abs(pd.ac - 1.0) <= 1e-9
    assert pd.null_and_tame
    print("criterion 06: PASS - lambda_s = k gives infinite ac; rate-1 neighbor is null and tame")


def test_criterion_07_difference_count_oracle_suite():
    mismatches = 0
    for name in sorted(EXAMPLE_RULES):
        base = pure_base_single_char(example(name))
        letters = base.alphabet.letters
        rules = {
            letters[i]: "".join(letters[s] for s in base.rules[i])
            for i in range(base.alphabet.size)
        }
        g = pair_rules(base)
        for n in range(1, 6):
            powered = tuple_power(g.rules, n)
            for i, pair in enumerate(g.pair_alphabet):
                a, b = letters[pair.lo], letters[pair.hi]
                if len(powered[i]) != brute_diff_count(rules, a, b, n):
                    mismatches += 1
    assert mismatches == 0
    print("criterion 07: PASS - pair image lengths match brute-force counts on all pure bases, n <= 5")


def test_criterion_08_random_graph_condition_equivalence():
    started = time.monotonic()
    rng = random.Random(DEFAULT_SEED)
    violations = 0
    for _ in range(200):
        subst = random_primitive_substitution(rng, max_letters=4, max_k=4)
        report = classify(subst)
        rate = report.lambda_s
        k = subst.length_k
        in_range = rate == 0.0 or (1.0 - 1e-9 <= rate <= k + 1e-9)
        if not in_range:
            violations += 1
        if report.graph_condition != (rate <= 1.0 + 1e-9):
            violations += 1
    elapsed = time.monotonic() - started
    assert violations == 0
    assert elapsed < 30.0
    print("criterion 08: PASS - 200 random draws, graph condition <=> rate <= 1, all rates in range, under 30s")


def test_criterion_09_synthesizer_grid():
    report = classify(synthesize_target_ac(2, 4, 3))
    assert abs(report.ac - 1.656283) <= 1e-4

    checked = 0
    for k in (2, 3):
        for n in range(1, 5):
            big_k = k**n
            if big_k < 4:
                continue
            for l in range(1, big_k):
                subst = synthesize_target_ac(k, n, l)
                assert is_primitive(subst)
                assert height(subst) == 1
                checked += 1
    assert checked == (3 + 7 + 15) + (8 + 26 + 80)
    print(f"criterion 09: PASS - target ac 1.656283 hit; {checked} synthesized systems primitive, height 1")


def test_criterion_10_empirical_slopes():
    for name, exact in (("e5", 1.0), ("e3", 2.0)):
        started = time.monotonic()
        profile = separation_profile(example(name), m_points=256, window_n=8192)
        elapsed = time.monotonic() - started
        assert profile.slope is not None
        assert abs(profile.slope - exact) <= 0.25 * exact
        assert elapsed < 60.0
    print("criterion 10: PASS - fitted slopes within 25% of ac = 1 and ac = 2, each under 60s")


def test_criterion_11_power_invariance():
    for name in sorted(EXAMPLE_RULES):
        subst = example(name)
        report = classify(subst)
        for n in (2, 3):
            powered = classify(power(subst, n))
            if math.isinf(report.ac):
                assert math.isinf(powered.ac)
            else:
                assert abs(powered.ac - report.ac) <= 1e-9
            assert powered.height_h == report.height_h
    print("criterion 11: PASS - ac and height invariant under powers n <= 3 on every example")
