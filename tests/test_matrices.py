"""Integer matrices, Perron radii, growth types, critical polynomials."""

from __future__ import annotations

import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest
import sympy

from substdyn import Substitution, pure_base
from substdyn.discrepancy import pair_rules
from substdyn.matrices import (
    RATE_TOL,
    CountMatrix,
    GrowthType,
    decompose,
    evaluate_polynomial,
    growth_types,
    max_growth_type,
    minimal_polynomial,
    polynomial_text,
    spectral_radius,
)
from substdyn.matrices import _QUIET_TERMS, _prime

from conftest import EXAMPLE_RULES, example, patch_recurrence
from oracles import (
    dense_spectral_radius,
    faddeev_leverrier,
    krylov_rank,
    recursive_growth_types,
    tuple_incidence,
)


def random_irreducible(rng: random.Random, n: int) -> CountMatrix:
    rows = [[rng.choice((0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
    for i in range(n):  # a full cycle keeps the matrix irreducible
        rows[(i + 1) % n][i] = max(1, rows[(i + 1) % n][i])
    return CountMatrix.from_rows(rows)


class TestCountMatrix:
    def test_from_rows_validation(self):
        with pytest.raises(ValueError):
            CountMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            CountMatrix.from_rows([[1, -1], [0, 1]])

    def test_column_sums(self):
        m = CountMatrix.from_rows([[1, 2], [3, 4]])
        assert tuple(sum(v for _, v in column) for column in m.columns) == (4, 6)
        assert m.entries[1][0] == 3

    def test_columns_hold_the_nonzeros(self):
        m = CountMatrix.from_rows([[1, 0, 0], [3, 0, 5], [0, 0, 10**30]])
        assert m.columns == (((0, 1), (1, 3)), (), ((1, 5), (2, 10**30)))
        assert m.order == 3

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [[0]],
            [[7]],
            [[1, 0], [3, 0]],  # an all-zero column
            [[0, 0, 0], [2, 0, 1], [0, 0, 4]],
            [[10**30, 1], [7, 10**30 + 5]],
        ],
    )
    def test_round_trip(self, rows):
        m = CountMatrix.from_rows(rows)
        assert m.entries == tuple(map(tuple, rows))
        assert m.entries is m.entries  # built once, then cached

    def test_restrict_is_the_principal_block(self):
        rows = [[1, 0, 2, 0], [0, 5, 0, 6], [3, 0, 4, 0], [0, 7, 0, 8]]
        m = CountMatrix.from_rows(rows)
        for indices in ([0, 2], [1, 3], [3, 1], [2], [], [0, 1, 2, 3]):
            block = tuple(tuple(rows[i][j] for j in indices) for i in indices)
            assert m.restrict(indices).entries == block


class TestSpectralRadius:
    def test_small_exact_cases(self):
        assert spectral_radius(CountMatrix.from_rows([])) == 0.0
        assert spectral_radius(CountMatrix.from_rows([[7]])) == 7.0
        swap = CountMatrix.from_rows([[0, 1], [1, 0]])
        assert spectral_radius(swap) == pytest.approx(1.0, abs=1e-9)

    def test_golden_ratio(self):
        fib = CountMatrix.from_rows([[1, 1], [1, 0]])
        golden = (1 + math.sqrt(5)) / 2
        assert spectral_radius(fib) == pytest.approx(golden, abs=1e-9)

    def test_incidence_radius_equals_length(self, example_subst):
        # column sums of a constant-length incidence matrix are all k
        m = CountMatrix.from_rows(tuple_incidence(example_subst.rules))
        assert spectral_radius(m) == pytest.approx(example_subst.length_k, abs=1e-8)

    def test_matches_numpy_on_random_irreducible(self):
        rng = random.Random(20260814)
        for _ in range(100):
            m = random_irreducible(rng, rng.randint(2, 6))
            expected = max(abs(np.linalg.eigvals(np.array(m.entries, dtype=float))))
            assert spectral_radius(m) == pytest.approx(expected, abs=1e-7)

    def test_equals_dense_iteration_on_random_irreducible(self):
        # the sparse sums skip only zero terms, which add exactly +0.0
        rng = random.Random(20261018)
        for _ in range(200):
            m = random_irreducible(rng, rng.randint(1, 12))
            assert spectral_radius(m) == dense_spectral_radius(m.entries)

    @pytest.mark.parametrize(
        "columns, radius",
        [
            # pair blocks of the benchmark's seed-1 `corpus` analyze ops
            # (raw_a3_k3_02, raw_a3_k5_05, raw_a3_k5_04, raw_a4_k3_12) whose
            # radii moved in the last bits when rows were summed by sum(),
            # which is compensated from Python 3.12 on
            ([[(0, 1), (2, 1)], [(0, 1), (2, 1)], [(0, 1), (1, 1), (2, 1)]],
             "0x1.3504f333ed881p+1"),
            ([[(0, 3), (2, 1)], [(1, 1), (2, 1)], [(0, 1), (1, 1), (2, 2)]],
             "0x1.ddb3d742b71f6p+1"),
            ([[(0, 2), (1, 2)], [(0, 2), (1, 1), (2, 1)], [(0, 1), (1, 2), (2, 2)]],
             "0x1.0b5aae2259c2ap+2"),
            ([[(2, 2), (3, 1)], [(0, 1), (2, 1)], [(1, 1), (3, 1)], [(1, 1), (2, 1)]],
             "0x1.10b0cc2ff3337p+1"),
        ],
    )
    def test_bits_pinned_on_every_python(self, columns, radius):
        m = CountMatrix(tuple(map(tuple, columns)))
        assert spectral_radius(m).hex() == radius
        assert dense_spectral_radius(m.entries).hex() == radius

    @pytest.mark.parametrize("name", sorted(EXAMPLE_RULES) + ["dekking_a8_k5"])
    def test_equals_dense_iteration_on_pair_components(self, name):
        rules = DEKKING_A8_K5 if name == "dekking_a8_k5" else EXAMPLE_RULES[name]
        m = pair_rules(pure_base(Substitution.from_strings(rules)).pure_base).incidence()
        dec = decompose(m)
        for comp, radius in zip(dec.components, dec.radii):
            assert radius == dense_spectral_radius(m.restrict(comp).entries)


class TestDecomposition:
    def test_chain_into_cycle(self):
        # edges (a -> b iff entries[b][a] > 0): 0 -> 1 -> {2, 3} cycle
        m = CountMatrix.from_rows(
            [
                [0, 0, 0, 0],
                [1, 0, 0, 0],
                [0, 1, 0, 2],
                [0, 0, 1, 0],
            ]
        )
        dec = decompose(m)
        comps = {frozenset(c) for c in dec.components}
        assert comps == {frozenset({0}), frozenset({1}), frozenset({2, 3})}
        cyc = dec.components.index(tuple(sorted({2, 3})))
        assert dec.radii[cyc] == pytest.approx(math.sqrt(2), abs=1e-9)
        # reverse topological: the cycle precedes its callers
        assert cyc < dec.components.index((1,)) < dec.components.index((0,))

    def test_condensation_edges(self):
        m = CountMatrix.from_rows([[0, 0], [1, 0]])  # 0 -> 1 only
        dec = decompose(m)
        c0, c1 = dec.component_of[0], dec.component_of[1]
        assert dec.condensation[c0] == (c1,)
        assert dec.condensation[c1] == ()


class TestGrowthTypes:
    def test_two_equal_rate_components_raise_degree(self):
        # 0 has a loop of weight 2 and feeds 1, which also loops with weight 2:
        # |image^n(0)| grows like n * 2^n while 1 grows like 2^n
        m = CountMatrix.from_rows([[2, 0], [1, 2]])
        t0, t1 = growth_types(m, frozenset())
        assert t0 == GrowthType(2.0, 1)
        assert t1 == GrowthType(2.0, 0)

    def test_smaller_rate_upstream_keeps_degree_zero(self):
        # 0 loops once (rate 1) and feeds the rate-2 loop at 1
        m = CountMatrix.from_rows([[1, 0], [1, 2]])
        t0, t1 = growth_types(m, frozenset())
        assert t0 == GrowthType(2.0, 0)
        assert t1 == GrowthType(2.0, 0)

    def test_three_step_tower(self):
        m = CountMatrix.from_rows([[2, 0, 0], [1, 2, 0], [0, 1, 2]])
        types = growth_types(m, frozenset())
        assert [t.degree for t in types] == [2, 1, 0]
        assert all(t.rate == pytest.approx(2.0, abs=1e-9) for t in types)

    def test_erasing_convention(self):
        m = CountMatrix.from_rows([[2, 0], [0, 0]])
        types = growth_types(m, frozenset({1}))
        assert types[1] == GrowthType(0.0, 1)
        assert types[0].rate == pytest.approx(2.0, abs=1e-9)

    def test_nilpotent_rates_are_zero(self):
        m = CountMatrix.from_rows([[0, 1], [0, 0]])
        assert all(t.rate == pytest.approx(0.0, abs=1e-9) for t in growth_types(m, frozenset()))

    def test_matches_recursive_oracle_on_repeated_blocks(self):
        # A block, its transpose and its copies under other letter orders get
        # their radii from separate power-iteration runs, so equal rates can
        # differ in the last bits and the counts must group them by RATE_TOL.
        rng = random.Random(2718)
        pool = [[[0]], [[1]], [[2]], [[0, 1], [1, 0]], [[1, 1], [1, 0]],
                [[0, 1], [2, 1]], [[0, 2], [1, 0]]]
        for n in (2, 3, 3, 4):
            block = random_irreducible(rng, n).entries
            pool += [list(map(list, block)), list(map(list, zip(*block)))]
        for _ in range(400):
            blocks = [rng.choice(pool) for _ in range(rng.randint(2, 6))]
            n = sum(len(b) for b in blocks)
            rows = [[0] * n for _ in range(n)]
            starts = []
            at = 0
            for b in blocks:
                starts.append(at)
                for i, row in enumerate(b):
                    rows[at + i][at:at + len(b)] = row
                at += len(b)
            # edges run from earlier blocks to later ones only
            for bi in range(len(blocks)):
                for bj in range(bi + 1, len(blocks)):
                    if rng.random() < 0.4:
                        rows[starts[bj] + rng.randrange(len(blocks[bj]))][
                            starts[bi] + rng.randrange(len(blocks[bi]))
                        ] = rng.randint(1, 2)
            perm = list(range(n))
            rng.shuffle(perm)
            m = CountMatrix.from_rows([[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
            erasing = frozenset(a for a in range(n) if rng.random() < 0.1)
            dec = decompose(m)
            got = [(t.rate, t.degree) for t in dec.growth_types(erasing)]
            want = recursive_growth_types(
                dec.radii, dec.condensation, dec.component_of, erasing, RATE_TOL
            )
            assert got == want

    def test_long_chain_needs_no_recursion(self):
        # 0 -> 1 -> ... -> n-1, with a loop of weight 2 at the sink: one
        # component per index, and every index grows like 2^n
        n = 2000
        columns = tuple(((i + 1, 1),) for i in range(n - 1)) + (((n - 1, 2),),)
        dec = decompose(CountMatrix(columns))
        assert len(dec.components) == n
        assert dec.growth_types(frozenset()) == [GrowthType(2.0, 0)] * n

    def test_max_growth_type(self):
        top = max_growth_type(
            [GrowthType(2.0, 0), GrowthType(2.0 - RATE_TOL / 2, 3), GrowthType(1.5, 9)]
        )
        assert (top.rate, top.degree) == (2.0, 3)
        with pytest.raises(ValueError):
            max_growth_type([])


def times_ones(m: CountMatrix, coeffs) -> list[int]:
    """p(M) 1 over Python integers by Horner's rule, column by column."""
    x = [0] * m.order
    for c in coeffs:
        y = [c] * m.order
        for j, column in enumerate(m.columns):
            for i, v in column:
                y[i] += v * x[j]
        x = y
    return x


def minpoly_vs_oracles(rows: list[list[int]]) -> tuple[int, ...]:
    """mu(M) 1 = 0, deg mu is the Krylov rank, mu divides the characteristic
    polynomial, and the Perron root is a root of mu."""
    m = CountMatrix.from_rows(rows)
    mu = minimal_polynomial(m)
    assert mu[0] == 1
    assert not any(times_ones(m, mu))
    assert len(mu) - 1 == krylov_rank(rows)
    t = sympy.Symbol("t")
    assert sympy.Poly(faddeev_leverrier(rows), t).rem(sympy.Poly(mu, t)).is_zero
    if rows:
        rho = float(max(abs(np.linalg.eigvals(np.array(rows, dtype=float)))))
        terms = [c * rho ** (len(mu) - 1 - i) for i, c in enumerate(mu)]
        assert abs(sum(terms)) <= 1e-7 * sum(map(abs, terms))
    return mu


def sympy_minimal_polynomial(rows: list[list[int]]) -> tuple[int, ...]:
    """The first linear dependency among 1, M 1, M^2 1, ..., made monic."""
    a = sympy.Matrix(rows)
    vectors = [sympy.ones(len(rows), 1)]
    while True:
        kernel = sympy.Matrix.hstack(*vectors).nullspace()
        if kernel:
            v = kernel[0] / kernel[0][-1]
            return tuple(int(c) for c in reversed(v))
        vectors.append(a * vectors[-1])


#: A Dekking-labelled input (height 2) whose critical pair component has
#: order 50.
DEKKING_A8_K5 = {
    "a": "adedh", "b": "hcbch", "c": "fbcbg", "d": "chdac",
    "e": "efefe", "f": "dedhf", "g": "cagaf", "h": "aghdb",
}

#: ``bench/inputs.dekking_draw(random.Random(1), 20, 3)``: its critical
#: block has order 236.
DEKKING_A20_K3 = {
    "a": "mrl", "b": "slq", "c": "gps", "d": "bmr", "e": "dpr", "f": "jna", "g": "qls",
    "h": "rjr", "i": "mql", "j": "mha", "k": "prt", "l": "tho", "m": "tbj", "n": "dps",
    "o": "icp", "p": "kbf", "q": "caq", "r": "bke", "s": "gfs", "t": "ihk",
}

#: ``bench/inputs.dekking_draw(random.Random(1), 24, 5)`` (height 2).  Its
#: pure base has 75 letters, so the pair matrix has order 2775 and 12,924
#: nonzeros; its critical block has order 566.
DEKKING_A24_K5 = {
    "a": "cblbh", "b": "khdtg", "c": "imcge", "d": "mrgvm", "e": "vwhpx", "f": "iplda",
    "g": "mjnjk", "h": "hdhwr", "i": "fsjbf", "j": "aoebx", "k": "glwru", "l": "jqfux",
    "m": "qlkru", "n": "bjutn", "o": "uvoaw", "p": "mekam", "q": "dcmhw", "r": "eotme",
    "s": "brbtk", "t": "tpewt", "u": "qaofn", "v": "cktuj", "w": "sfpcu", "x": "jmrpa",
}


#: ``bench/inputs.raw_draw(random.Random(1), 30, 3)``: its critical block
#: has order 317 and a mu of degree 291 with 78-bit coefficients, so the join
#: needs several primes.
RAW_A30_K3 = {
    "a": "eAB", "b": "kjd", "c": "wqA", "d": "Dtj", "e": "eCg", "f": "erD", "g": "xby",
    "h": "kAC", "i": "tzv", "j": "DrA", "k": "xwg", "l": "fjn", "m": "rfb", "n": "wBv",
    "o": "hiy", "p": "cvo", "q": "znr", "r": "iro", "s": "Bro", "t": "amA", "u": "kfi",
    "v": "paz", "w": "uDn", "x": "sab", "y": "wls", "z": "ese", "A": "eiA", "B": "ims",
    "C": "mft", "D": "chp",
}


def int64_block(a: int) -> tuple[CountMatrix, int]:
    """Row 0 holds a, then 2,112 entries b = -1 mod the first prime p, past
    2^63; each other row holds b on its diagonal alone.  Once x is M 1, row
    0 sums 2,112 products (p - 1)^2 mod p, more than int64 holds unless
    each product is reduced before the sum.  The ones of row 0 and of the
    rest span an invariant plane, on which M acts as [[a, (n - 1) b], [0,
    b]], so mu = (t - a)(t - b).  Returns the block and b."""
    n, b = 2113, 2**40 * _prime(0) - 1
    return CountMatrix((((0, a),),) + tuple(((0, b), (j, b)) for j in range(1, n))), b


class TestCharacteristicPolynomial:
    """The critical polynomial: mu, the minimal polynomial of 1, against the
    characteristic polynomial and Krylov-rank oracles."""

    def test_known_polynomials(self):
        fib = CountMatrix.from_rows([[1, 1], [1, 0]])
        assert minimal_polynomial(fib) == (1, -1, -1)
        assert minimal_polynomial(CountMatrix.from_rows([])) == (1,)
        assert minimal_polynomial(CountMatrix.from_rows([[5]])) == (1, -5)
        # every row sums to 3, so 1 is an eigenvector and mu = t - 3
        assert minimal_polynomial(CountMatrix.from_rows([[3, 0], [0, 3]])) == (1, -3)
        assert minimal_polynomial(CountMatrix.from_rows([[2, 1], [1, 2]])) == (1, -3)
        assert minimal_polynomial(CountMatrix.from_rows([[1, 2], [2, 1]])) == (1, -3)
        # every column sums to 3, so the projection 1 . M^t 1 = 2 * 3^t sees
        # only t - 3; but 1 is no eigenvector, and mu is the charpoly
        assert minimal_polynomial(CountMatrix.from_rows([[2, 0], [1, 3]])) == (1, -5, 6)

    def test_matches_sympy_on_random_matrices(self):
        rng = random.Random(99)
        for _ in range(50):
            n = rng.randint(1, 5)
            rows = [[rng.randint(0, 4) for _ in range(n)] for _ in range(n)]
            assert minimal_polynomial(CountMatrix.from_rows(rows)) == (
                sympy_minimal_polynomial(rows)
            )

    @pytest.mark.parametrize("density", [0.15, 1.0])
    def test_matches_faddeev_leverrier_sweep(self, density):
        rng = random.Random(20261018)
        shorter = 0
        for n in range(1, 31):
            rows = [
                [rng.randint(1, 9) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)
            ]
            shorter += len(minpoly_vs_oracles(rows)) < n + 1
        # the sparse draws are mostly reducible, and 1 misses some of them
        assert shorter > 0 if density < 1 else shorter == 0

    def test_edge_cases(self):
        assert minpoly_vs_oracles([[0] * 4 for _ in range(4)]) == (1, 0)
        # strictly upper triangular: nilpotent, t^j for the first j with M^j 1 = 0
        assert minpoly_vs_oracles(
            [[int(j > i) * (i + j) for j in range(5)] for i in range(5)]
        ) == (1, 0, 0, 0, 0, 0)
        # a permutation fixes 1
        perm = [2, 0, 4, 1, 3]
        permutation = [[int(perm[i] == j) for j in range(5)] for i in range(5)]
        assert minpoly_vs_oracles(permutation) == (1, -1)
        # block-diagonal, the blocks on {0, 1} and {2, 3}, then on {0, 2} and {1, 3}
        minpoly_vs_oracles([[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 5, 6], [0, 0, 7, 8]])
        minpoly_vs_oracles([[1, 0, 2, 0], [0, 5, 0, 6], [3, 0, 4, 0], [0, 7, 0, 8]])
        # entries that vanish mod the first primes, and entries past int64
        p, q = _prime(0), _prime(1)
        minpoly_vs_oracles([[p, 1, 0], [2 * p, q, p * q], [0, 3, p]])
        minpoly_vs_oracles([[10**30, 1], [7, 10**30 + 5]])

    def test_primes_are_the_largest_below_2_26(self):
        want = [sympy.prevprime(2**26)]
        while len(want) < 40:
            want.append(sympy.prevprime(want[-1]))
        assert [_prime(i) for i in range(40)] == want

    def test_constant_row_sums_need_no_prime(self, monkeypatch):
        # M 1 = r 1 settles mu = t - r exactly, without a Krylov run
        calls = patch_recurrence(monkeypatch)
        big = 2**70
        assert minpoly_vs_oracles([[0]]) == (1, 0)
        assert minpoly_vs_oracles([[10**30]]) == (1, -(10**30))
        rows = [[big, 10**30, 0], [0, 3, big + 10**30 - 3], [10**30 + 1, big - 1, 0]]
        assert minpoly_vs_oracles(rows) == (1, -(big + 10**30))
        assert calls == []

    def test_int64_sums_stay_exact(self, monkeypatch):
        p = _prime(0)
        a = 2**40 + 3
        m, b = int64_block(a)
        assert b > 2**63 and b % p == p - 1
        assert sum(column[0][0] == 0 for column in m.columns) == m.order > 2**11
        calls = patch_recurrence(monkeypatch)
        assert minimal_polynomial(m) == (1, -(a + b), a * b)
        # the coefficients pass 2^66, so the join takes several primes
        primes_run = [q for q, _, _ in calls]
        assert primes_run == [_prime(i) for i in range(len(primes_run))]
        assert len(primes_run) > 1

    def test_early_stop_runs_few_terms(self, monkeypatch):
        # mu has degree L = 2 on a block of order 2,113: a sequence stopped
        # early runs 2L + _QUIET_TERMS = 8 terms, not 2n = 4,226
        m, b = int64_block(2**40 + 3)
        calls = patch_recurrence(monkeypatch)
        assert minimal_polynomial(m) == (1, -(2**40 + 3 + b), (2**40 + 3) * b)
        assert calls and not any(full for _, full, _ in calls)
        assert [terms for _, _, terms in calls] == [2 * 2 + _QUIET_TERMS] * len(calls)

    def test_restart_keeps_the_early_stop(self, monkeypatch):
        # with a = 2, mu's residues mod the first prime are (1, -1, -2), all
        # below sqrt(p): a first-prime candidate that the certificate
        # rejects; the restart still stops its sequences early
        a = 2
        m, b = int64_block(a)
        calls = patch_recurrence(monkeypatch)
        assert minimal_polynomial(m) == (1, -(a + b), a * b)
        assert len(calls) > 2 and not any(full for _, full, _ in calls)

    def test_pinned_order_50_critical_block(self):
        from substdyn import analyze_pairs

        analysis = analyze_pairs(Substitution.from_strings(DEKKING_A8_K5))
        assert analysis.pure.height_h == 2
        assert analysis.critical.order == 50
        rows = [list(row) for row in analysis.critical.entries]
        coeffs = minpoly_vs_oracles(rows)
        assert len(coeffs) - 1 == 19
        assert hashlib.sha256(repr(coeffs).encode()).hexdigest() == (
            "deb563b876173b9a5887f858baf430017b80a8602f46d04fcfdcddf5ffc8712c"
        )

    def test_evaluation(self):
        coeffs = (1, -3, 0)  # t^2 - 3t
        assert evaluate_polynomial(coeffs, 3) == 0
        assert evaluate_polynomial(coeffs, 2) == -2
        assert evaluate_polynomial((1, -1, -1), 2) == 1

    def test_rendering(self):
        assert polynomial_text((1, -1, -1)) == "t^2 - t - 1"
        assert polynomial_text((1, -3, 0)) == "t^2 - 3*t"
        assert polynomial_text((1, -2)) == "t - 2"
        assert polynomial_text((1, 0, 0)) == "t^2"
        assert polynomial_text((2, 3)) == "2*t + 3"
        assert polynomial_text((1,)) == "1"
        assert polynomial_text((0,)) == "0"

    def test_root_of_e1_rate_polynomial(self):
        from substdyn import analyze_pairs

        analysis = analyze_pairs(example("e1"))
        coeffs = minimal_polynomial(analysis.critical)
        golden = analysis.rate_type.rate
        # the computed rate is a root of the reported integer polynomial
        value = sum(
            c * golden ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs)
        )
        assert value == pytest.approx(0.0, abs=1e-7)


    def test_one_bad_prime_is_dropped_by_the_restart(self, monkeypatch):
        from substdyn import analyze_pairs

        critical = analyze_pairs(Substitution.from_strings(DEKKING_A8_K5)).critical
        want = minimal_polynomial(critical)
        # mu's coefficients are under sqrt(p), so a bad residue is a
        # first-prime candidate; the certificate rejects it, and the join
        # restarts on early-stopped sequences, and after a second rejection
        # on full ones
        for bad, fulls in ((1, [False, False]), (2, [False, False, True])):
            with monkeypatch.context() as patch:
                calls = patch_recurrence(patch, lambda call: call < bad)
                assert minimal_polynomial(critical) == want
                assert [full for _, full, _ in calls] == fulls

    @pytest.mark.parametrize("rules,order,degree,primes", [
        (DEKKING_A20_K3, 236, 77, 2), (DEKKING_A24_K5, 566, 127, 4), (RAW_A30_K3, 317, 291, 5),
    ], ids=["a20_k3", "a24_k5", "raw_a30_k3"])
    def test_dekking_draws_at_scale(self, monkeypatch, rules, order, degree, primes):
        # the Hessenberg characteristic polynomial took 4 s and 194 s on the
        # first two; every mu here has coefficients past sqrt(p), so each
        # joins several primes by CRT
        from substdyn import analyze_pairs

        analysis = analyze_pairs(Substitution.from_strings(rules))
        m = analysis.critical
        calls = patch_recurrence(monkeypatch)
        mu = minimal_polynomial(m)
        assert (m.order, len(mu) - 1, len(calls)) == (order, degree, primes)
        assert not any(times_ones(m, mu))
        rate = analysis.rate_type.rate
        terms = [c * rate ** (degree - i) for i, c in enumerate(mu)]
        assert abs(sum(terms)) <= 1e-7 * sum(map(abs, terms))


class TestSparsePairMatrix:
    def test_decompose_never_builds_a_dense_matrix(self):
        # a dense matrix of this order has 7.7 million entries, over 100 MB
        # of tuples; the nonzeros and the largest block fit in a few MB
        pure = pure_base(Substitution.from_strings(DEKKING_A24_K5)).pure_base
        tracemalloc.start()
        try:
            m = pair_rules(pure).incidence()
            dec = decompose(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (m.order, sum(map(len, m.columns))) == (2775, 12924)
        assert len(dec.components) == len(dec.radii)
        assert peak < 16 * 2**20
