"""Orbit-pair densities, separation profiles, slope fits and the ratio probe."""

from __future__ import annotations

import dataclasses
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import substdyn
from substdyn import (
    Alphabet,
    EstimationError,
    PreconditionError,
    ResourceLimitError,
    Substitution,
    amorphic_complexity,
    analyze_pairs,
    height,
    kernel_monoid,
    lipschitz_ratio_probe,
    separation_profile,
)
from substdyn.core import fixed_point_array, fixed_point_prefix
from substdyn.discrepancy import LetterPair
from substdyn.empirical import (
    ARRAY_BUDGET,
    SeparationProfile,
    _first_lag,
    _greedy_counts,
    _letter_frequencies,
    _min_density_ratio,
    _pair_blocks,
    _pair_sums,
    build_nu_grid,
    check_sample_size,
    density_rows,
    fit_slope,
    write_density_csv,
    write_profile_csv,
)
from substdyn.matrices import RATE_TOL

from conftest import (
    EXAMPLE_RULES,
    example,
    height_two_draw,
    random_primitive_substitution,
    sweep_draw,
    wide_draw,
)
from oracles import (
    LAG_ROWS,
    brute_greedy_count,
    brute_lipschitz_ratio_probe,
    brute_mismatch_counts,
    exact_correlation_lookup,
    exact_first_lag_orbits,
    exact_first_lag_solve,
    exact_letter_frequencies,
    exact_pair_correlations,
    first_row,
    lag_counts,
    mismatch_density,
    orbit_windows,
    pair_filter_table,
    table_bytes,
    window_counts,
    window_greedy_counts,
)


def exact_table(subst: Substitution, lags: int) -> tuple[int, np.ndarray]:
    """Z and the shipped Z * P_d, d < lags, as (lags, |A|, |A|) integers."""
    size = subst.alphabet.size
    z, blocks = _pair_blocks(subst, lags)
    return z, np.concatenate(list(blocks)).reshape(lags, size, size)


def exact_apart(subst: Substitution, lags: int) -> tuple[int, np.ndarray]:
    """Z and Z * delta(d), d < lags, as the profile reads them."""
    z, sums = _pair_sums(subst, lags, range(subst.alphabet.size))
    return z, sums[:, 0]


def shipped_lookup(subst: Substitution, lags: int):
    """An ``exact_correlation_lookup`` for d < ``lags`` read off the shipped
    table as Fraction(x, Z), for alphabets on which the Fraction recursion
    takes seconds; the tests of TestPairDensities check that table."""
    size = subst.alphabet.size
    z, table = exact_table(subst, lags)
    return [
        {(v // size, v % size): Fraction(int(x), z) for v, x in enumerate(row) if x}
        for row in table.reshape(lags, -1)
    ].__getitem__


def toeplitz_density(z: int, apart: np.ndarray) -> np.ndarray:
    """The M x M Fractions delta(|i - j|) of M points read off one table."""
    m = len(apart)
    lag = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    values = np.array([Fraction(int(a), z) for a in apart], dtype=object)
    return values[lag]


class TestNuGrid:
    def test_shape_and_endpoints(self):
        grid = build_nu_grid()
        assert len(grid) == 13
        assert grid[0] == 0.25
        assert grid[-1] == pytest.approx(0.25 * 0.5**6, rel=1e-12)  # ~0.0039
        for a, b in zip(grid, grid[1:]):
            assert b / a == pytest.approx(0.5**0.5, rel=1e-12)


class TestOrbitSample:
    """Orbit points T^i x as the windows of one prefix of M + N symbols."""

    def test_windows_slice_the_prefix(self):
        subst = example("e1")
        prefix = fixed_point_array(subst, 8 + 16)
        assert prefix.dtype == np.int16
        assert tuple(prefix) == fixed_point_prefix(subst, 8 + 16)
        windows = orbit_windows(subst.rules, 8, 16)
        assert windows.shape == (8, 16)
        for i in range(8):
            assert np.array_equal(windows[i], prefix[i : i + 16])

    def test_from_substitution(self):
        subst = example("e5")
        windows = orbit_windows(subst.rules, 16, 64)
        assert windows.dtype == np.int16
        assert np.shares_memory(windows[0], windows[15])  # views of one prefix
        assert np.array_equal(windows[5], fixed_point_array(subst, 16 + 64)[5 : 5 + 64])


class TestMismatchDensity:
    def test_zero_on_equal_windows(self):
        windows = orbit_windows(example("e1").rules, 8, 128)
        assert mismatch_density(windows[3], windows[3]) == 0.0

    def test_one_on_disjoint_letters(self):
        assert mismatch_density(np.array([0, 0]), np.array([1, 1])) == 1.0

    def test_symmetry(self):
        w = orbit_windows(example("e3").rules, 32, 1024)
        for i, j in [(0, 7), (3, 19), (11, 30)]:
            assert mismatch_density(w[i], w[j]) == mismatch_density(w[j], w[i])

    def test_triangle_inequality(self):
        w = orbit_windows(example("e2").rules, 24, 2048)
        for i, j, k in [(0, 5, 17), (2, 9, 23), (1, 14, 20)]:
            dij = mismatch_density(w[i], w[j])
            djk = mismatch_density(w[j], w[k])
            dik = mismatch_density(w[i], w[k])
            assert dik <= dij + djk + 1e-12

    def test_filtered_never_exceeds_plain(self):
        subst = example("e2")
        pairs = [(p.lo, p.hi) for p in analyze_pairs(subst).maximal]
        table = pair_filter_table(subst.alphabet.size, pairs)
        w = orbit_windows(subst.rules, 32, 2048)
        for i in range(0, 32, 5):
            for j in range(1, 32, 7):
                filtered = mismatch_density(w[i], w[j], table)
                assert filtered <= mismatch_density(w[i], w[j]) + 1e-12

    def test_e6_kernel_image_density_against_fixed_word(self):
        """D(g(x), 000...) is the frequency of the letter g displaces."""
        subst = example("e6")
        n = 5**7
        prefix = fixed_point_prefix(subst, n)
        g = kernel_monoid(subst).elements[1].tolist()  # 0->0, 1->2, 2->0
        mapped = np.array([g[s] for s in prefix], dtype=np.int16)
        density = mismatch_density(mapped, np.zeros(n, dtype=np.int16))
        # g(x)_i != 0 exactly when x_i = 1, and letter 1 has frequency 1/4
        assert density == pytest.approx(0.25, abs=0.02)


def _raw_draw(draw: int) -> Substitution:
    """Draw number ``draw`` of the seeded sweep against the Fraction
    recursion: 2 to 6 letters and k from 2 to 5, every fourth of height 2."""
    rng = random.Random(3100 + draw)
    if draw % 4 == 0:
        return height_two_draw(rng)
    return random_primitive_substitution(rng, max_letters=6, max_k=5)


class TestPairDensities:
    """The shipped integer recursion against Fractions, entry for entry."""

    LAGS = 40

    @staticmethod
    def assert_matches_fractions(subst: Substitution, lags: int) -> None:
        z, table = exact_table(subst, lags)
        want = exact_pair_correlations(subst.rules, lags)
        got = [[[Fraction(int(x), z) for x in row] for row in matrix] for matrix in table]
        assert got == want

    @pytest.mark.parametrize("name", sorted(EXAMPLE_RULES))
    def test_golden_against_fractions(self, name):
        self.assert_matches_fractions(example(name), self.LAGS)

    @pytest.mark.parametrize("chunk", range(4))
    def test_draws_against_fractions(self, chunk):
        heights = []
        for draw in range(55 * chunk, 55 * chunk + 55):
            subst = _raw_draw(draw)
            assert 2 <= subst.alphabet.size <= 8 and 2 <= subst.length_k <= 5
            heights.append(height(subst))
            self.assert_matches_fractions(subst, self.LAGS)
        assert heights.count(1) > 30 and heights.count(2) >= 13

    def test_draws_cover_the_sizes(self):
        draws = [_raw_draw(draw) for draw in range(220)]
        assert {s.alphabet.size for s in draws if height(s) == 1} == {2, 3, 4, 5, 6}
        assert {s.length_k for s in draws} == {2, 3, 4, 5}

    @pytest.mark.parametrize("chunk", range(2))
    def test_first_lag_three_ways(self, chunk):
        # the shipped tree-and-cycle series, the oracle's orbit walk and the
        # full |A|^2 x |A|^2 solve; the solve on up to 5 letters
        substs = [example(name) for name in sorted(EXAMPLE_RULES)] if chunk == 0 else []
        substs += [s for s in map(_raw_draw, range(110 * chunk, 110 * chunk + 110))
                   if s.alphabet.size <= 5]
        for subst in substs:
            size = subst.alphabet.size
            freq = exact_letter_frequencies(subst.rules)
            assert _letter_frequencies(subst) == freq
            orbits = exact_first_lag_orbits(subst.rules, freq)
            assert exact_first_lag_solve(subst.rules, freq) == orbits
            shipped = _first_lag(subst, freq)
            assert {(v // size, v % size): x for v, x in enumerate(shipped) if x} == orbits

    @pytest.mark.parametrize("name", sorted(EXAMPLE_RULES))
    def test_sums_and_marginals(self, name):
        # every Z * P_d sums to Z and both its marginals are Z * f
        subst = example(name)
        z, table = exact_table(subst, 300)
        freq = np.array([int(x * z) for x in _letter_frequencies(subst)], dtype=object)
        assert (table.sum(axis=(1, 2)) == z).all()
        assert (table.sum(axis=1) == freq).all() and (table.sum(axis=2) == freq).all()

    def test_draws_sums_and_marginals(self):
        for draw in range(40):
            subst = _raw_draw(draw)
            z, table = exact_table(subst, 100)
            freq = [int(x * z) for x in _letter_frequencies(subst)]
            assert (table.sum(axis=(1, 2)) == z).all()
            assert (table.sum(axis=1) == freq).all() and (table.sum(axis=2) == freq).all()

    #: A 7-letter, k = 4 draw whose P_0 and P_1 share a least common
    #: denominator of 53 bits, 8936830510555200, so that k * Z passes 2^63
    #: between 257 lags (Z = Z_1 * 4^4) and 258 (Z = Z_1 * 4^5).
    NEAR_BOUND = {"a": "decf", "b": "aabd", "c": "cefg", "d": "fecc",
                  "e": "bgga", "f": "efda", "g": "facb"}

    def test_int64_bound_both_sides(self):
        subst = Substitution.from_strings(self.NEAR_BOUND)
        z1 = 8936830510555200
        below, table_below = exact_table(subst, 257)
        above, table_above = exact_table(subst, 258)
        assert (below, above) == (z1 * 4**4, z1 * 4**5)
        assert 4 * below < 2**63 <= 4 * above
        assert table_below.dtype == np.int64 and table_above.dtype == object
        assert (table_above[:257] == 4 * table_below).all()
        want = exact_pair_correlations(subst.rules, 258)
        for z, table in ((below, table_below), (above, table_above)):
            for d in (0, 1, 2, 5, 17, 64, 65, 66, 200, 256, len(table) - 1):
                assert [[Fraction(int(x), z) for x in row] for row in table[d]] == want[d]

    def test_wide_alphabet_against_fractions(self):
        # 40 letters: P_0 and P_1 alone pass 2^63, so the table is Python
        # ints; read through the plain mismatches and three random labellings
        subst = wide_draw(random.Random(2))
        rng = random.Random(2)
        labellings = [range(40)] + [[rng.randrange(3) for _ in range(40)] for _ in range(3)]
        z, sums = _pair_sums(subst, 12, *labellings)
        assert sums.dtype == object and subst.length_k * z >= 2**63
        correlations = exact_correlation_lookup(subst.rules)
        for d in range(12):
            want = [
                sum(v for (a, b), v in correlations(d).items() if x[a] != x[b])
                for x in labellings
            ]
            assert [Fraction(x, z) for x in sums[d]] == want

    def test_python_int_table_priced_by_its_size(self):
        # at 8 bytes a cell the wide draw's 4096 lags fit the budget (up to
        # 4121 do), but its entries are ints of up to 40 bytes each (up to
        # 2069 lags fit): refused once Z is known, before the table is built
        subst = wide_draw(random.Random(2))
        substdyn.empirical._check_cost("op", subst, 4096)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="pair densities: a pair-density table of"):
            _pair_sums(subst, 4096, range(40))
        assert time.perf_counter() - start < 0.25
        _pair_sums(subst, 256, range(40))

    def test_alphabet_edge_at_default_points(self):
        # at 256 lags int64 tables admit 135 letters at k = 2 and 147 at
        # k = 5, checked before anything is built; x_i -> x_{i+1} x0 needs
        # Python ints of 40 bytes there, which admit 88 letters and refuse 89
        # once Z is known
        def constant(size, k):
            alphabet = Alphabet(f"x{i}" for i in range(size))
            return Substitution(alphabet, ((0,) * k,) * size)

        def cycle(size):
            return Substitution.from_strings(
                {f"x{i}": [f"x{(i + 1) % size}", "x0"] for i in range(size)}
            )

        for k, size in ((2, 135), (5, 147)):
            check_sample_size(constant(size, k), 256)
            with pytest.raises(ResourceLimitError, match="separation_profile: a pair-density"):
                check_sample_size(constant(size + 1, k), 256)
        z, _ = _pair_blocks(cycle(88), 256)
        assert 2 * z >= 2**63 and sys.getsizeof(2 * z) == 40
        with pytest.raises(
            ResourceLimitError, match="pair densities: a pair-density table of 136631384 bytes"
        ):
            _pair_blocks(cycle(89), 256)

    def test_one_letter(self):
        for k in (1, 2, 5):
            subst = Substitution(Alphabet("a"), ((0,) * k,))
            z, table = exact_table(subst, 40)
            assert z == 1 and table.tolist() == [[[1]]] * 40
            z, sums = _pair_sums(subst, 40, range(1), [7])
            assert z == 1 and sums.tolist() == [[0, 0]] * 40

    def test_lags_below_two(self):
        z, table = exact_table(example("e2"), 1)
        assert table.shape == (1, 3, 3) and table.sum() == z

    @pytest.mark.parametrize(
        "name", ["e1", "e2", "e3", "e4", "e6", "thue_morse", "period_doubling"]
    )
    def test_windows_converge_to_the_exact_density(self, name):
        # the windowed oracle's density between x[0 : N] and x[d : d + N],
        # d < 64, against delta(d), N = 2^12, 2^14, ..., 2^20: within 5e-5 at
        # 2^20 on all but e3, whose gap shrinks by about 0.57 per 4x of N
        subst = example(name)
        z, apart = exact_apart(subst, 64)
        delta = apart.astype(float) / z
        prefix = fixed_point_array(subst, (1 << 20) + 64)
        gaps = []
        for n in (1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20):
            counts = first_row(prefix[: n + 64], 64, n)
            gaps.append(float(np.abs(counts / n - delta).max()))
        if name == "e3":
            ratios = [b / a for a, b in zip(gaps, gaps[1:])]
            assert all(0.45 < r < 0.7 for r in ratios), ratios
            assert 5e-4 < gaps[-1] < 2e-3
        else:
            assert gaps[-1] < 5e-5
            assert gaps[-1] < gaps[0] / 8

    #: The seed-1 benchmark's verify sizes: every golden example at 256
    #: points of 8192 symbols, and e1 and e4 at 512 of 16384.
    VERIFY_OPS = [(name, 256, 8192) for name in sorted(EXAMPLE_RULES)] + [
        ("e1", 512, 16384), ("e4", 512, 16384)
    ]

    @pytest.mark.parametrize("name,m,n", VERIFY_OPS)
    def test_profile_counts_match_the_windows(self, name, m, n):
        subst = example(name)
        grid = build_nu_grid()
        windowed = window_greedy_counts(lag_counts(fixed_point_array(subst, m + n), m, n), n, grid)
        assert separation_profile(subst, m, nu_grid=grid).counts == windowed


class TestSeparationProfile:
    def test_e5_default_grid_counts(self):
        profile = separation_profile(example("e5"))
        assert profile.counts[0] == 4
        assert profile.counts[1:5] == (16, 16, 16, 16)
        assert profile.counts[5:9] == (64, 64, 64, 64)
        assert profile.counts[9:] == (256, 256, 256, 256)
        assert profile.slope is not None
        assert abs(profile.slope - 1.0) <= 0.25

    def test_e3_default_grid_counts(self):
        profile = separation_profile(example("e3"))
        assert profile.counts[:3] == (64, 128, 256)
        assert all(c == 256 for c in profile.counts[3:])
        assert profile.slope == pytest.approx(2.0, abs=1e-9)
        assert profile.fit_range == (0, 2)

    def test_counts_grow_as_nu_shrinks(self):
        profile = separation_profile(example("e6"), m_points=64, window_n=2048)
        assert all(a <= b for a, b in zip(profile.counts, profile.counts[1:]))
        assert all(1 <= c <= 64 for c in profile.counts)

    def test_matches_naive_greedy(self):
        """Independent quadratic greedy over the Fraction densities."""
        subst = example("e3")
        m = 32
        grid = (0.2, 0.1, 0.05)
        profile = separation_profile(subst, m, nu_grid=grid)
        correlations = exact_pair_correlations(subst.rules, m)

        def dist(i, j):
            p = correlations[abs(i - j)]
            return 1 - sum(p[a][a] for a in range(len(p)))

        for nu, count in zip(grid, profile.counts):
            kept: list[int] = []
            for idx in range(m):
                if all(dist(idx, j) >= nu for j in kept):
                    kept.append(idx)
            assert len(kept) == count
            # greedy maximality: everything else is nu-close to a kept point
            for idx in range(m):
                if idx not in kept:
                    assert any(dist(idx, j) < nu for j in kept)

    # (M, N): M not a power of two, M > N (also by far), odd sizes, M = 1
    # and N = 1; then M and N on both sides of one and two 64-bit words
    SIZES = (
        (1, 1), (1, 40), (3, 1), (37, 11), (45, 128), (64, 64), (100, 7),
        (129, 33), (65, 3), (255, 17), (33, 31), (31, 33), (17, 255), (200, 1),
    ) + tuple((m, n) for m in (63, 64, 65) for n in (63, 64, 65, 127, 128, 129))

    @staticmethod
    def kernel_draw(draw: int) -> tuple[Substitution, int, int]:
        """Odd draws take up to 26 letters, five bit planes."""
        rng = random.Random(9100 + draw)
        max_letters = 26 if draw % 2 else 6
        subst = random_primitive_substitution(rng, max_letters=max_letters, max_k=5)
        m, n = TestSeparationProfile.SIZES[draw % len(TestSeparationProfile.SIZES)]
        return subst, m, n

    def test_kernel_draws_cover_wide_alphabets(self):
        sizes = [self.kernel_draw(draw)[0].alphabet.size for draw in range(40)]
        assert sum(9 <= size <= 26 for size in sizes) >= 10
        assert max(sizes) > 16  # five bit planes

    @pytest.mark.parametrize("draw", range(40))
    def test_kernels_match_brute_force(self, draw):
        subst, m, n = self.kernel_draw(draw)
        rng = random.Random(draw)
        # the windowed oracle's counts against materialised windows
        lags = lag_counts(fixed_point_array(subst, m + n), m, n)
        brute = brute_mismatch_counts(orbit_windows(subst.rules, m, n))
        # row i holds the pair (i, i + D) at column D while i + D < M
        i, j = np.triu_indices(m)
        assert np.array_equal(lags[i, j - i], brute[i, j])
        i, d = np.nonzero(np.add.outer(np.arange(m), np.arange(m)) >= m)
        assert (lags[i, d] == n + 1).all()
        # the Toeplitz greedy on the exact densities against a quadratic one;
        # the grid adds densities of the sample as floats, rounded either way,
        # and one below the least
        z, apart = exact_apart(subst, m)
        density = toeplitz_density(z, apart)
        off = sorted(set(density[~np.eye(m, dtype=bool)].tolist()))
        grid = build_nu_grid() + tuple(float(x) for x in rng.sample(off, min(8, len(off))))
        if off:
            grid += (np.nextafter(float(off[0]), -1.0),)
        want = tuple(brute_greedy_count(density, Fraction(nu)) for nu in grid)
        assert _greedy_counts(apart, z, grid) == want
        if off and off[0] > 0:
            assert want[-1] == m

    def test_all_saturated_profile(self):
        # thue_morse keeps every point at every grid value, so each count
        # is decided by the closest pair alone, at N = 1024 and at N = infinity
        subst, m, n = example("thue_morse"), 64, 1024
        prefix = fixed_point_array(subst, m + n)
        density = brute_mismatch_counts(orbit_windows(subst.rules, m, n)) / n
        grid = build_nu_grid()
        assert window_greedy_counts(lag_counts(prefix, m, n), n, grid) == (m,) * len(grid)
        assert [brute_greedy_count(density, nu) for nu in grid] == [m] * len(grid)
        z, apart = exact_apart(subst, m)
        assert min(apart[1:]) / z >= 0.25
        assert separation_profile(subst, m, n).counts == (m,) * len(grid)

    def test_peak_memory(self):
        # no M x M matrix (the int32 counts alone took 1 MiB): e4's 512
        # points keep the 172 parent lags of 9 entries each, and a block of
        # at most as many lags takes an index map and its gathered parents
        # of 3 x 9 entries a lag
        e4 = example("e4")
        tracemalloc.start()
        try:
            profile = separation_profile(e4, 512, 16384)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert profile.counts[-1] == 512
        assert peak < 0.25 * 2**20

    @pytest.mark.parametrize("name", ["e1", "e2"])
    def test_lag_counts_across_row_blocks(self, name):
        # the windowed oracle's compares and cumsum run LAG_ROWS rows at a
        # time; the kernel draws above all fit in one block
        m, n = 2 * LAG_ROWS + 3, 37
        subst = example(name)
        lags = lag_counts(fixed_point_array(subst, m + n), m, n)
        brute = brute_mismatch_counts(orbit_windows(subst.rules, m, n))
        i, j = np.triu_indices(m)
        assert np.array_equal(lags[i, j - i], brute[i, j])
        i, d = np.nonzero(np.add.outer(np.arange(m), np.arange(m)) >= m)
        assert (lags[i, d] == n + 1).all()

    def test_lag_counts_peak_memory(self):
        # beside the 4 * M^2 bytes of counts, the windowed oracle's compares
        # and dead-triangle mask hold three bytes per entry of one block of rows
        m, n = 2048, 1024
        prefix = fixed_point_array(example("e1"), m + n)
        tracemalloc.start()
        try:
            lags = lag_counts(prefix, m, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * m * m + 4 * m * LAG_ROWS
        assert np.array_equal(lags[0], first_row(prefix, m, n))

    def test_first_row_peak_memory(self):
        # e1 codes in two bit planes, so the windowed oracle's table takes
        # 512 * 2 * (N / 64 + 1) bytes, 16 MiB; its build and the per-plane
        # XOR each hold about one table more
        m, n = 32, 1 << 20
        prefix = fixed_point_array(example("e1"), m + n)
        table = table_bytes(2, n, m)
        assert table == 512 * 2 * (n // 64 + 1)
        tracemalloc.start()
        try:
            row = first_row(prefix, m, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * table
        want = [np.count_nonzero(prefix[:n] != prefix[d : d + n]) for d in range(m)]
        assert row.tolist() == want

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            separation_profile(example("e5"), m_points=16)
        with pytest.raises(PreconditionError):
            separation_profile(example("e5"), m_points=64, window_n=512)

    def test_count_matrix_budget(self):
        # 8192 points took an int32 M x M count matrix of 256 MiB, over the
        # budget; the table of 8192 x 9 entries, its index map and the
        # bitsets fit.  e5 packs about 1 / nu points, 256 at the finest nu
        profile = separation_profile(example("e5"), m_points=1 << 13, window_n=1 << 13)
        assert profile.counts == separation_profile(example("e5"), 256).counts
        assert profile.counts[-1] == 256

    def test_count_matrix_edge(self, monkeypatch):
        # the count matrix admitted M up to 5792 at any window; the budget
        # now prices e1's (k = 3) table at 8 * (81 * kept + 27 + 10M) bytes,
        # kept = (M + 1) // 3 + 1 parent lags, and the greedy bitsets at
        # M^2 / 8, which admits M up to 31605, checked before anything is built
        def unbuilt(*args):
            raise AssertionError("the table was built")

        def cost(m):
            return 8 * (81 * ((m + 1) // 3 + 1) + 27 + 10 * m) + m * m // 8

        e1 = example("e1")
        assert cost(5793) < cost(31605) <= ARRAY_BUDGET < cost(31606) == 134223428
        monkeypatch.setattr(substdyn.empirical, "_pair_sums", unbuilt)
        check_sample_size(e1, 31605, 1024)
        start = time.perf_counter()
        with pytest.raises(
            ResourceLimitError,
            match="separation_profile: a pair-density table of 134223428 bytes "
            "exceeds the 134217728-byte budget",
        ):
            separation_profile(e1, 31606, 1024)
        assert time.perf_counter() - start < 0.25

    def test_shift_table_budget(self):
        # on 3 letters the bit-plane table refused N = 64 * (2^17 - 1) + 1;
        # the window is checked and ignored, so it runs and builds no prefix
        assert "fixed_point_array" not in vars(substdyn.empirical)
        long = separation_profile(example("e1"), 32, 64 * (2**17 - 1) + 1)
        assert long == separation_profile(example("e1"), 32)

    def test_refusal_names_separation_profile(self):
        subst = Substitution.from_strings({"a": "ab", "b": "bb"})
        message = "separation_profile requires a primitive substitution"
        with pytest.raises(PreconditionError, match=message):
            separation_profile(subst, m_points=32, window_n=1024)

    def test_slope_stable_under_doubling(self):
        for name, exact in (("e5", 1.0), ("e3", 2.0)):
            base = separation_profile(example(name), 256, 8192)
            doubled = separation_profile(example(name), 512, 16384)
            assert base.slope is not None and doubled.slope is not None
            assert abs(base.slope - doubled.slope) < 0.15
            assert abs(doubled.slope - exact) <= 0.25 * exact


class TestFitSlope:
    @staticmethod
    def profile(grid, counts, m_points):
        return SeparationProfile(
            nu_grid=tuple(grid),
            counts=tuple(counts),
            m_points=m_points,
        )

    def test_exact_line_slope_one(self):
        grid = (0.2, 0.1, 0.05, 0.025)
        p = self.profile(grid, (4, 8, 16, 32), 256)
        assert fit_slope(p) == pytest.approx(1.0, abs=1e-12)

    def test_exact_line_slope_two(self):
        grid = (0.2, 0.1, 0.05, 0.025)
        p = self.profile(grid, (4, 16, 64, 256), 512)
        assert fit_slope(p) == pytest.approx(2.0, abs=1e-12)

    def test_flat_counts_slope_zero(self):
        grid = (0.2, 0.1, 0.05, 0.025)
        p = self.profile(grid, (7, 7, 7, 7), 256)
        assert fit_slope(p) == pytest.approx(0.0, abs=1e-12)

    def test_saturated_tail_is_dropped(self):
        grid = (0.2, 0.1, 0.05, 0.025, 0.0125)
        p = self.profile(grid, (64, 128, 256, 256, 256), 256)
        assert fit_slope(p) == pytest.approx(1.0, abs=1e-12)
        assert p.fit_range == (0, 2)

    def test_trimming_keeps_middle(self):
        # ten unsaturated points: len // 5 = 2 trimmed from each end
        grid = tuple(0.2 * 0.5**t for t in range(10))
        counts = tuple(4 * 2**t for t in range(10))
        p = self.profile(grid, counts, 1 << 14)
        assert fit_slope(p) == pytest.approx(1.0, abs=1e-12)
        assert p.fit_range == (2, 7)

    def test_too_few_points(self):
        with pytest.raises(EstimationError):
            fit_slope(self.profile((0.2, 0.1, 0.05), (4, 8, 16), 256))
        with pytest.raises(EstimationError):
            fit_slope(
                self.profile((0.2, 0.1, 0.05, 0.025), (1, 1, 1, 1), 256)
            )

    def test_all_saturated(self):
        with pytest.raises(EstimationError):
            fit_slope(
                self.profile((0.2, 0.1, 0.05, 0.025), (64, 64, 64, 64), 64)
            )


def _not_called(subst):
    raise AssertionError("analyze_pairs ran before the arguments were checked")


class TestLipschitzProbe:
    def test_ratio_is_one_when_all_pairs_dominate(self):
        # S is every pair for this rule set, so both densities coincide
        assert lipschitz_ratio_probe(example("e5"), samples=32, window_n=4096) == 1.0

    def test_ratios_bounded_by_one(self):
        for name in ("e1", "e3", "e6"):
            ratio = lipschitz_ratio_probe(example(name), samples=32, window_n=4096)
            assert 0.0 < ratio <= 1.0 + 1e-12

    def test_e2_floor(self):
        # frozen calibration: the S-restricted density never drops below
        # five percent of the plain density on sampled pairs
        ratio = lipschitz_ratio_probe(example("e2"))
        assert ratio >= 0.05

    def test_e2_pinned_floats(self):
        # exact ratios rounded once; the window changes nothing
        assert lipschitz_ratio_probe(example("e2")) == 0.593819973130318
        ratio = lipschitz_ratio_probe(example("e2"), seed=7, window_n=2048)
        assert ratio == 0.5777777777777777
        correlations = exact_correlation_lookup(example("e2").rules)
        assert ratio == brute_lipschitz_ratio_probe(correlations, [(0, 1), (0, 2)], 64, 7)

    def test_deterministic(self):
        a = lipschitz_ratio_probe(example("e3"), samples=32, window_n=4096, seed=5)
        b = lipschitz_ratio_probe(example("e3"), samples=32, window_n=4096, seed=5)
        assert a == b

    def test_rejects_empty_window(self, monkeypatch):
        monkeypatch.setattr(substdyn.empirical, "analyze_pairs", _not_called)
        with pytest.raises(PreconditionError, match="lipschitz_ratio_probe"):
            lipschitz_ratio_probe(example("e1"), window_n=0)

    def test_rejects_no_samples(self, monkeypatch):
        monkeypatch.setattr(substdyn.empirical, "analyze_pairs", _not_called)
        with pytest.raises(PreconditionError, match="lipschitz_ratio_probe"):
            lipschitz_ratio_probe(example("e1"), samples=0)

    def test_builds_no_polynomial(self, monkeypatch):
        # only the report prints the critical polynomial
        def refused(m):
            raise AssertionError("minimal_polynomial called")

        monkeypatch.setattr(substdyn.matrices, "minimal_polynomial", refused)
        subst = example("e1")
        assert 0 < amorphic_complexity(subst) < math.inf
        assert 0 < lipschitz_ratio_probe(subst, samples=8, window_n=1024) <= 1

    def test_only_preconditions_refuse_random_draws(self):
        # the probe once raised InternalError on 9 of these draws, where the
        # ratio of a sampled pair fell by more than 0.05 under the substitution
        rng = random.Random(2323)
        refused = 0
        for _ in range(300):
            subst = random_primitive_substitution(rng, 8, 5)
            try:
                assert 0 < lipschitz_ratio_probe(subst) <= 1
            except PreconditionError:
                refused += 1
        assert 0 < refused < 300

    def test_table_budget(self, monkeypatch):
        # e2's pure base has 3 letters and k = 4, so the table of the
        # D = max(4 * samples, 64) lags is priced at 8 * (102 * kept + 27
        # + 12D) bytes, kept = (D + 2) // 4 + 1 parent lags: 111847 samples
        # fit, and 111848 are refused before anything is built; the window is
        # checked and ignored
        def unbuilt(*args):
            raise AssertionError("the table was built")

        subst = example("e2")
        analysis = analyze_pairs(subst)
        monkeypatch.setattr(substdyn.empirical, "_pair_sums", unbuilt)
        with pytest.raises(AssertionError, match="the table was built"):
            lipschitz_ratio_probe(subst, 111_847, 1 << 30, analysis=analysis)
        start = time.perf_counter()
        with pytest.raises(
            ResourceLimitError,
            match="lipschitz_ratio_probe: a pair-density table of 134218632 bytes",
        ):
            lipschitz_ratio_probe(subst, 111_848, analysis=analysis)
        assert time.perf_counter() - start < 0.25

    def test_draw_cap(self, monkeypatch):
        # with every pair rejected, the probe reads the lags of the pairs with
        # i != j among its first 50 * samples draws and gives up; seed 0's
        # next draw has i != j, so one draw more would read one lag more
        samples, seed = 3, 0
        m_pool = max(4 * samples, 64)
        rng = random.Random(seed)
        draws = [(rng.randrange(m_pool), rng.randrange(m_pool)) for _ in range(50 * samples + 1)]
        assert draws[-1][0] != draws[-1][1]
        read = []

        class Zeros(list):
            def __getitem__(self, lag):
                read.append(lag)
                return 0

        monkeypatch.setattr(
            substdyn.empirical, "_class_densities", lambda *args: (1, Zeros(), Zeros())
        )
        with pytest.raises(EstimationError, match="no sampled pair"):
            lipschitz_ratio_probe(example("e2"), samples, 4096, seed)
        assert read == [abs(i - j) for i, j in draws[:-1] if i != j]

    def test_rejects_extreme_rates(self):
        with pytest.raises(PreconditionError):
            lipschitz_ratio_probe(example("thue_morse"))  # lambda_s = k
        with pytest.raises(PreconditionError):
            lipschitz_ratio_probe(
                Substitution.from_strings({"a": "ab", "b": "ab"})
            )  # lambda_s = 0


def _matches_oracle(call, correlations, pairs, samples, seed) -> None:
    """Assert that a probe call gives the oracle's minimum; an
    InternalError is no outcome the oracle has, so it fails the test."""
    try:
        got = call()
    except EstimationError:  # no pair accepted
        got = math.inf
    assert got == brute_lipschitz_ratio_probe(correlations, pairs, samples, seed)


def _random_classes(rng: random.Random, size: int) -> tuple[int, ...]:
    """Class labels of a random partition of ``size`` letters."""
    return tuple(rng.randrange(rng.randint(1, size)) for _ in range(size))


def _cross_pairs(classes: tuple[int, ...]) -> list[tuple[int, int]]:
    """The pairs of letters in different classes: S for these classes."""
    size = len(classes)
    return [(a, b) for a in range(size) for b in range(a + 1, size) if classes[a] != classes[b]]


class TestProbeAgainstOracle:
    """The probe against the oracle's loop, which reads each drawn lag's
    P_d from the Fraction recursion and sums it over the flagged pairs."""

    @pytest.mark.parametrize("chunk", range(4))
    def test_sweep(self, chunk):
        public = 0
        for draw in range(50 * chunk, 50 * chunk + 50):
            subst = sweep_draw(draw)
            rng = random.Random(draw)
            samples, seed = rng.randint(1, 12), rng.randrange(2**32)
            if subst.alphabet.size == 40:
                # the oracle's loop on the shipped Python-int table read as
                # Fractions; test_wide_alphabet_against_fractions checks the
                # table of such a draw
                classes = _random_classes(rng, 40)
                _matches_oracle(
                    lambda: _min_density_ratio(subst, classes, samples, seed),
                    shipped_lookup(subst, max(4 * samples, 64)),
                    _cross_pairs(classes), samples, seed,
                )
                continue
            analysis = analyze_pairs(subst)
            pure = analysis.pure.pure_base
            correlations = exact_correlation_lookup(pure.rules)
            rate = analysis.rate_type.rate
            if RATE_TOL < rate < subst.length_k - RATE_TOL:
                pairs = [(p.lo, p.hi) for p in analysis.maximal]
                _matches_oracle(
                    lambda: lipschitz_ratio_probe(subst, samples, seed=seed, analysis=analysis),
                    correlations, pairs, samples, seed,
                )
                public += 1
            # any partition, so that S is not only a closed one; every S that
            # analyze_pairs returns is the pairs across the classes of one
            classes = _random_classes(rng, pure.alphabet.size)
            _matches_oracle(
                lambda: _min_density_ratio(pure, classes, samples, seed),
                correlations, _cross_pairs(classes), samples, seed,
            )
        assert public > 0


def _draw_of_size(rng: random.Random, size: int) -> Substitution:
    """A height-1 draw on exactly ``size`` letters, so its own pure base."""
    while True:
        subst = random_primitive_substitution(rng, max_letters=size, max_k=4)
        if subst.alphabet.size == size and substdyn.height(subst) == 1:
            return subst


def _partition(kind: str, rng: random.Random, size: int) -> tuple[int, ...]:
    """One class, all singletons, or a random partition with at least two
    classes and a class of at least two letters."""
    if kind == "one":
        return (0,) * size
    if kind == "singletons":
        return tuple(range(size))
    while True:
        classes = _random_classes(rng, size)
        if 1 < len(set(classes)) < size:
            return classes


# one class and all singletons take 1, 2, 3 and 5 bit planes at these sizes
_PARTITIONS = [
    (size, kind)
    for size in (2, 4, 7, 20)
    for kind in ("one", "singletons", "mixed")
    if size > 2 or kind != "mixed"
]


class TestWindowCounts:
    """The windowed oracle's pairs counted on the bit planes of class and
    rank, at a window of whole words and one with a tail; and the probe and
    the density rows against Fractions."""

    def test_e2_classes(self):
        # S = {(ab), (ac)}, so the classes are {a} and {b, c}
        analysis = analyze_pairs(example("e2"))
        assert analysis.classes == (0, 1, 1)
        assert _cross_pairs(analysis.classes) == [tuple(p) for p in analysis.maximal]

    @pytest.mark.parametrize("window_n", [4096, 4000])
    @pytest.mark.parametrize("size,kind", _PARTITIONS)
    def test_counts_match_lookups(self, size, kind, window_n):
        rng = random.Random(size * window_n)
        pure = _draw_of_size(rng, size)
        classes = _partition(kind, rng, size)
        table = pair_filter_table(size, _cross_pairs(classes))
        m_starts = 160
        w = orbit_windows(pure.rules, m_starts, window_n)
        starts = [(0, 159), (63, 64), (64, 63), (127, 1), (5, 5)]
        starts += [(rng.randrange(m_starts), rng.randrange(m_starts)) for _ in range(100)]
        got = window_counts(pure.rules, classes, window_n, m_starts)(*zip(*starts))
        want = [
            [np.count_nonzero(w[i] != w[j]), np.count_nonzero(table[w[i], w[j]])]
            for i, j in starts
        ]
        assert [list(row) for row in got] == want

    @pytest.mark.parametrize("salt", [4096, 4000])
    @pytest.mark.parametrize("size", [3, 20])
    def test_probe_matches_oracle(self, size, salt):
        rng = random.Random(size * salt)
        pure = _draw_of_size(rng, size)
        correlations = exact_correlation_lookup(pure.rules)
        # 40 samples draw lags below 160, 65 below 260 and 130 below 520
        for samples in (40, 65, 130):
            for seed in range(4):
                classes = tuple(range(size)) if seed == 0 else _random_classes(rng, size)
                _matches_oracle(
                    lambda: _min_density_ratio(pure, classes, samples, seed),
                    correlations, _cross_pairs(classes), samples, seed,
                )

    @pytest.mark.parametrize("window_n", [4096, 4000])
    def test_probe_matches_oracle_past_rejections(self, window_n):
        # the random draws above never reject a pair; this draw has 4 lags
        # below 520 closer than density 0.01, which some of these seeds draw
        pure = Substitution.from_strings({"a": "ab", "b": "cb", "c": "aa"})
        z, apart = exact_apart(pure, 520)
        assert np.count_nonzero(apart[1:] < math.ceil(Fraction(0.01) * z)) == 4
        correlations = exact_correlation_lookup(pure.rules)
        rejecting = 0
        for seed in range(8):
            rng = random.Random(seed)
            lags = [abs(rng.randrange(520) - rng.randrange(520)) for _ in range(150)]
            rejecting += any(0 < lag and apart[lag] * 100 < z for lag in lags)
            _matches_oracle(
                lambda: _min_density_ratio(pure, (0, 0, 1), 130, seed),
                correlations, [(0, 2), (1, 2)], 130, seed,
            )
        assert rejecting > 0
        # and the window the public probe takes changes nothing
        e2 = example("e2")
        assert lipschitz_ratio_probe(e2, 130, window_n, 3) == lipschitz_ratio_probe(e2, 130, seed=3)

    @pytest.mark.parametrize("size", [3, 20])
    def test_density_rows_match_lookups(self, size):
        rng = random.Random(size)
        subst = _draw_of_size(rng, size)
        classes = _partition("mixed", rng, size)
        pairs = _cross_pairs(classes)
        analysis = dataclasses.replace(
            analyze_pairs(subst),
            maximal=tuple(LetterPair(a, b) for a, b in pairs),
            classes=classes,
        )
        assert density_rows(analysis) == _exact_rows(subst.rules, pairs)


def _exact_rows(rules, pairs) -> list[tuple[int, int, float, float]]:
    """The density rows of the points i < j < 16 from the Fraction P_d,
    the S-restricted density looked up in a 2-D table of the pairs."""
    size = len(rules)
    table = pair_filter_table(size, pairs)
    correlations = exact_pair_correlations(rules, 16)
    rows = []
    for i in range(16):
        for j in range(i + 1, 16):
            p = correlations[j - i]
            plain = 1 - sum(p[a][a] for a in range(size))
            across = sum(p[a][b] for a in range(size) for b in range(size) if table[a, b])
            rows.append((i, j, float(plain), float(across)))
    return rows


class TestDensityRows:
    @pytest.mark.parametrize("name", ["e1", "e2", "e4"])
    def test_match_window_lookups(self, name):
        # e2 has S = {(ab), (ac)}; e4 is read on its pure base.  The rows are
        # the Fraction densities rounded once, and windows of 2^16 symbols
        # looked up in a 2-D table of S come within 2e-3 of them
        analysis = analyze_pairs(example(name))
        pure = analysis.pure.pure_base
        pairs = [(p.lo, p.hi) for p in analysis.maximal]
        rows = density_rows(analysis)
        assert rows == _exact_rows(pure.rules, pairs)
        table = pair_filter_table(pure.alphabet.size, pairs)
        w = orbit_windows(pure.rules, 16, 1 << 16)
        for i, j, d1, ds in rows:
            assert mismatch_density(w[i], w[j]) == pytest.approx(d1, abs=2e-3)
            assert mismatch_density(w[i], w[j], table) == pytest.approx(ds, abs=2e-3)
        if name == "e2":
            assert any(d1 != ds for _, _, d1, ds in rows)


class TestCsvWriters:
    def test_profile_csv(self, tmp_path):
        p = SeparationProfile((0.25, 0.125), (3, 9), 64)
        path = tmp_path / "profile.csv"
        write_profile_csv(p, str(path))
        assert path.read_bytes() == b"nu,count\n0.25,3\n0.125,9\n"

    def test_density_csv(self, tmp_path):
        rows = [(0, 1, 0.5, 0.25), (0, 2, 1.0, 0.0)]
        path = tmp_path / "density.csv"
        write_density_csv(rows, str(path))
        assert path.read_bytes() == (
            b"i,j,d1,ds\n0,1,0.5,0.25\n0,2,1.0,0.0\n"
        )
