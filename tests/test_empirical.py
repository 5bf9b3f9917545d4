"""Orbit sampling, mismatch densities, separation profiles, slope fits."""

from __future__ import annotations

import dataclasses
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

import substdyn
from substdyn import (
    EstimationError,
    PreconditionError,
    ResourceLimitError,
    Substitution,
    amorphic_complexity,
    analyze_pairs,
    kernel_monoid,
    lipschitz_ratio_probe,
    separation_profile,
)
from substdyn.core import fixed_point_array, fixed_point_prefix
from substdyn.discrepancy import LetterPair
from substdyn.empirical import (
    _LAG_ROWS,
    SeparationProfile,
    _first_row,
    _greedy_counts,
    _lag_counts,
    _min_density_ratio,
    _window_counts,
    build_nu_grid,
    check_sample_size,
    density_rows,
    fit_slope,
    write_density_csv,
    write_profile_csv,
)
from substdyn.matrices import RATE_TOL

from conftest import example, random_primitive_substitution, sweep_draw
from oracles import (
    brute_greedy_count,
    brute_lipschitz_ratio_probe,
    brute_mismatch_counts,
    mismatch_density,
    orbit_windows,
    pair_filter_table,
)


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
        """Independent quadratic greedy over raw string windows."""
        subst = example("e3")
        m, n = 32, 1024
        grid = (0.2, 0.1, 0.05)
        profile = separation_profile(subst, m, n, grid)
        prefix = fixed_point_prefix(subst, m + n)
        windows = [prefix[i : i + n] for i in range(m)]

        def dist(u, v):
            return sum(1 for x, y in zip(u, v) if x != y) / n

        for nu, count in zip(grid, profile.counts):
            kept: list[int] = []
            for idx in range(m):
                if all(dist(windows[idx], windows[j]) >= nu for j in kept):
                    kept.append(idx)
            assert len(kept) == count
            # greedy maximality: everything else is nu-close to a kept point
            for idx in range(m):
                if idx not in kept:
                    assert any(dist(windows[idx], windows[j]) < nu for j in kept)

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
        prefix = fixed_point_array(subst, m + n)
        lags = _lag_counts(prefix, m, n)
        brute = brute_mismatch_counts(orbit_windows(subst.rules, m, n))
        # row i holds the pair (i, i + D) at column D while i + D < M
        i, j = np.triu_indices(m)
        assert np.array_equal(lags[i, j - i], brute[i, j])
        i, d = np.nonzero(np.add.outer(np.arange(m), np.arange(m)) >= m)
        assert (lags[i, d] == n + 1).all()
        density = brute / n
        off = np.unique(density[~np.eye(m, dtype=bool)])
        grid = build_nu_grid() + tuple(rng.sample(list(off), min(8, len(off))))
        if len(off):  # below every density of two distinct points
            grid += (np.nextafter(off[0], -1.0),)
        want = tuple(brute_greedy_count(density, nu) for nu in grid)
        assert _greedy_counts(lags, n, grid) == want
        if len(off):
            assert want[-1] == m

    def test_all_saturated_profile(self):
        # thue_morse keeps every point at every grid value, so each count
        # is decided by the closest pair alone
        subst, m, n = example("thue_morse"), 64, 1024
        prefix = fixed_point_array(subst, m + n)
        density = brute_mismatch_counts(orbit_windows(subst.rules, m, n)) / n
        grid = build_nu_grid()
        assert _greedy_counts(_lag_counts(prefix, m, n), n, grid) == (m,) * len(grid)
        assert [brute_greedy_count(density, nu) for nu in grid] == [m] * len(grid)
        assert separation_profile(subst, m, n).counts == (m,) * len(grid)

    def test_peak_memory(self):
        # a float64 M x M density matrix alone takes 2 MB at M = 512; the
        # int32 counts take 1 MB
        e4 = example("e4")
        tracemalloc.start()
        try:
            profile = separation_profile(e4, 512, 16384)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert profile.counts[-1] == 512
        assert peak < 2.0 * 2**20

    @pytest.mark.parametrize("name", ["e1", "e2"])
    def test_lag_counts_across_row_blocks(self, name):
        # the compares and the cumsum run _LAG_ROWS rows at a time; the
        # kernel draws above all fit in one block
        m, n = 2 * _LAG_ROWS + 3, 37
        subst = example(name)
        lags = _lag_counts(fixed_point_array(subst, m + n), m, n)
        brute = brute_mismatch_counts(orbit_windows(subst.rules, m, n))
        i, j = np.triu_indices(m)
        assert np.array_equal(lags[i, j - i], brute[i, j])
        i, d = np.nonzero(np.add.outer(np.arange(m), np.arange(m)) >= m)
        assert (lags[i, d] == n + 1).all()

    def test_lag_counts_peak_memory(self):
        # beside the 4 * M^2 bytes of counts, the compares and the dead-triangle
        # mask hold three bytes per entry of one block of rows
        m, n = 2048, 1024
        prefix = fixed_point_array(example("e1"), m + n)
        tracemalloc.start()
        try:
            lags = _lag_counts(prefix, m, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * m * m + 4 * m * _LAG_ROWS
        assert np.array_equal(lags[0], _first_row(prefix, m, n))

    def test_first_row_peak_memory(self):
        # e1 codes in two bit planes, so the table takes 512 * 2 * (N / 64 +
        # 1) bytes, 16 MiB; its build and the per-plane XOR each hold about
        # one table more
        m, n = 32, 1 << 20
        prefix = fixed_point_array(example("e1"), m + n)
        table = 512 * 2 * (n // 64 + 1)
        tracemalloc.start()
        try:
            row = _first_row(prefix, m, n)
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
        with pytest.raises(ResourceLimitError, match="separation_profile: a count matrix"):
            separation_profile(example("e5"), m_points=1 << 13, window_n=1 << 13)

    def test_count_matrix_edge(self, monkeypatch):
        # the int32 M x M counts take 4 * M^2 bytes: 2^27 bytes admit M up to
        # 5792 at any window, before the prefix
        def unbuilt(*args):
            raise AssertionError("the prefix was built")

        monkeypatch.setattr(substdyn.empirical, "fixed_point_array", unbuilt)
        check_sample_size(5792, 1024, 3)
        start = time.perf_counter()
        with pytest.raises(
            ResourceLimitError,
            match="separation_profile: a count matrix of 134235396 bytes "
            "exceeds the 134217728-byte budget",
        ):
            separation_profile(example("e1"), 5793, 1024)
        assert time.perf_counter() - start < 0.25

    def test_shift_table_budget(self, monkeypatch):
        # on 3 letters, 2 bit planes, the table takes 1024 bytes for every 64
        # positions of the M + N prefix: at M = 32 it admits N up to
        # 64 * (2^17 - 1) and refuses one position more, before the prefix
        def unbuilt(*args):
            raise AssertionError("the prefix was built")

        monkeypatch.setattr(substdyn.empirical, "fixed_point_array", unbuilt)
        check_sample_size(32, 64 * (2**17 - 1), 3)
        with pytest.raises(ResourceLimitError, match="separation_profile: a shift table"):
            separation_profile(example("e1"), 32, 64 * (2**17 - 1) + 1)

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
            window_n=4096,
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
        assert lipschitz_ratio_probe(example("e2")) == 0.5937185085656701
        ratio = lipschitz_ratio_probe(example("e2"), seed=7, window_n=2048)
        assert ratio == 0.5769764216366158

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
        # e2's classes (0, 1, 1) code its letters on 2 bit planes, so the
        # table takes 1024 bytes for every 64 positions of the window and of
        # the max(4 * samples, 64) starts: at 8 samples it admits N up to
        # 64 * (2^17 - 1), and at N = 2^14 up to 16 * (2^17 - 2^8) samples
        def unbuilt(*args):
            raise AssertionError("the prefix was built")

        subst = example("e2")
        analysis = analyze_pairs(subst)
        monkeypatch.setattr(substdyn.empirical, "fixed_point_array", unbuilt)
        for admitted, refused in [
            ((8, 8_388_544), (8, 8_388_545)),
            ((2_093_056, 1 << 14), (2_093_057, 1 << 14)),
        ]:
            with pytest.raises(AssertionError, match="the prefix was built"):
                lipschitz_ratio_probe(subst, *admitted, analysis=analysis)
            start = time.perf_counter()
            with pytest.raises(ResourceLimitError, match="lipschitz_ratio_probe: a shift table"):
                lipschitz_ratio_probe(subst, *refused, analysis=analysis)
            assert time.perf_counter() - start < 0.25

    def test_draw_cap(self, monkeypatch):
        # with every pair rejected, the probe counts the pairs with i != j
        # among its first 50 * samples draws and gives up; seed 0's next draw
        # has i != j, so one draw more would count one pair more
        samples, seed = 3, 0
        m_pool = max(4 * samples, 64)
        rng = random.Random(seed)
        draws = [(rng.randrange(m_pool), rng.randrange(m_pool)) for _ in range(50 * samples + 1)]
        assert draws[-1][0] != draws[-1][1]
        counted = []

        def rejecting(*args):
            def counts(starts_i, starts_j):
                counted.extend(zip(starts_i, starts_j))
                return [(0, 0)] * len(starts_i)

            return counts

        monkeypatch.setattr(substdyn.empirical, "_window_counts", rejecting)
        with pytest.raises(EstimationError, match="no sampled pair"):
            lipschitz_ratio_probe(example("e2"), samples, 4096, seed)
        assert counted == [(i, j) for i, j in draws[:-1] if i != j]

    def test_rejects_extreme_rates(self):
        with pytest.raises(PreconditionError):
            lipschitz_ratio_probe(example("thue_morse"))  # lambda_s = k
        with pytest.raises(PreconditionError):
            lipschitz_ratio_probe(
                Substitution.from_strings({"a": "ab", "b": "ab"})
            )  # lambda_s = 0


def _matches_oracle(call, rules, pairs, samples, window_n, seed) -> None:
    """Assert that a probe call gives the oracle's minimum; an
    InternalError is no outcome the oracle has, so it fails the test."""
    try:
        got = call()
    except EstimationError:  # no pair accepted
        got = math.inf
    assert got == brute_lipschitz_ratio_probe(rules, pairs, samples, window_n, seed)


def _random_classes(rng: random.Random, size: int) -> tuple[int, ...]:
    """Class labels of a random partition of ``size`` letters."""
    return tuple(rng.randrange(rng.randint(1, size)) for _ in range(size))


def _cross_pairs(classes: tuple[int, ...]) -> list[tuple[int, int]]:
    """The pairs of letters in different classes: S for these classes."""
    size = len(classes)
    return [(a, b) for a in range(size) for b in range(a + 1, size) if classes[a] != classes[b]]


class TestProbeAgainstOracle:
    """The class-plane probe against the old loop, which materialises the
    windows and looks every position up in a 2-D pair table."""

    @pytest.mark.parametrize("chunk", range(4))
    def test_sweep(self, chunk):
        public = 0
        for draw in range(50 * chunk, 50 * chunk + 50):
            subst = sweep_draw(draw)
            rng = random.Random(draw)
            args = (rng.randint(1, 12), rng.randint(40, 700), rng.randrange(2**32))
            pure = subst
            if subst.alphabet.size < 40:
                analysis = analyze_pairs(subst)
                pure = analysis.pure.pure_base
                rate = analysis.rate_type.rate
                if RATE_TOL < rate < subst.length_k - RATE_TOL:
                    pairs = [(p.lo, p.hi) for p in analysis.maximal]
                    _matches_oracle(
                        lambda: lipschitz_ratio_probe(subst, *args, analysis=analysis),
                        pure.rules, pairs, *args,
                    )
                    public += 1
            # any partition, so that S is not only a closed one; every S that
            # analyze_pairs returns is the pairs across the classes of one
            classes = _random_classes(rng, pure.alphabet.size)
            _matches_oracle(
                lambda: _min_density_ratio(pure, classes, *args),
                pure.rules, _cross_pairs(classes), *args,
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
    """Window pairs counted on the bit planes of class and rank, at a
    window of whole words and one with a tail."""

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
        got = _window_counts(pure, classes, window_n, m_starts)(*zip(*starts))
        want = [
            [np.count_nonzero(w[i] != w[j]), np.count_nonzero(table[w[i], w[j]])]
            for i, j in starts
        ]
        assert [list(row) for row in got] == want

    @pytest.mark.parametrize("window_n", [4096, 4000])
    @pytest.mark.parametrize("size", [3, 20])
    def test_probe_matches_oracle(self, size, window_n):
        rng = random.Random(size * window_n)
        pure = _draw_of_size(rng, size)
        # 40 samples draw starts below 160, so from three blocks of 64; 65
        # and 130 take more than one counting call of 64 pairs
        for samples in (40, 65, 130):
            for seed in range(4):
                classes = tuple(range(size)) if seed == 0 else _random_classes(rng, size)
                _matches_oracle(
                    lambda: _min_density_ratio(pure, classes, samples, window_n, seed),
                    pure.rules, _cross_pairs(classes), samples, window_n, seed,
                )

    @pytest.mark.parametrize("window_n", [4096, 4000])
    def test_probe_matches_oracle_past_rejections(self, monkeypatch, window_n):
        # the random draws above never reject a pair; this draw has window
        # pairs closer than density 0.01, so at 130 samples seeds 1 and 3
        # count a second batch
        pure = Substitution.from_strings({"a": "ab", "b": "cb", "c": "aa"})
        batches = []

        def counted(*args):
            counts = _window_counts(*args)

            def call(starts_i, starts_j):
                batches.append(len(starts_i))
                return counts(starts_i, starts_j)

            return call

        monkeypatch.setattr(substdyn.empirical, "_window_counts", counted)
        for seed in (1, 3):
            batches.clear()
            _matches_oracle(
                lambda: _min_density_ratio(pure, (0, 0, 1), 130, window_n, seed),
                pure.rules, [(0, 2), (1, 2)], 130, window_n, seed,
            )
            assert batches[0] == 130 and len(batches) > 1

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
        table = pair_filter_table(size, pairs)
        w = orbit_windows(subst.rules, 16, 4096)
        want = [
            (i, j, mismatch_density(w[i], w[j]), mismatch_density(w[i], w[j], table))
            for i in range(16)
            for j in range(i + 1, 16)
        ]
        assert density_rows(analysis) == want


class TestDensityRows:
    @pytest.mark.parametrize("name", ["e1", "e2", "e4"])
    def test_match_window_lookups(self, name):
        # e2 has S = {(ab), (ac)}; e4 is read on its pure base
        analysis = analyze_pairs(example(name))
        pure = analysis.pure.pure_base
        pairs = [(p.lo, p.hi) for p in analysis.maximal]
        table = pair_filter_table(pure.alphabet.size, pairs)
        w = orbit_windows(pure.rules, 16, 4096)
        want = [
            (i, j, mismatch_density(w[i], w[j]), mismatch_density(w[i], w[j], table))
            for i in range(16)
            for j in range(i + 1, 16)
        ]
        assert density_rows(analysis) == want
        if name == "e2":
            assert any(d1 != ds for _, _, d1, ds in want)


class TestCsvWriters:
    def test_profile_csv(self, tmp_path):
        p = SeparationProfile((0.25, 0.125), (3, 9), 64, 4096)
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
