"""Orbit sampling, mismatch densities, separation profiles, slope fits."""

from __future__ import annotations

import math

import numpy as np
import pytest

from substdyn import (
    EstimationError,
    OrbitSample,
    PreconditionError,
    ResourceLimitError,
    SeparationProfile,
    Substitution,
    analyze_pairs,
    default_nu_grid,
    fit_slope,
    fixed_point_prefix,
    kernel_monoid,
    lipschitz_ratio_probe,
    mismatch_density,
    pair_filter_table,
    pure_base,
    separation_profile,
    write_density_csv,
    write_profile_csv,
)

from conftest import example


class TestNuGrid:
    def test_shape_and_endpoints(self):
        grid = default_nu_grid()
        assert len(grid) == 13
        assert grid[0] == 0.25
        assert grid[-1] == pytest.approx(0.25 * 0.5**6, rel=1e-12)  # ~0.0039
        for a, b in zip(grid, grid[1:]):
            assert b / a == pytest.approx(0.5**0.5, rel=1e-12)


class TestOrbitSample:
    def test_windows_slice_the_prefix(self):
        sample = OrbitSample(tuple(range(10)), 4, (0, 3))
        assert tuple(sample.window(3)) == (3, 4, 5, 6)

    def test_offset_bounds(self):
        with pytest.raises(ValueError):
            OrbitSample(tuple(range(10)), 4, (7,))
        sample = OrbitSample(tuple(range(10)), 4, (0,))
        with pytest.raises(ValueError):
            sample.window(7)

    def test_from_substitution(self):
        subst = example("e5")
        sample = OrbitSample.from_substitution(subst, 16, 64)
        assert sample.offsets == tuple(range(16))
        prefix = fixed_point_prefix(subst, 16 + 64)
        assert tuple(sample.window(5)) == prefix[5 : 5 + 64]


class TestMismatchDensity:
    def test_zero_on_equal_windows(self):
        sample = OrbitSample.from_substitution(example("e1"), 8, 128)
        assert mismatch_density(sample, 3, 3) == 0.0

    def test_one_on_disjoint_letters(self):
        sample = OrbitSample((0, 0, 1, 1), 2, (0, 2))
        assert mismatch_density(sample, 0, 2) == 1.0

    def test_symmetry(self):
        sample = OrbitSample.from_substitution(example("e3"), 32, 1024)
        for i, j in [(0, 7), (3, 19), (11, 30)]:
            assert mismatch_density(sample, i, j) == mismatch_density(sample, j, i)

    def test_triangle_inequality(self):
        sample = OrbitSample.from_substitution(example("e2"), 24, 2048)
        for i, j, k in [(0, 5, 17), (2, 9, 23), (1, 14, 20)]:
            dij = mismatch_density(sample, i, j)
            djk = mismatch_density(sample, j, k)
            dik = mismatch_density(sample, i, k)
            assert dik <= dij + djk + 1e-12

    def test_filtered_never_exceeds_plain(self):
        subst = example("e2")
        table = pair_filter_table(
            subst.alphabet.size, analyze_pairs(subst).maximal
        )
        sample = OrbitSample.from_substitution(subst, 32, 2048)
        for i in range(0, 32, 5):
            for j in range(1, 32, 7):
                filtered = mismatch_density(sample, i, j, table)
                assert filtered <= mismatch_density(sample, i, j) + 1e-12

    def test_filter_table_is_symmetric_without_diagonal(self):
        subst = example("e2")
        table = pair_filter_table(subst.alphabet.size, analyze_pairs(subst).maximal)
        assert np.array_equal(table, table.T)
        assert not table.diagonal().any()
        # S = {(ab), (ac)} for this rule set
        assert table[0, 1] and table[0, 2] and not table[1, 2]

    def test_e6_kernel_image_density_against_fixed_word(self):
        """D(g(x), 000...) is the frequency of the letter g displaces."""
        subst = example("e6")
        n = 5**7
        prefix = fixed_point_prefix(subst, n)
        g = kernel_monoid(subst).elements[1]  # 0->0, 1->2, 2->0
        mapped = tuple(g(s) for s in prefix)
        sample = OrbitSample(mapped + (0,) * n, n, (0, n))
        density = mismatch_density(sample, 0, n)
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

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            separation_profile(example("e5"), m_points=16)
        with pytest.raises(PreconditionError):
            separation_profile(example("e5"), m_points=64, window_n=512)

    def test_comparison_budget(self):
        with pytest.raises(ResourceLimitError):
            separation_profile(example("e5"), m_points=1 << 13, window_n=1 << 13)

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

    def test_deterministic(self):
        a = lipschitz_ratio_probe(example("e3"), samples=32, window_n=4096, seed=5)
        b = lipschitz_ratio_probe(example("e3"), samples=32, window_n=4096, seed=5)
        assert a == b

    def test_rejects_extreme_rates(self):
        with pytest.raises(PreconditionError):
            lipschitz_ratio_probe(example("thue_morse"))  # lambda_s = k
        with pytest.raises(PreconditionError):
            lipschitz_ratio_probe(
                Substitution.from_strings({"a": "ab", "b": "ab"})
            )  # lambda_s = 0


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
