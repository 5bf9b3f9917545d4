"""Orbit-sampled separation estimates.

Everything here is desk-scale statistics on long fixed-point prefixes:
one-sided mismatch densities between shifted windows, greedy packings
that estimate separation numbers on a geometric resolution grid, and a
log-log slope that should reproduce the exact amorphic complexity for
systems where it is finite.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Substitution, Word, apply, fixed_point_prefix
from .discrepancy import MaximalPairSet, analyze_pairs
from .errors import (
    EstimationError,
    InternalError,
    PreconditionError,
    ResourceLimitError,
)
from .invariants import DEFAULT_SEED
from .matrices import RATE_TOL

#: Hard cap on M^2 * N symbol comparisons per profile.
COMPARISON_BUDGET = 1 << 38

_MIN_POINTS = 32
_MIN_WINDOW = 1 << 10


def default_nu_grid() -> tuple[float, ...]:
    """Geometric grid 0.25, 0.25/sqrt(2), ..., down to ~0.004 (13 values)."""
    return tuple(0.25 * (0.5**0.5) ** t for t in range(13))


class OrbitSample:
    """Windows of one long prefix standing in for orbit points T^i x."""

    def __init__(self, prefix: Word, window_n: int, offsets: tuple[int, ...]):
        if window_n < 1:
            raise ValueError("window must be positive")
        for i in offsets:
            if not 0 <= i <= len(prefix) - window_n:
                raise ValueError(f"offset {i} does not fit a window of {window_n}")
        self.prefix = tuple(prefix)
        self.window_n = window_n
        self.offsets = tuple(offsets)
        self._array = np.asarray(self.prefix, dtype=np.int16)

    @classmethod
    def from_substitution(
        cls, subst: Substitution, m_points: int, window_n: int
    ) -> "OrbitSample":
        prefix = fixed_point_prefix(subst, m_points + window_n)
        return cls(prefix, window_n, tuple(range(m_points)))

    def window(self, i: int) -> np.ndarray:
        if not 0 <= i <= len(self.prefix) - self.window_n:
            raise ValueError(f"offset {i} out of range")
        return self._array[i : i + self.window_n]


def pair_filter_table(size: int, pairs: MaximalPairSet) -> np.ndarray:
    """Boolean lookup P[a, b] = True iff {a, b} is one of the given pairs."""
    table = np.zeros((size, size), dtype=bool)
    for p in pairs.pairs:
        table[p.lo, p.hi] = True
        table[p.hi, p.lo] = True
    return table


def mismatch_density(
    sample: OrbitSample, i: int, j: int, pair_filter: np.ndarray | None = None
) -> float:
    """Fraction of window positions where the two orbit points disagree.

    With a filter, only positions whose unordered letter pair is flagged
    count; that is the sampled version of the S-restricted density.
    """
    a = sample.window(i)
    b = sample.window(j)
    if pair_filter is None:
        return float(np.count_nonzero(a != b)) / sample.window_n
    return float(np.count_nonzero(pair_filter[a, b])) / sample.window_n


@dataclass
class SeparationProfile:
    """Separation counts over a decreasing resolution grid."""

    nu_grid: tuple[float, ...]
    counts: tuple[int, ...]
    m_points: int
    window_n: int
    slope: float | None = None
    fit_range: tuple[int, int] | None = None


def _density_matrix(arr: np.ndarray, m_points: int, window_n: int) -> np.ndarray:
    windows = sliding_window_view(arr, window_n)[:m_points]
    out = np.empty((m_points, m_points), dtype=np.float64)
    for i in range(m_points):
        out[i] = np.count_nonzero(windows != windows[i], axis=1)
    out /= window_n
    return out


def _greedy_count(density: np.ndarray, nu: float) -> int:
    kept: list[int] = []
    for idx in range(density.shape[0]):
        if all(density[idx, j] >= nu for j in kept):
            kept.append(idx)
    return len(kept)


def separation_profile(
    subst: Substitution,
    m_points: int = 256,
    window_n: int = 8192,
    nu_grid: tuple[float, ...] | None = None,
) -> SeparationProfile:
    """Greedy maximal nu-separated subsets of {T^i x : i < M}, per grid nu.

    Deterministic: points are scanned in index order and kept when at
    mismatch density >= nu from everything kept so far.
    """
    if m_points < _MIN_POINTS:
        raise PreconditionError(f"need at least {_MIN_POINTS} orbit points")
    if window_n < _MIN_WINDOW:
        raise PreconditionError(f"need a window of at least {_MIN_WINDOW}")
    if m_points * m_points * window_n > COMPARISON_BUDGET:
        raise ResourceLimitError(
            f"M^2*N = {m_points**2 * window_n} exceeds {COMPARISON_BUDGET}"
        )
    grid = tuple(nu_grid) if nu_grid is not None else default_nu_grid()
    sample = OrbitSample.from_substitution(subst, m_points, window_n)
    density = _density_matrix(sample._array, m_points, window_n)
    counts = tuple(_greedy_count(density, nu) for nu in grid)
    profile = SeparationProfile(grid, counts, m_points, window_n)
    try:
        fit_slope(profile)
    except EstimationError:
        pass  # too few usable points (e.g. finite systems); counts still stand
    return profile


def fit_slope(profile: SeparationProfile) -> float:
    """Least-squares slope of log(count) against -log(nu).

    Needs at least 4 grid points with count >= 2.  Counts pinned at the
    sample size M are capacity limits, not packing estimates, so the fit
    keeps only the unsaturated points plus the first saturated one (where
    the capacity was just reached) and uses their middle 60% (20% trimmed
    at each end).
    """
    eligible = [t for t, c in enumerate(profile.counts) if c >= 2]
    if len(eligible) < 4:
        raise EstimationError(
            f"only {len(eligible)} grid points with count >= 2; need at least 4"
        )
    informative = [t for t in eligible if profile.counts[t] < profile.m_points]
    saturated = [t for t in eligible if profile.counts[t] >= profile.m_points]
    if saturated:
        informative.append(saturated[0])
        informative.sort()
    if len(informative) < 2:
        raise EstimationError("all counts sit at the sample-size ceiling")
    trim = len(informative) // 5
    middle = informative[trim : len(informative) - trim] if trim else informative
    xs = [-math.log(profile.nu_grid[t]) for t in middle]
    ys = [math.log(profile.counts[t]) for t in middle]
    slope = float(np.polyfit(xs, ys, 1)[0])
    profile.slope = slope
    profile.fit_range = (middle[0], middle[-1])
    return slope


def lipschitz_ratio_probe(
    subst: Substitution,
    samples: int = 64,
    window_n: int = 1 << 14,
    seed: int = DEFAULT_SEED,
) -> float:
    """Minimum sampled ratio (S-restricted density) / (plain density).

    The two densities are Lipschitz-equivalent on infinite discrete-
    spectrum systems, so the minimum should stay clear of zero.  Each
    sampled pair is also pushed once through the substitution and the
    ratio must not drop by more than 0.05 on the way.
    """
    analysis = analyze_pairs(subst)
    rate = analysis.rate_type.rate_lambda_s
    k = subst.length_k
    if rate <= RATE_TOL or rate >= k - RATE_TOL:
        raise PreconditionError(
            "ratio probe needs an infinite system with discrete spectrum"
        )
    pure = analysis.pure.pure_base
    size = pure.alphabet.size
    table = pair_filter_table(size, analysis.maximal)

    m_pool = max(4 * samples, 64)
    sample = OrbitSample.from_substitution(pure, m_pool, window_n)
    rng = random.Random(seed)

    best = math.inf
    accepted = 0
    attempts = 0
    while accepted < samples and attempts < 50 * samples:
        attempts += 1
        i = rng.randrange(m_pool)
        j = rng.randrange(m_pool)
        if i == j:
            continue
        d1 = mismatch_density(sample, i, j)
        if d1 < 0.01:
            continue
        ds = mismatch_density(sample, i, j, table)
        ratio = ds / d1
        accepted += 1
        best = min(best, ratio)

        image_i = np.asarray(apply(pure, tuple(sample.window(i))), dtype=np.int16)
        image_j = np.asarray(apply(pure, tuple(sample.window(j))), dtype=np.int16)
        img_d1 = float(np.count_nonzero(image_i != image_j)) / len(image_i)
        img_ds = float(np.count_nonzero(table[image_i, image_j])) / len(image_i)
        if img_d1 > 0 and (img_ds / img_d1) < ratio - 0.05:
            raise InternalError(
                "density ratio dropped under the substitution beyond slack"
            )
    if accepted == 0:
        raise EstimationError("no sampled pair had plain density >= 0.01")
    return best


def write_profile_csv(profile: SeparationProfile, path: str) -> None:
    """Emit (nu, count) rows, comma-separated with a header, LF endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write("nu,count\n")
        for nu, count in zip(profile.nu_grid, profile.counts):
            fh.write(f"{nu},{count}\n")


def write_density_csv(rows: list[tuple[int, int, float, float]], path: str) -> None:
    """Emit sampled pair densities as (i, j, d1, ds) rows."""
    with open(path, "w", newline="\n") as fh:
        fh.write("i,j,d1,ds\n")
        for i, j, d1, ds in rows:
            fh.write(f"{i},{j},{d1},{ds}\n")
