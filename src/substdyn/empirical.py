"""Orbit-sampled separation estimates.

Everything here is desk-scale statistics on long fixed-point prefixes:
one-sided mismatch densities between shifted windows, greedy packings
that estimate separation numbers on a geometric resolution grid, and a
log-log slope that should reproduce the exact amorphic complexity for
systems where it is finite.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from itertools import islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Substitution, fixed_point_array, require_primitive
from .discrepancy import DiscrepancyAnalysis, analyze_pairs
from .errors import (
    EstimationError,
    PreconditionError,
    ResourceLimitError,
)
from .invariants import DEFAULT_SEED, _ac_from_rate

#: Hard cap on the sample size M^2 * N of a profile: M^2 window pairs of N
#: symbols each.  The counts take O(M^2 + M * N * ceil(log2 |A|) / 64) work
#: and one int32 M x M matrix, so the cap bounds the sample, not the
#: arithmetic.
COMPARISON_BUDGET = 1 << 38

#: Hard cap in bytes on the table of the 64 bit-shifts of each bit plane of
#: an M + N prefix (``_plane_runs``): 512 bytes a plane for every 64
#: positions, checked in ``_check_table`` before the prefix is built.  The
#: profile's first row of counts and the ratio probe both read it.  The XOR
#: over it in ``_first_row`` is as large again, so the table is most of a
#: profile's peak memory on long windows.
SHIFT_TABLE_BUDGET = 1 << 27

_MIN_POINTS = 32
_MIN_WINDOW = 1 << 10


def build_nu_grid(nu_max: float = 0.25, nu_min: float = 0.004) -> tuple[float, ...]:
    """Geometric grid nu_max, nu_max/sqrt(2), ... down to about nu_min.

    The defaults give the 13 values 0.25 down to 0.25 * 2^-6 = 0.00390625.
    """
    if not (0 < nu_min <= nu_max <= 1):
        raise PreconditionError("need 0 < nu-min <= nu-max <= 1")
    grid = []
    value = nu_max
    # extend to just below nu-min so a rounded bound like 0.004 still
    # admits the exact power 0.25 * 2^-6 = 0.00390625
    while value >= nu_min * 0.95:
        grid.append(value)
        value /= math.sqrt(2.0)
    return tuple(grid)


@dataclass
class SeparationProfile:
    """Separation counts over a decreasing resolution grid."""

    nu_grid: tuple[float, ...]
    counts: tuple[int, ...]
    m_points: int
    window_n: int
    slope: float | None = None
    fit_range: tuple[int, int] | None = None


def _plane_runs(
    prefix: np.ndarray, window_n: int, m_starts: int
) -> tuple[np.ndarray, np.uint64]:
    """The bit planes of ``prefix`` from every start below ``m_starts``,
    N positions of each, 64 positions a uint64 word.

    Bit b of every symbol is packed into plane b, and the 64 bit-shifts of
    each plane are built once: runs[p, r, q] is the ceil(N / 64) words of
    plane p from position D = 64q + r on, bit t for position D + t, with
    positions past the prefix read as 0, so no shift is left to do per
    start.  ``tail`` masks the last word of a run to the window.  The table
    is 512 * planes * (ceil(N / 64) + ceil(M / 64)) bytes
    (``_check_table``).
    """
    words = -(-window_n // 64)  # words of one window
    span = words + -(-m_starts // 64)  # and one block per 64 starts
    planes = int(prefix.max()).bit_length()
    bits = np.zeros((planes, 64 * (span + 1)), dtype=bool)
    bits[:, : len(prefix)] = prefix >> np.arange(planes)[:, None] & 1
    packed = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    shifts = np.empty((planes, 64, span), dtype=np.uint64)
    shifts[:, 0] = packed[:, :-1]
    r = np.arange(1, 64, dtype=np.uint64)[:, None]
    shifts[:, 1:] = packed[:, None, :-1] >> r | packed[:, None, 1:] << 64 - r
    tail = np.uint64((1 << (window_n - 64 * (words - 1))) - 1)
    return sliding_window_view(shifts, words, axis=2), tail


def _check_table(op: str, planes: int, window_n: int, m_starts: int) -> None:
    """Refuse a ``_plane_runs`` table over SHIFT_TABLE_BUDGET bytes."""
    table = 512 * planes * (-(-window_n // 64) + -(-m_starts // 64))
    if table > SHIFT_TABLE_BUDGET:
        raise ResourceLimitError(
            f"{op}: a shift table of {table} bytes exceeds the "
            f"{SHIFT_TABLE_BUDGET}-byte budget"
        )


def _first_row(prefix: np.ndarray, m_points: int, window_n: int) -> np.ndarray:
    """Mismatches of x[0 : N] against x[D : D + N] for each lag D < M.

    The window at lag D = 64q + r is run [:, r, q] of ``_plane_runs``, and
    its mismatches with x[0 : N] are the popcount of the OR over planes of
    the XOR with the first window: O(M * N / 64) word operations per plane.
    """
    runs, tail = _plane_runs(prefix, window_n, m_points)
    first = runs[:, :1, 0]
    blocks = -(-m_points // 64)
    row = np.empty(64 * blocks, dtype=np.int32)
    for q in range(blocks):
        differs = np.bitwise_or.reduce(runs[:, :, q] ^ first, axis=0)
        differs[:, -1] &= tail
        row[64 * q : 64 * q + 64] = np.bitwise_count(differs).sum(axis=1)
    return row[:m_points]


def _lag_counts(prefix: np.ndarray, m_points: int, window_n: int) -> np.ndarray:
    """Mismatch counts of the windows prefix[i : i + N], i < M, by lag.

    H[i, D] counts t < N with x[i + t] != x[i + D + t], for i + D < M, so
    the pair (i, i + D) sits in row i.  Row 0 is ``_first_row``; each next
    row adds [x[i - 1 + N] != x[i - 1 + N + D]] and drops
    [x[i - 1] != x[i - 1 + D]], so the rest is two M x M compares and one
    cumsum down the columns.  Entries with i + D >= M pair a window with
    one past the sample; they hold N + 1, which no threshold counts as close.
    """
    # row 0 first, so its word buffers are freed before the M x M counts exist
    first = _first_row(prefix, m_points, window_n)
    pad = np.zeros(m_points - 1, dtype=prefix.dtype)
    windows = sliding_window_view(np.concatenate([prefix, pad]), m_points)
    adds = windows[window_n : window_n + m_points - 1]
    drops = windows[: m_points - 1]
    counts = np.empty((m_points, m_points), dtype=np.int32)
    counts[0] = first
    np.subtract(
        (adds != adds[:, :1]).view(np.int8),
        (drops != drops[:, :1]).view(np.int8),
        out=counts[1:],
    )
    np.cumsum(counts, axis=0, dtype=np.int32, out=counts)
    counts[:, ::-1][np.tri(m_points, k=-1, dtype=bool)] = window_n + 1
    return counts


def _greedy_counts(
    lags: np.ndarray, window_n: int, grid: tuple[float, ...]
) -> tuple[int, ...]:
    """Sizes of the greedy nu-separated subsets, scanned in index order.

    An index is kept when its density to every kept index is >= nu.  The
    densities are never formed: t, the least count c with float(c) / N >=
    nu, makes ``count < t`` exactly ``count / N < nu``.  When no pair is
    that close every index is kept.  Otherwise the kept index i blocks the
    bits i + D of its row of ``lags < t``, and the scan jumps to the lowest
    free bit above i; it never looks back, so one triangle of counts is all
    it reads.
    """
    m_points = lags.shape[0]
    closest = int(lags[:, 1:].min(initial=window_n + 1))
    counts = []
    for nu in grid:
        threshold = bisect.bisect_left(
            range(window_n + 1), True, key=lambda c: c / window_n >= nu
        )
        if closest >= threshold:
            counts.append(m_points)
            continue
        rows = np.packbits(lags < threshold, axis=1, bitorder="little")
        blocked = idx = kept = 0
        while idx < m_points:
            kept += 1
            blocked |= int.from_bytes(rows[idx], "little") << idx
            free = ~blocked >> (idx + 1)
            idx += (free & -free).bit_length()
        counts.append(kept)
    return tuple(counts)


def check_sample_size(m_points: int, window_n: int, letters: int) -> None:
    """Refuse an orbit sample that separation_profile cannot take on
    ``letters`` letters, before anything is built."""
    if m_points < _MIN_POINTS:
        raise PreconditionError(f"need at least {_MIN_POINTS} orbit points")
    if window_n < _MIN_WINDOW:
        raise PreconditionError(f"need a window of at least {_MIN_WINDOW}")
    if m_points * m_points * window_n > COMPARISON_BUDGET:
        raise ResourceLimitError(
            f"M^2*N = {m_points**2 * window_n} exceeds {COMPARISON_BUDGET}"
        )
    _check_table("separation_profile", (letters - 1).bit_length(), window_n, m_points)


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
    check_sample_size(m_points, window_n, subst.alphabet.size)
    grid = tuple(nu_grid) if nu_grid is not None else build_nu_grid()
    require_primitive(subst, "separation_profile")
    # the windows x[i : i + N], i < M, stand in for the orbit points T^i x
    prefix = fixed_point_array(subst, m_points + window_n)
    counts = _greedy_counts(_lag_counts(prefix, m_points, window_n), window_n, grid)
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
    at each end).  The slope is the closed-form least-squares one, every
    sum taken left to right in plain float arithmetic, so it does not
    depend on a LAPACK build.
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
    mean_x = mean_y = 0.0
    for x, y in zip(xs, ys):
        mean_x += x
        mean_y += y
    mean_x /= len(xs)
    mean_y /= len(ys)
    sxx = sxy = 0.0
    for x, y in zip(xs, ys):
        sxx += (x - mean_x) * (x - mean_x)
        sxy += (x - mean_x) * (y - mean_y)
    slope = sxy / sxx
    profile.slope = slope
    profile.fit_range = (middle[0], middle[-1])
    return slope


def _window_counts(
    pure: Substitution, classes: tuple[int, ...], window_n: int, m_starts: int
):
    """A function (starts i, starts j) -> [(plain, filtered)] mismatch counts
    of the N-symbol windows of the fixed point of ``pure`` at those starts,
    every start below ``m_starts``; a filtered mismatch is one whose two
    letters lie in different ``classes``.

    Letter a is coded classes[a] << low | (its rank in its class), so the
    bit planes from ``low`` up spell the class, and the windows are read
    from the ``_plane_runs`` of the coded prefix, whose table is checked
    against SHIFT_TABLE_BUDGET before the prefix is built.  A pair's counts
    are the popcounts of the OR of its two windows' XORed words, the last
    word masked to the window, over all planes and over the planes from
    ``low`` up: O(planes * N / 64) word operations a pair.  A numpy call
    takes 64 pairs, so its temporaries stay within a few times the table.
    """
    rank = [classes[:a].count(c) for a, c in enumerate(classes)]
    low = max(rank).bit_length()
    codes = np.array([c << low | n for c, n in zip(classes, rank)])
    _check_table("lipschitz_ratio_probe", int(codes.max()).bit_length(), window_n, m_starts)
    prefix = codes[fixed_point_array(pure, m_starts + window_n)]
    runs, tail = _plane_runs(prefix, window_n, m_starts)

    def counts(starts_i, starts_j):
        out = []
        for lo in range(0, len(starts_i), 64):
            i, j = np.array([starts_i[lo : lo + 64], starts_j[lo : lo + 64]], dtype=np.intp)
            differs = runs[:, i % 64, i // 64] ^ runs[:, j % 64, j // 64]
            differs[:, :, -1] &= tail
            across = np.bitwise_or.reduce(differs[low:], axis=0)
            plain = across | np.bitwise_or.reduce(differs[:low], axis=0)
            out += np.bitwise_count([plain, across]).sum(axis=2).T.tolist()
        return out

    return counts


def lipschitz_ratio_probe(
    subst: Substitution,
    samples: int = 64,
    window_n: int = 1 << 14,
    seed: int = DEFAULT_SEED,
    analysis: DiscrepancyAnalysis | None = None,
) -> float:
    """Minimum sampled ratio (S-restricted density) / (plain density).

    The two densities are Lipschitz-equivalent on infinite discrete-
    spectrum systems, so the minimum should stay clear of zero.
    ``analysis`` is ``analyze_pairs(subst)`` when the caller already has
    it.  A position of two windows is an S-mismatch iff its letters lie in
    different classes of ``analysis.classes``, so a pair of N-symbol windows
    costs O(planes * N / 64) word operations, planes being about
    log2 |A| bits of class and rank (``_window_counts``).  The table of
    those planes from max(4 * samples, 64) starts is refused with
    ResourceLimitError past SHIFT_TABLE_BUDGET, before the prefix is built.
    """
    if samples < 1 or window_n < 1:
        raise PreconditionError("lipschitz_ratio_probe needs samples >= 1 and window_n >= 1")
    if analysis is None:
        analysis = analyze_pairs(subst)
    if not 0 < _ac_from_rate(analysis.rate_type.rate, subst.length_k) < math.inf:
        raise PreconditionError(
            "ratio probe needs an infinite system with discrete spectrum"
        )
    return _min_density_ratio(
        analysis.pure.pure_base, analysis.classes, samples, window_n, seed
    )


def _min_density_ratio(
    pure: Substitution,
    classes: tuple[int, ...],
    samples: int,
    window_n: int,
    seed: int,
) -> float:
    """The sampling loop of lipschitz_ratio_probe, S being the pairs of
    letters in different ``classes``.

    ``pure`` must be primitive.  Of the first 50 * samples draws, the pairs
    with i != j are taken a batch at a time, at most as many as could still
    be accepted, and counted in one call of ``_window_counts``, so the
    draws, the acceptance and the stop are those of a loop that counts one
    pair a time.
    """
    m_pool = max(4 * samples, 64)
    counts = _window_counts(pure, classes, window_n, m_pool)
    rng = random.Random(seed)
    draws = ((rng.randrange(m_pool), rng.randrange(m_pool)) for _ in range(50 * samples))
    pairs = ((i, j) for i, j in draws if i != j)

    best = math.inf
    accepted = 0
    while accepted < samples and (batch := list(islice(pairs, samples - accepted))):
        densities = np.array(counts(*zip(*batch))) / window_n
        ratios = [ds / d1 for d1, ds in densities.tolist() if d1 >= 0.01]
        accepted += len(ratios)
        best = min([best, *ratios])
    if accepted == 0:
        raise EstimationError("no sampled pair had plain density >= 0.01")
    return best


def density_rows(
    analysis: DiscrepancyAnalysis,
) -> list[tuple[int, int, float, float]]:
    """(i, j, plain density, S-restricted density) of the windows i < j < 16
    of 4096 symbols of the pure base's fixed point, S being the pairs of
    letters in different ``analysis.classes``.

    The 120 pairs are counted as the probe counts its pairs, by one call
    of ``_window_counts``.
    """
    m_points, window_n = 16, 4096
    starts_i, starts_j = np.triu_indices(m_points, k=1)
    counts = _window_counts(analysis.pure.pure_base, analysis.classes, window_n, m_points)
    return [
        (i, j, float(plain) / window_n, float(filtered) / window_n)
        for i, j, (plain, filtered) in zip(
            starts_i.tolist(), starts_j.tolist(), counts(starts_i, starts_j)
        )
    ]


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
