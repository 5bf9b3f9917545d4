"""Orbit-pair densities and the separation estimates read from them.

P_d(a, b) is the frequency of the positions n of the fixed point u with
u_n = a and u_{n+d} = b, the same for every point of a primitive subshift.
The mismatch density of the orbit points T^i x and T^j x, the N -> infinity
limit of their disagreements in N symbols over N, is
delta(|i - j|) = 1 - trace P_{|i - j|}: exact, read from one table of P_d
built by renormalisation (``_pair_blocks``).  On it sit greedy packings that
estimate separation numbers on a geometric resolution grid, a log-log slope
that should reproduce the exact amorphic complexity where it is finite, and
the ratio of the S-restricted density to the plain one.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Substitution, require_primitive
from .discrepancy import DiscrepancyAnalysis, analyze_pairs
from .errors import EstimationError, InternalError, PreconditionError, ResourceLimitError
from .invariants import DEFAULT_SEED, _ac_from_rate

#: Hard cap in bytes on the work of one table of pair densities, checked
#: before anything is built (``_check_cost``).
ARRAY_BUDGET = 1 << 27

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
    slope: float | None = None
    fit_range: tuple[int, int] | None = None


def _kept_lags(lags: int, k: int) -> int:
    """Lags 0, 1, ... that ``_pair_blocks`` keeps: P_1 and every parent of a lag < ``lags``."""
    return max(2, (lags + k - 2) // k + 1)


def _check_cost(
    op: str, subst: Substitution, lags: int, points: int = 0, int_bytes: int = 0
) -> None:
    """Refuse P_d, d < ``lags``, over ARRAY_BUDGET bytes: 8 a cell of 2k + 2
    |A| x |A| matrices and k|A| index rows a ``_kept_lags`` lag (the kept
    table; a block's index map, parents, sums), |A|^3 for the frequency
    solve, 2k + 4 a lag (parents, residues, sums, joined); ``int_bytes`` a
    kept or block entry of Python ints; greedy bitsets of ``points``^2 bits."""
    size, k = subst.alphabet.size, subst.length_k
    kept = _kept_lags(lags, k)
    cells = (2 * k + 2) * kept * size * size + k * size * kept + size**3 + (2 * k + 4) * lags
    cost = 8 * cells + 2 * int_bytes * kept * size * size + points * points // 8
    if cost > ARRAY_BUDGET:
        raise ResourceLimitError(
            f"{op}: a pair-density table of {cost} bytes exceeds the {ARRAY_BUDGET}-byte budget"
        )


def _letter_frequencies(subst: Substitution) -> list[Fraction]:
    """The letter frequencies f, the diagonal of P_0: M f = k f, sum f = 1.

    M[a][c] counts a in phi(c), so the rows of M - kI sum to zero, and for
    a primitive phi (k a simple eigenvalue) the last may be replaced by
    sum f = 1: Gauss-Jordan on integer rows, each divided by its gcd.
    """
    size, k = subst.alphabet.size, subst.length_k
    rows = [[0] * (size + 1) for _ in range(size)]
    for c, image in enumerate(subst.rules):
        rows[c][c] -= k
        for a in image:
            rows[a][c] += 1
    rows[-1] = [1] * (size + 1)
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        for r, row in enumerate(rows):
            if r != col and row[col]:
                scale = row[col]
                row = [head[col] * x - scale * y for x, y in zip(row, head)]
                divisor = math.gcd(*row)
                rows[r] = [x // divisor for x in row]
    return [Fraction(row[-1], row[i]) for i, row in enumerate(rows)]


def _first_lag(subst: Substitution, freq: list[Fraction]) -> list[Fraction]:
    """P_1, flat: entry c * |A| + e is P_1(c, e).  With n = km + j,
    (u_n, u_{n+1}) is (phi(c)_j, phi(c)_{j+1}), c = u_m, for j < k - 1, the
    mass B; and (phi(c)_{k-1}, phi(e)_0) for j = k - 1, (c, e) =
    (u_m, u_{m+1}).  So P_1 = B + f_* P_1 / k, f(c, e) = (phi(c)_{k-1},
    phi(e)_0): the series sum_t k^-t f^t_* B.  Every orbit of f runs down
    a tree into a cycle; tree points are settled leaves first, and around
    a cycle c_0 -> ... -> c_{L-1} -> c_0 the series is geometric, P_1(c_0)
    = sum_i k^-i in(c_{-i}) / (1 - k^-L), in(c) being B plus 1/k of the
    tree values flowing into c."""
    size, k = subst.alphabet.size, subst.length_k
    inflow = [Fraction(0)] * (size * size)
    for c, image in enumerate(subst.rules):
        for a, b in zip(image, image[1:]):
            inflow[a * size + b] += freq[c] / k
    succ = [subst.rules[c][-1] * size + subst.rules[e][0] for c in range(size) for e in range(size)]
    waiting = Counter(succ)
    value: list[Fraction | None] = [None] * len(succ)
    settled = [x for x in range(len(succ)) if not waiting[x]]
    for x in settled:  # grows while it is walked: the trees, leaves first
        value[x] = inflow[x]
        y = succ[x]
        inflow[y] += value[x] / k
        waiting[y] -= 1
        if waiting[y] == 0:
            settled.append(y)
    for x, v in enumerate(value):
        if v is not None:
            continue
        cycle = [x]
        while succ[cycle[-1]] != x:
            cycle.append(succ[cycle[-1]])
        total = Fraction(0)
        for y in cycle[1:] + cycle[:1]:
            total = total / k + inflow[y]
        value[x] = total / (1 - Fraction(1, k ** len(cycle)))
        for before, y in zip(cycle, cycle[1:]):
            value[y] = inflow[y] + value[before] / k
    return value


def _pair_blocks(subst: Substitution, lags: int) -> tuple[int, Iterator[np.ndarray]]:
    """(Z, blocks): the rows Z * P_d, d < ``lags``, a block of lags at a
    time, entry a * |A| + b being Z * P_d(a, b), exact integers.

    ``subst`` must be primitive.  With n = km + j and j + d = qk + r,
    u_n = phi(u_m)_j and u_{n+d} = phi(u_{m+q})_r, so (Baake and Gaehler,
    Topology Appl. 205 (2016)) P_d = (1/k) sum_j S_j^T P_q S_r, S_j[c, a]
    being [phi(c)_j = a].  P_0 = diag(``_letter_frequencies``), P_1 is
    ``_first_lag``, and the parents of d <= k(lo - 1) lie below lo: the
    lags fill in blocks [lo, k(lo - 1) + 1), each at most ``_kept_lags``
    long, by one scatter-add of k parents a lag through the index map
    (d, j, c, e) -> (d, phi(c)_j, phi(e)_r); only parents are kept.  Z is
    the least common denominator of P_0 and P_1 times k^h >= lags - 1, one
    k a block, and each Z * P_d must sum to Z, which a division with a
    remainder would break (InternalError).  int64 is exact while
    k * Z < 2^63: an entry or partial sum of a block adds k parents'
    entries of at most Z.  Past that the same code runs on Python ints,
    priced again with their size.  One letter gives Z * P_d = [1].
    """
    size, k = subst.alphabet.size, subst.length_k
    if size == 1:
        return 1, iter([np.ones((lags, 1), dtype=np.int64)])
    freq = _letter_frequencies(subst)
    first = _first_lag(subst, freq)
    scale = 1
    while scale < lags - 1:
        scale *= k
    z = math.lcm(*(x.denominator for x in freq + first)) * scale
    dtype = np.int64 if k * z < 1 << 63 else object
    if dtype is object:  # each entry an int object of up to sys.getsizeof(k * z) bytes
        _check_cost("pair densities", subst, lags, int_bytes=sys.getsizeof(k * z))
    kept = _kept_lags(lags, k)
    table = np.zeros((kept, size * size), dtype=dtype)
    table[0, :: size + 1] = [int(x * z) for x in freq]
    table[1] = [int(x * z) for x in first]
    columns = np.array(subst.rules, dtype=np.intp).T  # columns[j][c] = phi(c)_j
    # flat index of (d, phi(c)_j, phi(e)_r) at [d - lo, j, c, e]: rows[d - lo, j, c, 0] + phi(e)_r
    rows = (np.arange(kept) * size * size)[:, None, None, None] + (columns * size)[..., None]
    parents, residues = np.divmod(np.arange(lags)[:, None] + np.arange(k), k)

    def blocks() -> Iterator[np.ndarray]:
        yield table[: min(lags, 2)]
        lo = 2
        while lo < lags:
            top = min(k * (lo - 1) + 1, lags, lo + kept)
            target = rows[: top - lo] + columns[residues[lo:top]][:, :, None, :]
            block = np.zeros((top - lo, size * size), dtype=dtype)
            np.add.at(block.reshape(-1), target.ravel(), table[parents[lo:top]].ravel())
            block //= k
            if (block.sum(axis=1) != z).any():
                raise InternalError(f"pair densities: {z} is no common denominator")
            table[lo : min(top, kept)] = block[: max(kept - lo, 0)]
            yield block
            lo = top

    return z, blocks()


def _pair_sums(subst: Substitution, lags: int, *labellings) -> tuple[int, np.ndarray]:
    """(Z, W): W[d, w] is Z times the density of the positions n whose letters
    u_n and u_{n+d} differ in ``labellings[w]``, d < ``lags``: range(|A|)
    gives the plain mismatches and the classes the S-mismatches."""
    weights = np.array([np.not_equal.outer(x, x).ravel() for x in labellings], dtype=np.int64)
    z, blocks = _pair_blocks(subst, lags)
    return z, np.concatenate([block @ weights.T for block in blocks])


def _least_numerator(nu: float, z: int) -> int:
    """The least integer c with c / z >= nu, exactly: c / z < nu iff c < it."""
    num, den = nu.as_integer_ratio()
    return -(-num * z // den)


def _greedy_counts(apart: np.ndarray, z: int, grid: tuple[float, ...]) -> tuple[int, ...]:
    """Sizes of the greedy nu-separated subsets of M points, scanned in
    index order, where ``apart[d] / z`` is the density of points d apart.

    An index is kept when its density to every kept index is >= nu.  The
    densities depend on the lag alone, so one mask of the close lags, those
    d >= 1 with apart[d] < the least numerator of nu, serves every point:
    a kept index i blocks the bits i + d, and the scan jumps to the lowest
    free bit above i."""
    m_points = len(apart)
    counts = []
    for nu in grid:
        close = apart < min(_least_numerator(nu, z), z + 1)
        close[0] = False
        mask = int.from_bytes(np.packbits(close, bitorder="little").tobytes(), "little")
        if not mask:
            counts.append(m_points)
            continue
        blocked = idx = kept = 0
        while idx < m_points:
            kept += 1
            blocked |= mask << idx
            free = ~blocked >> (idx + 1)
            idx += (free & -free).bit_length()
        counts.append(kept)
    return tuple(counts)


def check_sample_size(subst: Substitution, m_points: int, window_n: int | None = None) -> None:
    """Refuse an orbit sample that separation_profile cannot take, before
    anything is built.  ``window_n``, when given, is checked and ignored."""
    if m_points < _MIN_POINTS:
        raise PreconditionError(f"need at least {_MIN_POINTS} orbit points")
    if window_n is not None and window_n < _MIN_WINDOW:
        raise PreconditionError(f"need a window of at least {_MIN_WINDOW}")
    _check_cost("separation_profile", subst, m_points, m_points)


def separation_profile(
    subst: Substitution,
    m_points: int = 256,
    window_n: int = 8192,
    nu_grid: tuple[float, ...] | None = None,
) -> SeparationProfile:
    """Greedy maximal nu-separated subsets of {T^i x : i < M}, per grid nu.

    Deterministic: points are scanned in index order and kept when at exact
    mismatch density >= nu from everything kept so far.  ``window_n`` is
    checked (at least 1024) and ignored: the densities are exact.
    """
    check_sample_size(subst, m_points, window_n)
    grid = tuple(nu_grid) if nu_grid is not None else build_nu_grid()
    require_primitive(subst, "separation_profile")
    z, apart = _pair_sums(subst, m_points, range(subst.alphabet.size))
    profile = SeparationProfile(grid, _greedy_counts(apart[:, 0], z, grid), m_points)
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


def _class_densities(
    op: str, pure: Substitution, classes: tuple[int, ...], lags: int
) -> tuple[int, list[int], list[int]]:
    """(Z, plain, across): Z times the plain and the S-restricted densities
    of the pure base's orbit points d apart, d < ``lags``, S being the pairs
    of letters in different ``classes``; priced for ``op`` first."""
    _check_cost(op, pure, lags)
    z, sums = _pair_sums(pure, lags, range(pure.alphabet.size), classes)
    plain, across = sums.T.tolist()
    return z, plain, across


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
    it.  A position of two orbit points is an S-mismatch iff its letters
    lie in different classes of ``analysis.classes``.  ``window_n`` is
    checked (at least 1) and ignored: the densities are exact.
    """
    if samples < 1 or window_n < 1:
        raise PreconditionError("lipschitz_ratio_probe needs samples >= 1 and window_n >= 1")
    if analysis is None:
        analysis = analyze_pairs(subst)
    if not 0 < _ac_from_rate(analysis.rate_type.rate, subst.length_k) < math.inf:
        raise PreconditionError("ratio probe needs an infinite system with discrete spectrum")
    return _min_density_ratio(analysis.pure.pure_base, analysis.classes, samples, seed)


def _min_density_ratio(
    pure: Substitution, classes: tuple[int, ...], samples: int, seed: int
) -> float:
    """The sampling loop of lipschitz_ratio_probe, S being the pairs of
    letters in different ``classes``.

    ``pure`` must be primitive.  Of the first 50 * samples draws of two
    points below max(4 * samples, 64), each pair with i != j and plain
    density >= 0.01 at lag |i - j| is accepted, until ``samples`` are.
    """
    m_pool = max(4 * samples, 64)
    z, plain, across = _class_densities("lipschitz_ratio_probe", pure, classes, m_pool)
    floor = _least_numerator(0.01, z)
    rng = random.Random(seed)
    best = math.inf
    accepted = 0
    for _ in range(50 * samples):
        i, j = rng.randrange(m_pool), rng.randrange(m_pool)
        lag = abs(i - j)
        if i == j or plain[lag] < floor:
            continue
        best = min(best, across[lag] / plain[lag])
        accepted += 1
        if accepted == samples:
            break
    if accepted == 0:
        raise EstimationError("no sampled pair had plain density >= 0.01")
    return best


def density_rows(analysis: DiscrepancyAnalysis) -> list[tuple[int, int, float, float]]:
    """(i, j, plain density, S-restricted density) of the orbit points
    i < j < 16 of the pure base's fixed point, S being the pairs of letters
    in different ``analysis.classes``; exact densities rounded to floats."""
    m_points = 16
    z, plain, across = _class_densities(
        "density_rows", analysis.pure.pure_base, analysis.classes, m_points
    )
    return [
        (i, j, plain[j - i] / z, across[j - i] / z)
        for i in range(m_points)
        for j in range(i + 1, m_points)
    ]


def write_profile_csv(profile: SeparationProfile, path: str) -> None:
    """Emit (nu, count) rows, comma-separated with a header, LF endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write("nu,count\n")
        for nu, count in zip(profile.nu_grid, profile.counts):
            fh.write(f"{nu},{count}\n")


def write_density_csv(rows: list[tuple[int, int, float, float]], path: str) -> None:
    """Emit pair densities as (i, j, d1, ds) rows."""
    with open(path, "w", newline="\n") as fh:
        fh.write("i,j,d1,ds\n")
        for i, j, d1, ds in rows:
            fh.write(f"{i},{j},{d1},{ds}\n")
