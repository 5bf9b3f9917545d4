"""Nonnegative integer matrix analysis.

Strongly connected component condensation, per-component Perron radii,
exact characteristic polynomials, and the per-index growth data
(rate, polynomial degree) that governs how fast iterated images grow.

A :class:`CountMatrix` stores the nonzeros of each column, so successors,
principal blocks and power iteration cost O(nonzeros): a pair matrix has at
most k per column.  Only the characteristic polynomial reads a dense view.

Characteristic polynomials are exact by modular arithmetic: a Hessenberg
reduction mod primes below 2^31 in numpy int64, O(n^3) per prime, joined
by CRT under a Hadamard bound on the coefficients.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import _tarjan
from .errors import InternalError

#: Absolute accuracy of every Perron radius we report.
RADIUS_TOL = 1e-10
#: Tolerance used when comparing radii for equality downstream.
RATE_TOL = 1e-9

_POWER_ITERATION_CAP = 10**5


@dataclass(frozen=True)
class CountMatrix:
    """A square matrix of arbitrary-precision nonnegative integers:
    ``columns[j]`` holds column j's nonzeros as (row, value), rows ascending."""

    columns: tuple[tuple[tuple[int, int], ...], ...]

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "CountMatrix":
        entries = tuple(tuple(int(v) for v in row) for row in rows)
        if any(len(row) != len(entries) for row in entries):
            raise ValueError("matrix must be square")
        if any(v < 0 for row in entries for v in row):
            raise ValueError("matrix entries must be nonnegative")
        return CountMatrix(
            tuple(tuple((i, v) for i, v in enumerate(col) if v) for col in zip(*entries))
        )

    @property
    def order(self) -> int:
        return len(self.columns)

    @functools.cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """Dense rows, built on the first read."""
        rows = [[0] * self.order for _ in range(self.order)]
        for j, column in enumerate(self.columns):
            for i, v in column:
                rows[i][j] = v
        return tuple(map(tuple, rows))

    def restrict(self, indices: Sequence[int]) -> "CountMatrix":
        """Principal block on ``indices``, in their order."""
        at = {v: t for t, v in enumerate(indices)}
        return CountMatrix(
            tuple(tuple(sorted((at[i], v) for i, v in self.columns[j] if i in at)) for j in indices)
        )


@dataclass(frozen=True)
class GrowthType:
    """|phi^n(a)| ~ c * n^degree * rate^n, ordered lexicographically."""

    rate: float
    degree: int


@dataclass(frozen=True)
class ComponentDecomposition:
    """SCC partition of the growth digraph plus per-component Perron radii.

    The digraph has an edge a -> b iff letter b occurs in the image of a,
    i.e. iff M[b][a] > 0; reachability along it matches "letters occurring
    in iterated images".
    """

    components: tuple[tuple[int, ...], ...]
    component_of: tuple[int, ...]
    condensation: tuple[tuple[int, ...], ...]  # edges between component ids
    radii: tuple[float, ...]

    def growth_types(self, erasing: set[int] | frozenset[int]) -> list[GrowthType]:
        """Growth type (rate, degree) of every index.

        The rate of an index is the largest component radius reachable from
        its component (itself included); the degree is one less than the
        largest number of components realizing that radius along a single
        condensation path.  Erasing indices get the conventional (0, 1).
        One pass over the components, sinks first, settles both: a reach is
        the max of the own radius and the successors' reaches, and a count
        adds the own tie to the largest count of a successor whose reach
        ties (ties within RATE_TOL).
        """
        reach: list[float] = []
        count: list[int] = []
        for radius, succ in zip(self.radii, self.condensation):
            top = max([radius] + [reach[cj] for cj in succ])
            below = [count[cj] for cj in succ if abs(reach[cj] - top) <= RATE_TOL]
            reach.append(top)
            count.append(int(abs(radius - top) <= RATE_TOL) + max(below, default=0))
        return [
            GrowthType(0.0, 1) if a in erasing else GrowthType(reach[ci], count[ci] - 1)
            for a, ci in enumerate(self.component_of)
        ]


def spectral_radius(m: CountMatrix) -> float:
    """Perron root of an irreducible (or 1x1) nonnegative integer matrix.

    Power iteration runs on M + I, which is primitive whenever M is
    irreducible (positive diagonal kills periodicity), and the Collatz-
    Wielandt ratio bounds bracket the eigenvalue; we subtract the shift
    at the end.  Absolute accuracy RADIUS_TOL.  Each row sums over its
    nonzeros and its diagonal, in ascending column order: the zero terms of
    a dense sum add exactly +0.0, so the result is bit for bit the dense one.
    """
    n = m.order
    if n <= 1:
        return float(sum(v for column in m.columns for _, v in column))
    shifted: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for j, column in enumerate(m.columns):
        diagonal = 1.0
        for i, value in column:
            if i == j:
                diagonal = float(value) + 1.0
            else:
                shifted[i].append((j, float(value)))
        shifted[j].append((j, diagonal))
    v = [1.0] * n
    for _ in range(_POWER_ITERATION_CAP):
        y = [sum([w * v[j] for j, w in row]) for row in shifted]
        ratios = [y[i] / v[i] for i in range(n)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo < RADIUS_TOL:
            return (lo + hi) / 2.0 - 1.0
        top = max(y)
        v = [max(y[i] / top, 1e-300) for i in range(n)]
    raise InternalError(
        f"power iteration did not reach {RADIUS_TOL} accuracy in "
        f"{_POWER_ITERATION_CAP} steps on a matrix of order {n}"
    )


def decompose(m: CountMatrix) -> ComponentDecomposition:
    """SCC condensation of the growth digraph with one radius per component.

    Components are numbered sinks first, so every condensation edge points
    to a smaller id; :meth:`ComponentDecomposition.growth_types` relies on it.
    The successors of a are the nonzero rows of column a, ascending.
    """
    succ = [[b for b, _ in column] for column in m.columns]
    components = _tarjan(succ)
    comp_of = [0] * m.order
    for ci, comp in enumerate(components):
        for v in comp:
            comp_of[v] = ci
    return ComponentDecomposition(
        components=tuple(map(tuple, components)),
        component_of=tuple(comp_of),
        condensation=tuple(
            tuple(sorted({comp_of[b] for a in comp for b in succ[a]} - {ci}))
            for ci, comp in enumerate(components)
        ),
        radii=tuple(spectral_radius(m.restrict(comp)) for comp in components),
    )


def growth_types(m: CountMatrix, erasing: set[int] | frozenset[int]) -> list[GrowthType]:
    """Growth type (rate, degree) of every index; see
    :meth:`ComponentDecomposition.growth_types`."""
    return decompose(m).growth_types(erasing)


def max_growth_type(types: Iterable[GrowthType]) -> GrowthType:
    """Largest (rate, degree) under the lexicographic order, rate compared
    with RATE_TOL slack so equal radii from different power-iteration runs
    group together."""
    items = list(types)
    if not items:
        raise ValueError("no growth types to compare")
    top_rate = max(t.rate for t in items)
    top_degree = max(t.degree for t in items if t.rate >= top_rate - RATE_TOL)
    return GrowthType(top_rate, top_degree)


def _is_prime(n: int) -> bool:
    # Miller-Rabin with bases 2, 3, 5, 7 is exact for n < 3,215,031,751
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def _prime(i: int) -> int:
    """The i-th largest prime below 2^31, so that a product of two residues
    stays below 2^62; callers ask for i in order, so recursion stays shallow."""
    candidate = _prime(i - 1) - 2 if i else (1 << 31) - 1
    while not _is_prime(candidate):
        candidate -= 2
    return candidate


def _charpoly_residues(entries: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    """det(tI - M) mod p for each prime p, one row of ascending powers each.

    Similarity transforms over GF(p) reduce M to upper Hessenberg form H,
    for all primes at once.  A pivot search (row and column swap) keeps
    every step defined, so no prime is unlucky.  The characteristic
    polynomial is then read off H by the recurrence (1-indexed, p_0 = 1)

        p_c(t) = (t - h_cc) p_{c-1}(t)
                 - sum_{i<c} h_ic (h_{i+1,i} ... h_{c,c-1}) p_{i-1}(t).

    Each elementwise product of residues is reduced before anything is
    added to it, so with p < 2^31 nothing leaves int64.
    """
    n = entries.shape[0]
    q = np.array(primes, dtype=np.int64)
    qv, qm = q[:, None], q[:, None, None]
    h = (entries[None] % np.array(primes, dtype=object)[:, None, None]).astype(np.int64)
    every = np.arange(len(primes))
    for m in range(1, n - 1):
        nonzero = h[:, m:, m - 1] != 0
        offset = nonzero.argmax(axis=1)
        if offset.any():
            i = m + offset
            h[every, m, :], h[every, i, :] = h[every, i, :], h[every, m, :]
            h[every, :, m], h[every, :, i] = h[every, :, i], h[every, :, m]
        inverse = np.array(
            [pow(v, -1, p) if v else 0 for v, p in zip(h[:, m, m - 1].tolist(), primes)],
            dtype=np.int64,
        )
        u = h[:, m + 1 :, m - 1] * inverse[:, None] % qv
        # rows i > m lose u_i * row m; column m gains sum_i u_i * column i
        h[:, m + 1 :] = (h[:, m + 1 :] - u[:, :, None] * h[:, m, None, :] % qm) % qm
        h[:, :, m] = (h[:, :, m] + (h[:, :, m + 1 :] * u[:, None, :] % qm).sum(axis=2)) % qv

    polys = np.zeros((len(primes), n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    # 0-indexed: run[:, i] = h[i+1, i] ... h[c, c-1] for i < c
    run = np.ones((len(primes), n), dtype=np.int64)
    for c in range(n):
        prev = polys[:, c]
        polys[:, c + 1, 1:] = prev[:, :-1]
        polys[:, c + 1] = (polys[:, c + 1] - prev * h[:, c, c, None] % qv) % qv
        if c:
            run[:, :c] = run[:, :c] * h[:, c, c - 1, None] % qv
            weights = h[:, :c, c] * run[:, :c] % qv
            tail = (polys[:, :c] * weights[:, :, None] % qm).sum(axis=1) % qv
            polys[:, c + 1] = (polys[:, c + 1] - tail) % qv
    return polys[:, n]


def characteristic_polynomial(m: CountMatrix) -> tuple[int, ...]:
    """Exact integer coefficients (monic, descending powers) of det(tI - M).

    Modular method (Cohen, *A Course in Computational Algebraic Number
    Theory*, 2.2.4): det(tI - M) mod p from a Hessenberg reduction in numpy
    int64, for primes p < 2^31 until their product exceeds 2B, joined by
    CRT into symmetric residues.  B = prod_j (1 + column sum j) bounds every
    |c_i| by Hadamard's inequality (a column's L2 norm is at most its L1
    norm), so the joined residues are the integer coefficients.  One more
    prime, not used in the join, and c_1 = -trace cross-check the result; a
    mismatch raises InternalError.  O(n^3) per prime.
    """
    n = m.order
    if n == 0:
        return (1,)
    bound = 1
    for column in m.columns:
        bound *= 1 + sum(v for _, v in column)
    primes: list[int] = []
    modulus = 1
    while modulus <= 2 * bound:
        primes.append(_prime(len(primes)))
        modulus *= primes[-1]
    check = _prime(len(primes))
    rows = _charpoly_residues(np.array(m.entries, dtype=object), primes + [check]).tolist()

    coeffs = [0] * (n + 1)
    joined = 1
    for p, residues in zip(primes, rows):
        step = pow(joined % p, -1, p)
        for d, r in enumerate(residues):
            coeffs[d] += joined * ((r - coeffs[d]) * step % p)
        joined *= p
    coeffs = [c - modulus if 2 * c > modulus else c for c in coeffs]

    if [c % check for c in coeffs] != rows[-1]:
        raise InternalError(
            f"characteristic_polynomial: order {n} result disagrees with the "
            f"check prime {check}"
        )
    trace = sum(m.entries[i][i] for i in range(n))
    if coeffs[n] != 1 or coeffs[n - 1] != -trace:
        raise InternalError(
            f"characteristic_polynomial: order {n} result has leading "
            f"coefficient {coeffs[n]} and c_1 = {coeffs[n - 1]}; want 1 and "
            f"-trace = {-trace}"
        )
    return tuple(reversed(coeffs))


def polynomial_text(coeffs: Sequence[int]) -> str:
    """Render integer coefficients (descending powers) like ``t^2 - t - 1``."""
    degree = len(coeffs) - 1
    parts: list[str] = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        p = degree - i
        mag = abs(c)
        if p == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            body = f"{head}t" if p == 1 else f"{head}t^{p}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def evaluate_polynomial(coeffs: Sequence[int], value: int) -> int:
    """Exact evaluation of the integer polynomial at an integer point."""
    acc = 0
    for c in coeffs:
        acc = acc * value + c
    return acc
