"""Nonnegative integer matrix analysis.

Strongly connected component condensation, per-component Perron radii,
the per-index growth data (rate, polynomial degree) that governs how fast
iterated images grow, and a certified polynomial with the Perron root.

A :class:`CountMatrix` stores the nonzeros of each column, so successors,
principal blocks, power iteration and Krylov sequences cost O(nonzeros): a
pair matrix has at most k per column.  Nothing here reads ``entries``.

That polynomial is mu, the minimal polynomial of the all-ones vector: t - r
outright when every row sums to r; otherwise one int64 Krylov sequence and
one Berlekamp-Massey pass per prime below 2^26 (found by trial division),
every product reduced before it is summed, joined by CRT until the join is a
candidate (on the first prime when its residues are below sqrt(p)), then the
exact check mu(M) 1 = 0 over Python integers, which alone makes a candidate
the answer.  A failed check restarts the join; a second one, on full sequences.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
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
    """|phi^n(a)| ~ c * n^degree * rate^n; ``max_growth_type`` orders them."""

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
        y = []
        for row in shifted:
            acc = 0.0  # not sum(): it is compensated from Python 3.12 on
            for j, w in row:
                acc += w * v[j]
            y.append(acc)
        ratios = list(map(operator.truediv, y, v))
        lo, hi = min(ratios), max(ratios)
        if hi - lo < RADIUS_TOL:
            return (lo + hi) / 2.0 - 1.0
        top = max(y)
        v = [q if (q := w / top) > 1e-300 else 1e-300 for w in y]
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


@functools.cache
def _prime(i: int) -> int:
    """The i-th largest prime below 2^26, so a product of two residues fits
    in 52 bits, by trial division of the odd numbers down from 2^26 - 1;
    asked for in order, so recursion stays shallow."""
    n = _prime(i - 1) - 2 if i else (1 << 26) - 1
    while any(n % q == 0 for q in range(3, math.isqrt(n) + 1, 2)):
        n -= 2
    return n


#: Zero discrepancies past twice the recurrence length that end a Krylov sequence early.
_QUIET_TERMS = 4


def _recurrence(rows: list[list[tuple[int, int]]], p: int, full: bool) -> list[int]:
    """Minimal polynomial mod p (descending powers) of s_t = u . M^t 1.

    ``rows[i]`` holds row i's nonzeros as (column, value).  One int64
    Krylov run goes over the rows in CSR form: the values reduced mod p in
    Python (entries can pass 2^63), and every row closed by a zero entry,
    since ``np.add.reduceat`` returns an element, not 0, on an empty
    segment.  A step gathers, multiplies and reduces each product below p <
    2^26 before it sums a row, so no row length or order overflows.  u,
    drawn from [0, p) by a generator seeded with p, rides as row n, so the
    step that maps x to M x also sums the term u . x; one Berlekamp-Massey
    pass (Massey 1969) reads the terms as they come.  The run stops after
    2n terms or, unless ``full``, once t >= 2L + _QUIET_TERMS for its
    length L.
    """
    n = len(rows)
    flat = [entry for row in rows for entry in (*row, (0, 0))]
    columns = np.array([j for j, _ in flat] + list(range(n)), dtype=np.intp)
    starts = np.array([0, *itertools.accumulate(len(row) + 1 for row in rows)])
    u = random.Random(p).sample(range(p), n)
    values = np.array([v % p for _, v in flat] + u, dtype=np.int64)
    x = np.ones(n + 1, dtype=np.int64)
    terms: list[int] = []
    # connection c, c at the last length change, length, steps since, discrepancy
    c, before, length, shift, last = [1], [1], 0, 1, 1
    for t in range(2 * n):
        x = np.add.reduceat(values * x[columns] % p, starts) % p
        terms.append(int(x[n]))
        d = sum(map(operator.mul, c, reversed(terms))) % p
        if d:
            scale = d * pow(last, -1, p) % p
            grown = c + [0] * (len(before) + shift - len(c))
            grown[shift : shift + len(before)] = [
                (a - scale * b) % p for a, b in zip(grown[shift:], before)
            ]
            if 2 * length <= t:
                before, length, shift, last = c, t + 1 - length, 0, d
            c = grown
        shift += 1
        if not full and t + 1 >= 2 * length + _QUIET_TERMS:
            break
    return (c + [0] * length)[: length + 1]


def minimal_polynomial(m: CountMatrix) -> tuple[int, ...]:
    """mu, the monic integer polynomial of least degree with mu(M) 1 = 0, in
    descending powers.  It divides det(tI - M) and has the Perron root rho as
    a root: a nonnegative left eigenvector w has w . 1 > 0 and w mu(M) 1 =
    mu(rho) w . 1.

    If every row sums to r, then M 1 = r 1 and mu = t - r, with no prime.
    Otherwise Wiedemann's method (1986): one :func:`_recurrence` per prime
    below 2^26, in turn, joined by CRT into symmetric residues over the
    primes of the largest degree seen (a prime or a projection can only
    lose degree).  The join is a candidate once every coefficient c has c^2
    below the primes' product P (so a mu with coefficients under sqrt(p)
    settles on its first prime), once the next prime agrees with it, or
    once P passes 2B, with B = 2^n prod_j (1 + column sum j): Hadamard
    bounds the coefficients of det(tI - M), summed, by the product, and
    Mignotte's 2^n extends that to a monic divisor.  A candidate is returned
    only if mu(M) 1 = 0 over Python integers, so no rule for proposing one
    can make it wrong.  It is then minimal: its degree, the length of a
    projected Krylov recurrence mod p, is at most the Krylov rank over Q,
    and two monic annihilators of that degree differ by one of lower
    degree.  A failed candidate restarts the join; a second failure
    restarts it on full sequences, in case one stopped early.  Past twice
    the primes the bound needs, InternalError.
    """
    n = m.order
    if n == 0:
        return (1,)
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    limit = 2 << n
    for j, column in enumerate(m.columns):
        limit *= 1 + sum(v for _, v in column)
        for i, v in column:
            rows[i].append((j, v))
    sums = {sum(v for _, v in row) for row in rows}
    if len(sums) == 1:
        return (1, -sums.pop())
    full, rejected, lift, modulus = False, False, [], 1
    tries = 2 * (limit.bit_length() // 25 + 1)  # each prime passes 2^25
    for i in range(tries):
        p = _prime(i)
        residues = _recurrence(rows, p, full)
        if len(residues) < len(lift):
            continue  # an unlucky prime or projection
        if len(residues) > len(lift):
            lift, modulus = [0] * len(residues), 1
        stable = all(c % p == r for c, r in zip(lift, residues))
        step = pow(modulus, -1, p)
        lift = [c + modulus * ((r - c) * step % p) for c, r in zip(lift, residues)]
        modulus *= p
        lift = [c - modulus if 2 * c > modulus else c for c in lift]
        if stable or modulus > limit or all(c * c < modulus for c in lift):
            x = [1] * n
            for c in lift[1:]:
                x = [sum([v * x[j] for j, v in row]) + c for row in rows]
            if not any(x):
                return tuple(lift)
            full, rejected, lift = rejected, True, []
    raise InternalError(
        f"minimal_polynomial: order {n}: no polynomial certified from {tries} primes"
    )


characteristic_polynomial = minimal_polynomial  # its only reader is bench/replay.py


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
