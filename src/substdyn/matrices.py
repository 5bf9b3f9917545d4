"""Nonnegative integer matrix analysis.

Strongly connected component condensation, per-component Perron radii,
the per-index growth data (rate, polynomial degree) that governs how fast
iterated images grow, and a certified polynomial with the Perron root.

A :class:`CountMatrix` stores the nonzeros of each column, so successors,
principal blocks, power iteration and Krylov sequences cost O(nonzeros): a
pair matrix has at most k per column.  Nothing here reads ``entries``.

That polynomial is mu, the minimal polynomial of the all-ones vector: the
Krylov sequence mod primes below 2^31, Berlekamp-Massey, CRT until the
join is stable, then the exact check mu(M) 1 = 0 over Python integers.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    """The i-th largest prime below 2^31; asked for in order, so recursion stays shallow."""
    candidate = _prime(i - 1) - 2 if i else (1 << 31) - 1
    while not _is_prime(candidate):
        candidate -= 2
    return candidate


#: Zero discrepancies past twice the recurrence length that end a Krylov sequence early.
_QUIET_TERMS = 4


def _recurrences(
    rows: list[list[tuple[int, int]]], primes: Sequence[int], full: bool
) -> list[list[int]]:
    """Minimal polynomial mod p (descending powers) of s_t = u . M^t 1, per p.

    ``rows[i]`` holds row i's nonzeros as (column, value).  One Krylov run
    mod the product P of the primes serves them all, with u drawn from
    [0, P) by a generator seeded with the first prime; Berlekamp-Massey
    (Massey 1969) reads its terms mod each p.  The run stops after 2n terms
    or, unless ``full``, once t >= 2L + _QUIET_TERMS for every length L.
    """
    n = len(rows)
    modulus = math.prod(primes)
    u = random.Random(primes[0]).sample(range(modulus), n)
    # per prime: p, connection c, c at the last length change, length, steps since, discrepancy
    runs = [[p, [1], [1], 0, 1, 1] for p in primes]
    terms: list[int] = []
    x = [1] * n
    for t in range(2 * n):
        if t:
            x = [sum([v * x[j] for j, v in row]) % modulus for row in rows]
        terms.append(sum(map(operator.mul, u, x)) % modulus)
        for run in runs:
            p, c, before, length, shift, last = run
            d = sum(ci * terms[t - i] for i, ci in enumerate(c)) % p
            run[4] += 1
            if d:
                scale = d * pow(last, -1, p) % p
                run[1] = c + [0] * (len(before) + shift - len(c))
                for i, b in enumerate(before, shift):
                    run[1][i] = (run[1][i] - scale * b) % p
                if 2 * length <= t:
                    run[2:] = c, t + 1 - length, 1, d
        if not full and all(t + 1 >= 2 * run[3] + _QUIET_TERMS for run in runs):
            break
    return [(c + [0] * length)[: length + 1] for _, c, _, length, _, _ in runs]


def minimal_polynomial(m: CountMatrix) -> tuple[int, ...]:
    """mu, the monic integer polynomial of least degree with mu(M) 1 = 0, in
    descending powers.  It divides det(tI - M) and has the Perron root rho as
    a root: a nonnegative left eigenvector w has w . 1 > 0 and w mu(M) 1 =
    mu(rho) w . 1.

    Wiedemann's method (1986): :func:`_recurrences` on pairs of primes below
    2^31 (one if it passes the bound), joined by CRT into symmetric residues
    over the primes of the largest degree seen (a prime or a projection can
    only lose degree).  The join is a candidate once the next prime agrees
    with it, or once the primes' product passes 2B, with B = 2^n prod_j
    (1 + column sum j): Hadamard bounds the coefficients of det(tI - M),
    summed, by the product, and Mignotte's 2^n extends that to a monic
    divisor.  A candidate is returned only if mu(M) 1 = 0 over Python
    integers.  It is then minimal: its degree, the length of a projected
    Krylov recurrence mod p, is at most the Krylov rank over Q.  A failed
    candidate restarts the join on full sequences; past twice the primes
    the bound needs, InternalError.
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
    full, lift, modulus = False, [], 1
    width = 1 if _prime(0) > limit else 2
    for first in range(0, 2 * (limit.bit_length() // 30 + 1), width):
        primes = [_prime(i) for i in range(first, first + width)]
        for p, residues in zip(primes, _recurrences(rows, primes, full)):
            if len(residues) < len(lift):
                continue  # an unlucky prime or projection
            if len(residues) > len(lift):
                lift, modulus = [0] * len(residues), 1
            stable = all(c % p == r for c, r in zip(lift, residues))
            step = pow(modulus, -1, p)
            lift = [c + modulus * ((r - c) * step % p) for c, r in zip(lift, residues)]
            modulus *= p
            lift = [c - modulus if 2 * c > modulus else c for c in lift]
            if stable or modulus > limit:
                x = [1] * n
                for c in lift[1:]:
                    x = [sum([v * x[j] for j, v in row]) + c for row in rows]
                if not any(x):
                    return tuple(lift)
                full, lift = True, []
    raise InternalError(
        f"minimal_polynomial: order {n}: no polynomial certified from {first + width} primes"
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
