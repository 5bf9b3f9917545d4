"""Nonnegative integer matrix analysis.

Strongly connected component condensation, per-component Perron radii,
exact characteristic polynomials, and the per-index growth data
(rate, polynomial degree) that governs how fast iterated images grow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InternalError

#: Absolute accuracy of every Perron radius we report.
RADIUS_TOL = 1e-10
#: Tolerance used when comparing radii for equality downstream.
RATE_TOL = 1e-9

_POWER_ITERATION_CAP = 10**5


@dataclass(frozen=True)
class CountMatrix:
    """A square matrix of arbitrary-precision nonnegative integers."""

    entries: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "CountMatrix":
        entries = tuple(tuple(int(v) for v in row) for row in rows)
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for v in row:
                if v < 0:
                    raise ValueError("matrix entries must be nonnegative")
        return CountMatrix(entries)

    @property
    def order(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def mul(self, other: "CountMatrix") -> "CountMatrix":
        n = self.order
        a, b = self.entries, other.entries
        return CountMatrix(
            tuple(
                tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n))
                for i in range(n)
            )
        )

    def pow(self, n: int) -> "CountMatrix":
        if n < 1:
            raise ValueError("pow requires n >= 1")
        result = self
        for _ in range(n - 1):
            result = result.mul(self)
        return result

    def column_sums(self) -> tuple[int, ...]:
        n = self.order
        return tuple(sum(self.entries[i][j] for i in range(n)) for j in range(n))

    def l1_norm(self) -> int:
        return sum(sum(row) for row in self.entries)


@dataclass(frozen=True)
class GrowthType:
    """|phi^n(a)| ~ c * n^degree * rate^n, ordered lexicographically."""

    rate: float
    degree: int

    def sort_key(self) -> tuple[float, int]:
        return (self.rate, self.degree)


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
        """
        max_reach: list[float | None] = [None] * len(self.components)

        def reach(ci: int) -> float:
            cached = max_reach[ci]
            if cached is not None:
                return cached
            best = self.radii[ci]
            for cj in self.condensation[ci]:
                best = max(best, reach(cj))
            max_reach[ci] = best
            return best

        path_counts: dict[tuple[int, float], int] = {}

        def count_on_path(ci: int, rate: float) -> int:
            key = (ci, rate)
            if key in path_counts:
                return path_counts[key]
            own = 1 if abs(self.radii[ci] - rate) <= RATE_TOL else 0
            below = max(
                (count_on_path(cj, rate) for cj in self.condensation[ci]), default=0
            )
            path_counts[key] = own + below
            return own + below

        out = []
        for a, ci in enumerate(self.component_of):
            if a in erasing:
                out.append(GrowthType(0.0, 1))
                continue
            rate = reach(ci)
            out.append(GrowthType(rate, count_on_path(ci, rate) - 1))
        return out


def _tarjan(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Iterative Tarjan; components come out in reverse topological order."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for next_i in range(pi, len(succ[v])):
                w = succ[v][next_i]
                if index[w] == -1:
                    work[-1] = (v, next_i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(sorted(comp))
    return components


def spectral_radius(m: CountMatrix) -> float:
    """Perron root of an irreducible (or 1x1) nonnegative integer matrix.

    Power iteration runs on M + I, which is primitive whenever M is
    irreducible (positive diagonal kills periodicity), and the Collatz-
    Wielandt ratio bounds bracket the eigenvalue; we subtract the shift
    at the end.  Absolute accuracy RADIUS_TOL.
    """
    n = m.order
    if n == 0:
        return 0.0
    if n == 1:
        return float(m.entries[0][0])
    shifted = [[float(m.entries[i][j]) + (1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
    v = [1.0] * n
    for _ in range(_POWER_ITERATION_CAP):
        y = [sum(shifted[i][j] * v[j] for j in range(n)) for i in range(n)]
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
    """SCC condensation of the growth digraph with one radius per component."""
    n = m.order
    succ = [[b for b in range(n) if m.entries[b][a] > 0] for a in range(n)]
    components = _tarjan(succ)
    comp_of = [0] * n
    for ci, comp in enumerate(components):
        for v in comp:
            comp_of[v] = ci
    cond_edges: list[set[int]] = [set() for _ in components]
    for a in range(n):
        for b in succ[a]:
            if comp_of[a] != comp_of[b]:
                cond_edges[comp_of[a]].add(comp_of[b])
    radii = []
    for comp in components:
        block = CountMatrix.from_rows(
            [[m.entries[i][j] for j in comp] for i in comp]
        )
        radii.append(spectral_radius(block))
    return ComponentDecomposition(
        components=tuple(tuple(c) for c in components),
        component_of=tuple(comp_of),
        condensation=tuple(tuple(sorted(e)) for e in cond_edges),
        radii=tuple(radii),
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


def characteristic_polynomial(m: CountMatrix) -> tuple[int, ...]:
    """Exact integer coefficients (monic, descending powers) of det(tI - M).

    Faddeev-LeVerrier over Python integers; every interior division is
    checked to be exact, so the result is reliable for any order.
    """
    n = m.order
    if n == 0:
        return (1,)
    a = [list(row) for row in m.entries]
    coeffs = [1]
    work = [row[:] for row in a]  # M_1 = A
    for step in range(1, n + 1):
        trace = sum(work[i][i] for i in range(n))
        if trace % step != 0:
            raise InternalError("Faddeev-LeVerrier produced a non-exact division")
        c = -(trace // step)
        coeffs.append(c)
        if step == n:
            break
        for i in range(n):
            work[i][i] += c
        work = [
            [sum(a[i][t] * work[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return tuple(coeffs)


def polynomial_text(coeffs: Sequence[int], var: str = "t") -> str:
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
            body = f"{head}{var}" if p == 1 else f"{head}{var}^{p}"
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
