"""Headline invariants of a primitive constant-length substitution system.

This module turns the pair-growth data into the quantities one actually
quotes about the system: the amorphic complexity ``log k / (log k - log
lambda_s)``, finiteness and discrete-spectrum verdicts, nullness/tameness,
the kernel monoid of iterated column maps with its exact nonconstant
column counts, the column-set graph criterion for ``lambda_s <= 1``, a
synthesizer hitting any target complexity of the form ``n log k / (n log
k - log l)``, and a brute-force witness search that can certify a prefix
is not null.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

from . import matrices
from .core import (
    Alphabet,
    ColumnFamily,
    ColumnMap,
    Substitution,
    Word,
    column_sets,
    is_primitive,
)
from .discrepancy import DiscrepancyAnalysis, analyze_pairs, pair_rules
from .errors import InternalError, PreconditionError, ResourceLimitError
from .matrices import RATE_TOL
from .structure import height, pure_base

#: Fixed seed for every randomized routine (a 64-bit mixing constant).
DEFAULT_SEED = 0x9E3779B97F4A7C15

_M_MAX_CAP = 64


def _require(subst: Substitution, op: str) -> None:
    if subst.length_k < 2:
        raise PreconditionError(f"{op} requires length k >= 2")
    if not is_primitive(subst):
        raise PreconditionError(f"{op} requires a primitive substitution")


# ---------------------------------------------------------------------------
# Amorphic complexity and the full report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analyzer can say about one substitution."""

    alphabet: tuple[str, ...]
    length_k: int
    primitive: bool
    height_h: int
    pure_base_rules: tuple[str, ...]
    discrepancy_rules: tuple[str, ...]
    lambda_s: float
    lambda_s_polynomial: str
    lambda_s_integer: int | None
    d_s: int
    ac: float  # 0, a finite value >= 1, or math.inf
    finite_system: bool
    discrete_spectrum: bool
    null_and_tame: bool
    graph_condition: bool
    mef: str
    maximal_pairs: tuple[str, ...]
    unpurified_rate: float | None

    def to_dict(self) -> dict:
        return {
            "alphabet": list(self.alphabet),
            "length_k": self.length_k,
            "primitive": self.primitive,
            "height_h": self.height_h,
            "pure_base_rules": list(self.pure_base_rules),
            "discrepancy_rules": list(self.discrepancy_rules),
            "lambda_s": self.lambda_s,
            "lambda_s_polynomial": self.lambda_s_polynomial,
            "lambda_s_integer": self.lambda_s_integer,
            "d_s": self.d_s,
            "ac": "infinity" if math.isinf(self.ac) else self.ac,
            "finite_system": self.finite_system,
            "discrete_spectrum": self.discrete_spectrum,
            "null_and_tame": self.null_and_tame,
            "graph_condition": self.graph_condition,
            "mef": self.mef,
            "maximal_pairs": list(self.maximal_pairs),
            "unpurified_rate": self.unpurified_rate,
        }


def _ac_from_rate(rate: float, k: int) -> float:
    if rate <= RATE_TOL:
        return 0.0
    if rate >= k - RATE_TOL:
        return math.inf
    return math.log(k) / (math.log(k) - math.log(rate))


def amorphic_complexity(subst: Substitution) -> float:
    """log k / (log k - log lambda_s); 0 when finite, inf when lambda_s = k."""
    _require(subst, "amorphic_complexity")
    analysis = analyze_pairs(subst)
    return _ac_from_rate(analysis.rate_type.rate_lambda_s, subst.length_k)


def _all_images_coincide(pure: Substitution) -> bool:
    # Direct route to finiteness, independent of the pair incidence matrix:
    # phi^n(a) = phi^n(b) iff the images of corresponding letters agree at
    # level n-1, so equality propagates as a monotone fixpoint over pairs.
    # If all pairs coincide at all, they do within #pairs steps.
    size = pure.alphabet.size
    pairs = list(combinations(range(size), 2))
    if not pairs:
        return True
    eq = {p: False for p in pairs}
    for _ in range(len(pairs) + 1):
        nxt = {}
        for a, b in pairs:
            nxt[(a, b)] = all(
                x == y or eq[(min(x, y), max(x, y))]
                for x, y in zip(pure.rules[a], pure.rules[b])
            )
        if nxt == eq:
            break
        eq = nxt
    return all(eq.values())


def classify(subst: Substitution) -> AnalysisReport:
    """Full analysis with every internal consistency check turned on."""
    return classify_analysis(analyze_pairs(subst))


def classify_analysis(analysis: DiscrepancyAnalysis) -> AnalysisReport:
    """The report of :func:`classify` on an input ``analyze_pairs`` already ran on.

    Every stage reads ``analysis.pure``; one column-set family gives both
    the coincidence verdict and the graph condition.
    """
    pure = analysis.pure
    subst = pure.original
    _require(subst, "classify")
    k = subst.length_k
    letters = pure.pure_base.alphabet.letters

    rate = analysis.rate_type.rate_lambda_s
    d_s = analysis.rate_type.degree_d_s
    ac = _ac_from_rate(rate, k)

    finite_by_rate = rate <= RATE_TOL
    finite_direct = _all_images_coincide(pure.pure_base)
    if finite_by_rate != finite_direct:
        raise InternalError(
            "finiteness disagreement: rate says "
            f"{finite_by_rate}, direct image comparison says {finite_direct}"
        )
    finite = finite_by_rate

    family = column_sets(pure.pure_base)
    discrete = family.has_singleton
    graph_ok = ColumnSetGraph.build(pure.pure_base, family).condition_holds()
    null_tame = finite or abs(ac - 1.0) <= RATE_TOL

    snapped: int | None = None
    nearest = round(rate)
    if abs(rate - nearest) <= 1e-6 and matrices.evaluate_polynomial(
        analysis.critical_poly, nearest
    ) == 0:
        snapped = int(nearest)

    unpurified: float | None = None
    if pure.height_h > 1:  # then |A| >= h >= 2, so there are letter pairs
        raw = pair_rules(subst)
        growth = matrices.growth_types(raw.incidence(), raw.erasing)
        unpurified = matrices.max_growth_type(growth).rate

    mef = "finite cyclic" if finite else f"Z_{k} x Z/{pure.height_h}Z"

    report = AnalysisReport(
        alphabet=subst.alphabet.letters,
        length_k=k,
        primitive=True,
        height_h=pure.height_h,
        pure_base_rules=tuple(pure.pure_base.rule_strings()),
        discrepancy_rules=tuple(analysis.pairs.rule_strings(letters)),
        lambda_s=rate,
        lambda_s_polynomial=matrices.polynomial_text(analysis.critical_poly),
        lambda_s_integer=snapped,
        d_s=d_s,
        ac=ac,
        finite_system=finite,
        discrete_spectrum=discrete,
        null_and_tame=null_tame,
        graph_condition=graph_ok,
        mef=mef,
        maximal_pairs=tuple(p.name(letters) for p in analysis.maximal.pairs),
        unpurified_rate=unpurified,
    )
    _assert_report_consistency(report)
    return report


def _assert_report_consistency(r: AnalysisReport) -> None:
    checks = [
        ((r.ac == 0.0) == r.finite_system, "ac = 0 iff finite"),
        (r.finite_system == (r.lambda_s <= RATE_TOL), "finite iff lambda_s = 0"),
        (
            math.isinf(r.ac) == (r.lambda_s >= r.length_k - RATE_TOL),
            "ac = inf iff lambda_s = k",
        ),
        (math.isinf(r.ac) == (not r.discrete_spectrum), "ac = inf iff mixed spectrum"),
        (
            r.null_and_tame == (r.ac == 0.0 or abs(r.ac - 1.0) <= RATE_TOL),
            "null/tame iff ac in {0, 1}",
        ),
        (r.graph_condition == (r.lambda_s <= 1.0 + RATE_TOL), "graph iff lambda_s <= 1"),
    ]
    for ok, label in checks:
        if not ok:
            raise InternalError(f"report consistency violated: {label}")


# ---------------------------------------------------------------------------
# Kernel monoid and nonconstant column counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelDescriptor:
    """The monoid of iterated column maps together with shortest words.

    ``words[i]`` spells element i as a composition of generator columns,
    outermost generator first: word (r0, r1, ..) means phi_r0 . phi_r1 . ..
    and corresponds to column index r0 + r1*k + r2*k^2 + ... of the
    matching power.  ``successors[i][r]`` is the index of phi_r . element i.
    The kernel of the fixed point x is exactly {tau(x) : tau in the monoid},
    so elements double as sequence labels.
    """

    alphabet: Alphabet
    elements: tuple[ColumnMap, ...]
    words: tuple[tuple[int, ...], ...]
    constant_flags: tuple[bool, ...]
    successors: tuple[tuple[int, ...], ...]

    def element_strings(self) -> list[str]:
        out = []
        for tau, flag in zip(self.elements, self.constant_flags):
            if tau.mapping == tuple(range(len(tau.mapping))):
                out.append("id")
            elif flag:
                out.append(f"const {self.alphabet.letters[tau.mapping[0]]}")
            else:
                body = ", ".join(
                    f"{self.alphabet.letters[a]}->{self.alphabet.letters[b]}"
                    for a, b in enumerate(tau.mapping)
                )
                out.append(body)
        return out

    def nonconstant_counts(self, m_max: int) -> list[int]:
        """Exact number of nonconstant column maps of phi^m for m = 0..m_max.

        Counts are pushed through the monoid: the multiset of columns of
        phi^{m+1} is obtained from that of phi^m by composing every
        generator on the outside, so an integer count per monoid element
        suffices and k^m columns are never materialized.
        """
        if m_max < 0:
            raise ValueError("m_max must be nonnegative")
        if m_max > _M_MAX_CAP:
            raise ResourceLimitError(f"m_max {m_max} exceeds the cap of {_M_MAX_CAP}")
        counts = [0] * len(self.elements)
        counts[0] = 1  # the identity: the single column of phi^0
        out = []
        for _ in range(m_max + 1):
            out.append(
                sum(c for c, const in zip(counts, self.constant_flags) if not const)
            )
            nxt = [0] * len(self.elements)
            for i, c in enumerate(counts):
                if c:
                    for j in self.successors[i]:
                        nxt[j] += c
            counts = nxt
        return out


def kernel_monoid(subst: Substitution) -> KernelDescriptor:
    """Closure of {id} under composition with the k column maps."""
    _require(subst, "kernel_monoid")
    if height(subst) != 1:
        raise PreconditionError("kernel_monoid requires height 1; purify first")
    generators = subst.columns()
    identity = ColumnMap.identity(subst.alphabet.size)
    elements = [identity]
    words: list[tuple[int, ...]] = [()]
    successors: list[tuple[int, ...]] = []
    seen = {identity: 0}
    for cursor, tau in enumerate(elements):  # grows while it is read
        row = []
        for r, gen in enumerate(generators):
            child = gen.compose(tau)
            if child not in seen:
                seen[child] = len(elements)
                elements.append(child)
                # child = phi_r . tau: the new generator is outermost
                words.append((r,) + words[cursor])
            row.append(seen[child])
        successors.append(tuple(row))
    return KernelDescriptor(
        alphabet=subst.alphabet,
        elements=tuple(elements),
        words=tuple(words),
        constant_flags=tuple(tau.is_constant for tau in elements),
        successors=tuple(successors),
    )


def nonconstant_ap_counts(subst: Substitution, m_max: int) -> list[int]:
    """Exact number of nonconstant column maps of phi^m for m = 0..m_max;
    see :meth:`KernelDescriptor.nonconstant_counts`."""
    return kernel_monoid(subst).nonconstant_counts(m_max)


# ---------------------------------------------------------------------------
# Column-set graph condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnSetGraph:
    """Column sets of the pure base with one labeled edge per column map."""

    vertices: tuple[frozenset[int], ...]
    edges: tuple[tuple[int, int, int], ...]  # (source, label j, target)

    @staticmethod
    def build(pure: Substitution, family: ColumnFamily) -> "ColumnSetGraph":
        """The graph of a pure base on its column-set family."""
        position = {s: i for i, s in enumerate(family.sets)}
        cols = pure.columns()
        edges = [
            (i, j, position[col.image(s)])
            for i, s in enumerate(family.sets)
            for j, col in enumerate(cols)
        ]
        return ColumnSetGraph(vertices=family.sets, edges=tuple(edges))

    def condition_holds(self) -> bool:
        """The graph condition; see :func:`graph_condition`."""
        keep = [i for i, s in enumerate(self.vertices) if len(s) >= 2]
        keep_pos = {v: i for i, v in enumerate(keep)}
        labeled: list[list[int]] = [[] for _ in keep]
        for source, _label, target in self.edges:
            if source in keep_pos and target in keep_pos:
                labeled[keep_pos[source]].append(keep_pos[target])
        succ = [sorted(set(ts)) for ts in labeled]
        components = matrices._tarjan(succ)
        comp_of = {}
        for ci, comp in enumerate(components):
            for v in comp:
                comp_of[v] = ci
        for ci, comp in enumerate(components):
            # internal labeled out-degree of each vertex of the piece
            degrees = [sum(1 for t in labeled[v] if comp_of[t] == ci) for v in comp]
            if any(degrees) and any(d != 1 for d in degrees):
                return False
        return True


def column_set_graph(subst: Substitution) -> ColumnSetGraph:
    _require(subst, "column_set_graph")
    pure = pure_base(subst).pure_base
    return ColumnSetGraph.build(pure, column_sets(pure))


def graph_condition(subst: Substitution) -> bool:
    """True iff no two distinct cycles of pair-preserving edges share a vertex.

    Only column sets of size >= 2 can carry a pair of distinct letters, so
    the check runs on those vertices with the labeled edges whose target
    also has size >= 2.  Each strongly connected piece that has any such
    internal edge must be a simple cycle: every vertex exactly one internal
    labeled edge out.  This is exactly when pair counts cannot multiply,
    i.e. when lambda_s <= 1.
    """
    return column_set_graph(subst).condition_holds()


# ---------------------------------------------------------------------------
# Denseness synthesizer
# ---------------------------------------------------------------------------


def synthesize_target_ac(k: int, n: int, l: int) -> Substitution:
    """A two-letter substitution of length k^n with ac = n log k/(n log k - log l).

    The first l columns swap the letters (so one distinct pair survives l
    times per step and lambda_s = l exactly); the remaining columns are
    constants arranged so both letters occur in both images whenever
    possible.  The result is primitive, of height 1, and is re-analyzed
    before being returned.
    """
    if k < 2 or n < 1:
        raise PreconditionError("synthesize_target_ac needs k >= 2 and n >= 1")
    length = k**n
    if not 1 <= l < length:
        raise PreconditionError("synthesize_target_ac needs 1 <= l < k^n")
    zero_img = [1] * l
    one_img = [0] * l
    if length - l >= 2:
        zero_img += [0, 1] + [0] * (length - l - 2)
        one_img += [0, 1] + [0] * (length - l - 2)
    else:
        zero_img += [0]
        one_img += [0]
    result = Substitution(Alphabet(("0", "1")), (tuple(zero_img), tuple(one_img)))

    report = classify(result)
    target = (n * math.log(k)) / (n * math.log(k) - math.log(l))
    ok = (
        report.primitive
        and report.height_h == 1
        and abs(report.lambda_s - l) <= 1e-6
        and abs(report.ac - target) <= 1e-9 * max(1.0, target)
    )
    if not ok:
        raise InternalError(
            f"synthesized substitution failed self-verification for (k={k}, n={n}, l={l})"
        )
    return result


# ---------------------------------------------------------------------------
# Nullness witness search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NullnessWitness:
    """Positions G and letters a, b with every {a,b}-word realized along G."""

    gaps: tuple[int, ...]
    letters: tuple[int, int]


def null_witness_search(
    prefix: Word, t: int, window: int
) -> NullnessWitness | None:
    """First (G, a, b) with {a,b}^t contained in the patterns of x along G.

    G runs over t-subsets of [0, window) in lexicographic order, letter
    pairs in lexicographic order.  A witness proves the prefix is not
    t-null; ``None`` is only evidence, limited by prefix and window.
    """
    if t < 1:
        raise PreconditionError("t must be at least 1")
    if t > 3 or window > 32:
        raise ResourceLimitError("witness search budget: t <= 3 and window <= 32")
    if len(prefix) < 4 * window:
        raise PreconditionError("prefix must be at least 4x the window")
    letters = sorted(set(prefix))
    want = 1 << t
    for gaps in combinations(range(window), t):
        reach = gaps[-1]
        patterns = set()
        for s in range(len(prefix) - reach):
            patterns.add(tuple(prefix[s + g] for g in gaps))
        for a, b in combinations(letters, 2):
            seen = 0
            for pattern in patterns:
                if all(v in (a, b) for v in pattern):
                    code = 0
                    for v in pattern:
                        code = (code << 1) | (1 if v == b else 0)
                    seen |= 1 << code
            if seen == (1 << want) - 1:
                return NullnessWitness(gaps=gaps, letters=(a, b))
    return None


# ---------------------------------------------------------------------------
# Randomized cross-validation support
# ---------------------------------------------------------------------------


def random_primitive_substitution(
    rng: random.Random, max_letters: int = 4, max_k: int = 4
) -> Substitution:
    """Rejection-sample a primitive substitution with |A| and k in [2, max].

    Draws with a periodic fixed point, whose block substitution is not
    primitive, are rejected as well, so every returned substitution has a
    pure base and can be analyzed.
    """
    letter_pool = "abcdefgh"
    while True:
        size = rng.randint(2, max_letters)
        k = rng.randint(2, max_k)
        alphabet = Alphabet(tuple(letter_pool[:size]))
        rules = tuple(
            tuple(rng.randrange(size) for _ in range(k)) for _ in range(size)
        )
        candidate = Substitution(alphabet, rules)
        if not is_primitive(candidate):
            continue
        try:
            pure_base(candidate)
        except PreconditionError:
            continue
        return candidate
