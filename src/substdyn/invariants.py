"""Headline invariants of a primitive constant-length substitution system.

The amorphic complexity ``log k / (log k - log lambda_s)``, the verdicts of
the report, the nonconstant column counts d_m on the column-set graph, the
kernel monoid of iterated column maps, a synthesizer hitting any target
complexity ``n log k / (n log k - log l)``, and a witness search, one
numpy pass per gap set, that can certify a prefix is not null.

The verdicts are exact tests on the pair substitution of the pure base.
The system is finite iff every pair is erasing.  Its spectrum is discrete
iff every pair reaches a pair whose images agree somewhere (Dekking's
coincidence condition): the columns leading there merge the pair, so any
column set of two letters or more shrinks, down to a constant column.
The graph condition, lambda_s <= 1, holds iff each strongly connected
component of the pair digraph is one pair with no self-loop or a simple
cycle, since an irreducible nonnegative integer matrix has radius 1 only
when it is a cyclic permutation matrix.  By the paper's theorem the system
is null and tame iff ac is 0 or 1, that is again iff lambda_s <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import matrices
from .core import (
    Alphabet,
    Substitution,
    Word,
    _column_set_closure,
    require_primitive,
)
from .discrepancy import DiscrepancyAnalysis, analyze_pairs, pair_rules
from .errors import InternalError, PreconditionError, ResourceLimitError
from .matrices import RATE_TOL
from .structure import _dekking_height, pure_base

#: Fixed seed for every randomized routine (a 64-bit mixing constant).
DEFAULT_SEED = 0x9E3779B97F4A7C15

_M_MAX_CAP = 64


def _require(subst: Substitution, op: str) -> None:
    if subst.length_k < 2:
        raise PreconditionError(f"{op} requires length k >= 2")
    require_primitive(subst, op)


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
    lambda_s_polynomial: str  # mu of 1 under the critical pair block; lambda_s is a root
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
        # shallow on purpose: json.dumps writes the tuple fields as lists
        out = dict(vars(self))
        out["ac"] = "infinity" if math.isinf(self.ac) else self.ac
        return out


def _ac_from_rate(rate: float, k: int) -> float:
    if rate <= RATE_TOL:
        return 0.0
    if rate >= k - RATE_TOL:
        return math.inf
    return math.log(k) / (math.log(k) - math.log(rate))


def amorphic_complexity(
    subst: Substitution, analysis: DiscrepancyAnalysis | None = None
) -> float:
    """log k / (log k - log lambda_s); 0 when finite, inf when lambda_s = k.

    ``analysis`` is ``analyze_pairs(subst)`` when the caller already has it.
    """
    if analysis is None:
        _require(subst, "amorphic_complexity")
        analysis = analyze_pairs(subst)
    elif subst.length_k < 2:
        # analyze_pairs has checked primitivity; only the length is left to check
        raise PreconditionError("amorphic_complexity requires length k >= 2")
    return _ac_from_rate(analysis.rate_type.rate, subst.length_k)


def classify(subst: Substitution) -> AnalysisReport:
    """Full analysis with every internal consistency check turned on."""
    return classify_analysis(analyze_pairs(subst))


def classify_analysis(analysis: DiscrepancyAnalysis) -> AnalysisReport:
    """The report of :func:`classify` from the caller's ``analyze_pairs`` result.

    The verdicts are decided on ``analysis.pairs``; see the module docstring.
    """
    pure = analysis.pure
    subst = pure.original
    k = subst.length_k
    # pure_base has checked primitivity; only the length is left to check
    if k < 2:
        raise PreconditionError("classify requires length k >= 2")
    letters = pure.pure_base.alphabet.letters

    rate = analysis.rate_type.rate
    d_s = analysis.rate_type.degree
    ac = _ac_from_rate(rate, k)

    pairs = analysis.pairs
    finite = len(pairs.erasing) == len(pairs.pair_alphabet)
    if finite != (rate <= RATE_TOL):
        raise InternalError(
            f"finiteness disagreement: rate {rate}, but {len(pairs.erasing)} "
            f"of {len(pairs.pair_alphabet)} pairs are erasing"
        )
    graph_ok = pairs.rate_at_most_one

    poly = matrices.minimal_polynomial(analysis.critical)
    snapped: int | None = None
    nearest = round(rate)
    if abs(rate - nearest) <= 1e-6 and matrices.evaluate_polynomial(poly, nearest) == 0:
        snapped = int(nearest)

    # At height h > 1, letters of different Dekking classes c (mod h) have
    # images that differ everywhere: c(phi(a)_j) - c(phi(b)_j) = k (c(a) - c(b))
    # and gcd(k, h) = 1.  Those pairs form a closed block of the raw pair
    # matrix whose columns all sum to k, the most any column can sum to, so
    # the raw pair rate is exactly k (Dekking 1978).
    unpurified = float(k) if pure.height_h > 1 else None

    mef = "finite cyclic" if finite else f"Z_{k} x Z/{pure.height_h}Z"

    report = AnalysisReport(
        alphabet=subst.alphabet.letters,
        length_k=k,
        primitive=True,
        height_h=pure.height_h,
        pure_base_rules=tuple(pure.pure_base.rule_strings()),
        discrepancy_rules=tuple(analysis.pairs.rule_strings(letters)),
        lambda_s=rate,
        lambda_s_polynomial=matrices.polynomial_text(poly),
        lambda_s_integer=snapped,
        d_s=d_s,
        ac=ac,
        finite_system=finite,
        discrete_spectrum=pairs.coincidence(k),
        null_and_tame=graph_ok,
        graph_condition=graph_ok,
        mef=mef,
        maximal_pairs=tuple(p.name(letters) for p in analysis.maximal),
        unpurified_rate=unpurified,
    )
    _assert_report_consistency(report)
    return report


def _assert_report_consistency(r: AnalysisReport) -> None:
    checks = [
        ((r.ac == 0.0) == r.finite_system, "ac = 0 iff finite"),
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
# Kernel monoid
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KernelDescriptor:
    """The monoid of iterated column maps with a shortest word per element.

    Row i of ``elements`` is a column map, indexed by letter; row 0 is the
    identity.  Row i > 0 is phi_r . (row p) for r = ``generator[i]`` and p =
    ``parent[i]`` < i (both -1 at row 0), so its word, outermost generator
    first, is r followed by the word of p; rows are listed by word length,
    then by parent, then by r.  Word (r0, r1, ..) means phi_r0 . phi_r1 . ..
    and is column r0 + r1*k + r2*k^2 + ... of the matching power.
    ``constant`` flags the constant maps.  The kernel of the fixed point x
    is exactly {tau(x) : tau in the monoid}, so elements double as sequence
    labels.
    """

    alphabet: Alphabet
    elements: np.ndarray
    parent: np.ndarray
    generator: np.ndarray
    constant: np.ndarray


#: Most elements :func:`kernel_monoid` may enumerate.  The monoid can reach
#: |A|^|A| column maps (46,656 on six letters, 10^10 on ten); up to 7
#: letters every one of them fits, so only a wider alphabet can exceed it.
KERNEL_BUDGET = 1 << 20

# Children gathered at once: bounds the temporary arrays of a wide level.
_GATHER_ROWS = 1 << 12


def kernel_monoid(subst: Substitution) -> KernelDescriptor:
    """Closure of {id} under composition with the k column maps.

    The closure is breadth first, one level at a time: level L holds the
    elements whose shortest word has L letters.  One numpy gather applies
    all k generators to the frontier; child q*k + r is phi_r . (frontier
    element q).  A child is kept the first time its map is seen, and only
    its parent and generator are recorded.  So elements are listed by word
    length, then by parent, then by generator, and the words the links
    spell are shortest ones.  A wide frontier is gathered a block of
    parents at a time, about ``_GATHER_ROWS`` children per block.

    When every map on the alphabet fits the budget, |A|^|A| <=
    ``KERNEL_BUDGET`` (up to 7 letters), map tau has the code sum_a
    tau(a) |A|^a, and one gather on a flag array of |A|^|A| bytes picks a
    block's unseen children; a stable sort of those few codes keeps each
    one's first occurrence.  The monoid then has at most |A|^|A| elements,
    so the budget cannot be exceeded.  On a wider alphabet each child row
    is read as one bytes key and looked up in a set, and the closure
    raises ResourceLimitError as soon as a block takes it past
    ``KERNEL_BUDGET`` elements.  The path is chosen from the budget at
    call time.
    """
    _require(subst, "kernel_monoid")
    if _dekking_height(subst) != 1:
        raise PreconditionError("kernel_monoid requires height 1; purify first")
    size, k = subst.alphabet.size, subst.length_k
    letter = np.min_scalar_type(size - 1)  # uint8 up to 256 letters
    flat = np.array(subst.columns(), dtype=letter).ravel()  # phi_r(a) at r*size + a
    offset = np.arange(0, k * size, size)[:, None]
    frontier = np.arange(size, dtype=letter)[None]
    direct = size**size <= KERNEL_BUDGET
    if direct:
        weight = size ** np.arange(size, dtype=np.int64)
        seen = np.zeros(size**size, dtype=bool)
        seen[sum(a * size**a for a in range(size))] = True  # the identity
    else:
        key = np.dtype(f"V{size * letter.itemsize}")  # a row read as one bytes key
        keys = {frontier.tobytes()}
    levels = [frontier]
    links = [np.array([-1])]  # parent * k + generator of each element
    first = 0  # index of the frontier's first element
    parents = max(1, _GATHER_ROWS // k)
    while len(frontier):
        level = []
        for lo in range(0, len(frontier), parents):
            # row q*k + r is phi_r . (frontier row lo + q), laid out as view(key) needs
            children = flat.take(frontier[lo:lo + parents, None] + offset).reshape(-1, size)
            if direct:
                code = children @ weight
                kept = (~seen[code]).nonzero()[0]
                if len(kept) > 1:
                    # a stable sort puts each code's first child in the block
                    # first; the others, equal to the code before, are dropped
                    order = code[kept].argsort(kind="stable")
                    ranked = code[kept[order]]
                    lead = np.ones(len(kept), dtype=bool)
                    lead[order[1:][ranked[1:] == ranked[:-1]]] = False
                    kept = kept[lead]
                seen[code[kept]] = True
            else:
                rows = children.view(key).ravel().tolist()
                kept = [i for i, c in enumerate(rows) if c not in keys and not keys.add(c)]
                kept = np.array(kept, dtype=np.intp)
                if len(keys) > KERNEL_BUDGET:
                    raise ResourceLimitError(
                        f"kernel_monoid: more than {KERNEL_BUDGET} elements on "
                        f"{size} letters with k = {k}"
                    )
            # child i has parent first + lo + i // k and generator i % k
            links.append(kept + (first + lo) * k)
            level.append(children.take(kept, 0))
        first += len(frontier)
        frontier = np.concatenate(level)
        levels.append(frontier)
    elements = np.concatenate(levels)
    parent, generator = np.divmod(np.concatenate(links), k)
    generator[0] = -1
    constant = (elements == elements[:, :1]).all(axis=1)
    return KernelDescriptor(subst.alphabet, elements, parent, generator, constant)


# ---------------------------------------------------------------------------
# Graph condition and nonconstant column counts
# ---------------------------------------------------------------------------


def graph_condition(subst: Substitution) -> bool:
    """True iff no two distinct cycles of pair-preserving edges share a vertex.

    On the column-set graph this says that pair counts cannot multiply,
    that is lambda_s <= 1; it is decided on the pair matrix of the pure
    base, whose radius is at most 1 iff its strongly connected components
    are single pairs with no self-loop or simple cycles (module docstring).
    """
    _require(subst, "graph_condition")
    return pair_rules(pure_base(subst).pure_base).rate_at_most_one


def check_m_max(m_max: int) -> None:
    """Refuse an m_max that nonconstant_counts cannot take."""
    if m_max < 0:
        raise PreconditionError(f"m_max must be nonnegative, got {m_max}")
    if m_max > _M_MAX_CAP:
        raise ResourceLimitError(f"m_max {m_max} exceeds the cap of {_M_MAX_CAP}")


def nonconstant_counts(pure: Substitution, m_max: int) -> list[int]:
    """Exact number d_m of nonconstant column maps of phi^m, m = 0..m_max.

    For a pure base and an m_max the caller has checked.  Each column of
    phi^m composes m generator columns, and the image of the alphabet under
    it is the column set its path from the full alphabet ends at, so the
    column is nonconstant iff that set has two letters or more.  Counts are
    pushed along the k images of each set, one integer per set, so the k^m
    columns are never materialized.  Sets of one letter map onto sets of
    one letter, so only the counts on wider sets are pushed.
    """
    sets, targets = _column_set_closure(pure)
    wide = {i: j for j, i in enumerate(i for i, s in enumerate(sets) if len(s) >= 2)}
    rows = [[wide[t] for t in targets[i] if t in wide] for i in wide]
    counts = [int(i == 0) for i in wide]  # the identity, phi^0's column, maps onto A
    out = []
    for _ in range(m_max + 1):
        out.append(sum(counts))
        nxt = [0] * len(counts)
        for count, row in zip(counts, rows):
            if count:
                for target in row:
                    nxt[target] += count
        counts = nxt
    return out


def nonconstant_ap_counts(subst: Substitution, m_max: int) -> list[int]:
    """Exact number of nonconstant column maps of phi^m for m = 0..m_max;
    see :func:`nonconstant_counts`."""
    check_m_max(m_max)
    _require(subst, "nonconstant_ap_counts")
    if _dekking_height(subst) != 1:
        raise PreconditionError("nonconstant_ap_counts requires height 1; purify first")
    return nonconstant_counts(subst, m_max)


# ---------------------------------------------------------------------------
# Denseness synthesizer
# ---------------------------------------------------------------------------


#: Longest rule length k^n that :func:`synthesize_target_ac` builds.  At
#: 2^22 symbols its two rules, self-check and spec text take about 140 MB
#: and 2-4 s, and each doubling of k^n about doubles both.
SYNTH_BUDGET = 1 << 22


def synthesize_target_ac(k: int, n: int, l: int) -> Substitution:
    """A two-letter substitution of length k^n with ac = n log k/(n log k - log l).

    The first l columns swap the letters (so one distinct pair survives l
    times per step and lambda_s = l exactly); the remaining columns are
    constants arranged so both letters occur in both images whenever
    possible.  The result is primitive, of height 1, and its pair analysis
    is checked before it is returned.  A rule length k^n over
    ``SYNTH_BUDGET`` raises ResourceLimitError before anything is built.
    """
    if k < 2 or n < 1:
        raise PreconditionError("synthesize_target_ac needs k >= 2 and n >= 1")
    # k^n >= 2^n, so a large n is refused before k^n is computed
    if n >= SYNTH_BUDGET.bit_length() or k**n > SYNTH_BUDGET:
        raise ResourceLimitError(
            f"synthesize_target_ac: rule length {k}^{n} exceeds the "
            f"{SYNTH_BUDGET}-symbol budget"
        )
    length = k**n
    if not 1 <= l < length:
        raise PreconditionError("synthesize_target_ac needs 1 <= l < k^n")
    tail = (0, 1) + (0,) * (length - l - 2) if length - l >= 2 else (0,)
    result = Substitution(Alphabet(("0", "1")), ((1,) * l + tail, (0,) * l + tail))

    # analyze_pairs refuses a non-primitive result; it builds no rule strings
    analysis = analyze_pairs(result)
    ac = amorphic_complexity(result, analysis)
    target = (n * math.log(k)) / (n * math.log(k) - math.log(l))
    ok = (
        analysis.pure.height_h == 1
        and abs(analysis.rate_type.rate - l) <= 1e-6
        and abs(ac - target) <= 1e-9 * max(1.0, target)
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


def check_witness_search(t: int, window: int) -> None:
    """Refuse a (t, window) that null_witness_search cannot take."""
    if t < 1:
        raise PreconditionError("t must be at least 1")
    if window < t:
        raise PreconditionError(f"window {window} cannot hold {t} positions")
    if t > 3 or window > 32:
        raise ResourceLimitError("witness search budget: t <= 3 and window <= 32")


def null_witness_search(
    prefix: Word, t: int, window: int
) -> NullnessWitness | None:
    """First (G, a, b) with {a,b}^t contained in the patterns of x along G.

    G runs over t-subsets of [0, window) in lexicographic order, letter
    pairs in lexicographic order; the window must hold t positions.  A
    witness proves the prefix is not t-null; ``None`` is only evidence,
    limited by prefix and window.  Per pair, the starts whose t letters
    along G are all a or b must give all 2^t codes (b is a 1 bit).  Only
    the C(window - 1, t - 1) sets with 0 in G are tried: G - min(G) sees
    every pattern that G sees, at starts min(G) later, and precedes G, so
    the first witness always starts at 0.
    """
    check_witness_search(t, window)
    if len(prefix) < 4 * window:
        raise PreconditionError("prefix must be at least 4x the window")
    x = np.asarray(prefix)
    letters = np.unique(x).tolist()
    weights = 1 << np.arange(t - 1, -1, -1)
    for rest in combinations(range(1, window), t - 1):
        gaps = (0, *rest)
        cols = np.stack([x[g : len(x) - gaps[-1] + g] for g in gaps])
        for a, b in combinations(letters, 2):
            ab = cols[:, ((cols == a) | (cols == b)).all(axis=0)]
            if np.bincount(weights @ (ab == b), minlength=1 << t).all():
                return NullnessWitness(gaps=gaps, letters=(a, b))
    return None
