"""Layer-by-layer replay of an op's pipeline, one span per public call.

Each op's input goes through the public functions of every layer its
command uses, in pipeline order, and counts are read off what each call
returns.  Layers that none of a workload's commands reach are replayed at
their smallest size on the workload's first few inputs, so that every
per-layer metric exists on every workload; the notes say which workload's
reading each metric is meant for.
"""

from __future__ import annotations

from substdyn import core, discrepancy, empirical, invariants, matrices, structure
from substdyn.cli import parse_spec
from substdyn.errors import EstimationError, PreconditionError

from spans import Tracer

#: Calls of the stage groups that only some commands reach; every command
#: purifies, and all but ``kernel`` and ``synthesize`` build the pair matrix.
GROUP_CALLS = {
    "report": ("core.column_sets", "invariants.graph_condition", "invariants.classify"),
    "kernel": ("invariants.kernel_monoid", "invariants.nonconstant_ap_counts"),
    "synth": ("invariants.synthesize_target_ac",),
    "empirical": ("empirical.separation_profile", "empirical.fit_slope",
                  "empirical.lipschitz_ratio_probe"),
}
#: The group each command reaches.
COMMAND_GROUP = {
    "analyze": "report",
    "kernel": "kernel",
    "synthesize": "synth",
    "verify": "empirical",
}
#: How many spec inputs the off-path replay uses.
OFF_PATH_INPUTS = 4


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_spec(fh.read(), source_name=path).substitution


def _purify(t: Tracer, op_id: str, subst):
    t.call("core.is_primitive", op_id, core.is_primitive, subst)
    t.call("structure.height", op_id, structure.height, subst)
    pure = t.call("structure.pure_base", op_id, structure.pure_base, subst)
    t.note(blocks=pure.pure_base.alphabet.size)
    return pure.pure_base


def _exact(t: Tracer, op_id: str, subst, prefix_symbols: int):
    pure = _purify(t, op_id, subst)
    prefix = t.call("core.fixed_point_prefix", op_id, core.fixed_point_prefix,
                    subst, prefix_symbols)
    t.note(symbols=len(prefix))
    pairs = t.call("discrepancy.pair_rules", op_id, discrepancy.pair_rules, pure)
    t.note(pairs=len(pairs.pair_alphabet))
    if pairs.pair_alphabet:
        m = pairs.incidence()
        dec = t.call("matrices.decompose", op_id, matrices.decompose, m)
        t.note(components=len(dec.components),
               max_order=max(len(c) for c in dec.components))
        growth = t.call("matrices.growth_types", op_id, matrices.growth_types,
                        m, pairs.erasing)
        rate = matrices.max_growth_type(growth).rate
        for comp, radius in zip(dec.components, dec.radii):
            if abs(radius - rate) <= matrices.RATE_TOL:
                block = matrices.CountMatrix.from_rows(
                    [[m.entries[i][j] for j in comp] for i in comp])
                t.call("matrices.characteristic_polynomial", op_id,
                       matrices.characteristic_polynomial, block)
                t.note(order=block.order)
                break
    t.call("discrepancy.analyze_pairs", op_id, discrepancy.analyze_pairs, subst)
    return pure


def _report(t: Tracer, op_id: str, subst, pure, m_max):
    family = t.call("core.column_sets", op_id, core.column_sets, pure)
    t.note(size=len(family))
    t.call("invariants.graph_condition", op_id, invariants.graph_condition, subst)
    t.call("invariants.classify", op_id, invariants.classify, subst)
    if m_max is not None:
        t.call("invariants.nonconstant_ap_counts", op_id,
               invariants.nonconstant_ap_counts, pure, m_max)


def _kernel(t: Tracer, op_id: str, pure, m_max: int):
    monoid = t.call("invariants.kernel_monoid", op_id, invariants.kernel_monoid, pure)
    t.note(size=len(monoid.elements))
    t.call("invariants.nonconstant_ap_counts", op_id,
           invariants.nonconstant_ap_counts, pure, m_max)


def _empirical(t: Tracer, op_id: str, subst, points, window, **probe):
    profile = t.call("empirical.separation_profile", op_id,
                     empirical.separation_profile, subst, points, window)
    t.note(comparisons=points * points * window,
           saturated=sum(c >= points for c in profile.counts))
    with t.span("empirical.fit_slope", op_id) as span:
        try:
            empirical.fit_slope(profile)
        except EstimationError:
            pass
    lo, hi = profile.fit_range or (0, -1)
    span["counts"]["points"] = hi - lo + 1
    ac = t.call("invariants.amorphic_complexity", op_id,
                invariants.amorphic_complexity, subst)
    if 0 < ac < float("inf"):
        with t.span("empirical.lipschitz_ratio_probe", op_id):
            try:
                empirical.lipschitz_ratio_probe(subst, **probe)
            except PreconditionError:  # includes EstimationError
                pass


def replay_op(t: Tracer, op) -> None:
    """Replay one op; a stage that raises ends the op's replay there."""
    r = op.replay
    with t.span("replay", op.op_id):
        if op.command == "synthesize":
            t.call("invariants.synthesize_target_ac", op.op_id,
                   invariants.synthesize_target_ac, r["k"], r["n"], r["l"])
            return
        subst = load(op.spec)
        if op.command == "kernel":
            _kernel(t, op.op_id, _purify(t, op.op_id, subst), r["m_max"])
            return
        if op.command == "verify":
            _exact(t, op.op_id, subst, r["points"] + r["window"])
            _empirical(t, op.op_id, subst, r["points"], r["window"], seed=r["seed"])
            return
        pure = _exact(t, op.op_id, subst, subst.length_k**2)
        _report(t, op.op_id, subst, pure, r["m_max"])


def _unused_groups(ops) -> set[str]:
    return set(GROUP_CALLS) - {COMMAND_GROUP[op.command] for op in ops}


def off_path_calls(ops) -> set[str]:
    """Replayed calls that none of the workload's commands make."""
    return {call for g in _unused_groups(ops) for call in GROUP_CALLS[g]}


def replay_off_path(t: Tracer, ops, m_max: int) -> None:
    """Smallest-size replay of the stage groups no op of the workload runs."""
    unused = _unused_groups(ops)
    specs = list(dict.fromkeys(op.spec for op in ops if op.spec))[:OFF_PATH_INPUTS]
    for path in specs:
        op_id = f"off_path:{path}"
        with t.span("replay", op_id):
            subst = load(path)
            if "report" in unused:
                # as an analyze op would, so the redundancy ratio has its base
                _report(t, op_id, subst, _exact(t, op_id, subst, subst.length_k**2), m_max)
            if "kernel" in unused:
                _kernel(t, op_id, structure.pure_base(subst).pure_base, m_max)
            if "synth" in unused:
                t.call("invariants.synthesize_target_ac", op_id,
                       invariants.synthesize_target_ac, subst.length_k, 1, 1)
            if "empirical" in unused:
                _empirical(t, op_id, subst, 32, 1024, samples=8, window_n=1024)
