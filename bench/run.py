#!/usr/bin/env python3
"""Benchmark for substdyn: end-to-end ops through ``cli.run``, or a traced
layer-by-layer replay.

Usage, from the repository root:

    python3 bench/run.py --workload corpus|large|verify [--seed N]
                         [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all      # each workload in a fresh process

One process, one client, closed loop: an op is one ``substdyn.cli.run``
call on one spec file, and the next op starts when the previous returns.
The run repeats whole passes over the workload's ops while another pass of
median length still fits in ``--seconds`` (at least two passes).  With
``--trace 1`` each op is also run with spans around the library calls
``cli`` makes and then replayed layer by layer (see replay.py).  The last
line of stdout is one JSON object.  End-to-end times are scaled to a
reference host speed sampled during the run (speed.py).
Notes on the workloads and metrics are in NOTES.md.
"""

from __future__ import annotations

import os

# Cap BLAS/OpenMP pools before numpy is imported: one client, one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ".bench_out"
WORKLOADS = ("corpus", "large", "verify")
SETUP_REPEATS = 15
MIN_PASSES = 2

sys.path.insert(0, str(SRC))
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Replayed calls whose inclusive time is reported as ``<name>.s``.
LAYER_CALLS = (
    "core.is_primitive",
    "structure.height",
    "structure.pure_base",
    "core.fixed_point_prefix",
    "discrepancy.pair_rules",
    "matrices.decompose",
    "matrices.growth_types",
    "matrices.characteristic_polynomial",
    "discrepancy.analyze_pairs",
    "core.column_sets",
    "invariants.graph_condition",
    "invariants.classify",
    "invariants.kernel_monoid",
    "invariants.nonconstant_ap_counts",
    "invariants.synthesize_target_ac",
    "empirical.separation_profile",
    "empirical.lipschitz_ratio_probe",
)
#: metric -> (span, count key, how counts over a pass combine)
LAYER_COUNTS = {
    "matrices.characteristic_polynomial.order":
        ("matrices.characteristic_polynomial", "order", max),
    "matrices.decompose.components": ("matrices.decompose", "components", sum),
    "matrices.decompose.max_order": ("matrices.decompose", "max_order", max),
    "structure.pure_base.blocks": ("structure.pure_base", "blocks", sum),
    "core.fixed_point_prefix.symbols": ("core.fixed_point_prefix", "symbols", sum),
    "discrepancy.pair_rules.pairs": ("discrepancy.pair_rules", "pairs", sum),
    "core.column_sets.size": ("core.column_sets", "size", sum),
    "invariants.kernel_monoid.size": ("invariants.kernel_monoid", "size", sum),
    "empirical.separation_profile.comparisons":
        ("empirical.separation_profile", "comparisons", sum),
    "empirical.separation_profile.saturated": ("empirical.separation_profile", "saturated", sum),
    "empirical.fit_slope.points": ("empirical.fit_slope", "points", sum),
}
#: One call of each stage ``classify`` needs: the base of its redundancy ratio.
CLASSIFY_STAGES = (
    "structure.pure_base",
    "discrepancy.pair_rules",
    "matrices.growth_types",
    "matrices.characteristic_polynomial",
    "core.column_sets",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.s": "s" for name in LAYER_CALLS}
    units.update({name: "count" for name in LAYER_COUNTS})
    units["invariants.classify.redundancy"] = "ratio"
    units.update({"cli.run.s": "s", "cli.run.self_s": "s", "trace.overhead_s": "s"})
    return units


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_cli():
    """Import substdyn afresh from this checkout's src/ and return its cli."""
    for name in [m for m in sys.modules if m == "substdyn" or m.startswith("substdyn.")]:
        del sys.modules[name]
    cli = importlib.import_module("substdyn.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"substdyn was imported from {cli.__file__}, not {SRC}")
    return cli


def setup(workload: str, seed: int, work: str):
    """Import, input generation and spec writing, done SETUP_REPEATS times.

    Returns the cli module, the ops and each repeat's (start, elapsed).
    """
    intervals = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous repeat's modules are cyclic garbage
        started = time.perf_counter()
        cli = import_cli()
        ops, files = workloads.build(workload, seed, work)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        for path, text in files.items():
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        intervals.append((started, time.perf_counter() - started))
    return cli, ops, intervals


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


def run_op(cli, op):
    """(exit code, stdout, stderr, start, elapsed) of one op."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            rc = cli.run(op.argv)
        except Exception:  # a crash is a failed op, reported with its input
            rc = "crash"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - started
    return rc, out.getvalue(), err.getvalue(), started, elapsed


class Ledger:
    """Outcome of every op: checks, repeat consistency and failures."""

    def __init__(self, ops):
        self.ops = ops
        self.first: dict[str, tuple] = {}
        self.slope_err: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reported: set[str] = set()

    def record(self, op, rc, out, err) -> bool:
        self.attempted += 1
        slope_err = None
        if rc == 0:
            digest, problem, slope_err = workloads.check(op, out)
        else:
            digest = hashlib.sha256(f"{rc}\0{err}".encode()).hexdigest()
            problem = f"exit {rc}: {err.strip().splitlines()[-1] if err.strip() else ''}"
        seen = self.first.setdefault(op.op_id, (rc, digest))
        if seen != (rc, digest):
            problem = f"output changed between repeats (exit {seen[0]} -> {rc})"
        if problem and (rc == 0 or seen != (rc, digest)):
            self.wrong += 1
        if slope_err is not None:
            self.slope_err[op.op_id] = slope_err
        if problem is None:
            return True
        self.failed += 1
        if op.op_id not in self.reported:
            self.reported.add(op.op_id)
            text = op.text if op.spec is None else op.text.rstrip("\n").replace("\n", "; ")
            print(f"FAILED {op.op_id}: {problem}\n  argv: {' '.join(op.argv)}\n  input: {text}")
        return False

    def report_digest(self) -> str:
        h = hashlib.sha256()
        for op in self.ops:
            rc, digest = self.first[op.op_id]
            h.update(f"{op.op_id}\0{rc}\0{digest}\n".encode())
        return h.hexdigest()


def tail_level(n_min: int) -> int:
    """Highest whole percentile with at least 10 of n_min samples beyond it."""
    for p in range(99, 0, -1):
        if n_min - math.ceil(p * n_min / 100) >= 10:
            return p
    raise ValueError(f"{n_min} samples cannot leave 10 beyond any percentile")


def percentile(values: list[float], p: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# End-to-end run (tracing off)
# ---------------------------------------------------------------------------


class OpRun(NamedTuple):
    pass_no: int
    op_id: str
    command: str
    ok: bool
    start: float
    elapsed: float


def measure(cli, ops, seconds, ledger):
    """Whole passes over ``ops``; every op run, and each pass's wall time."""
    runs: list[OpRun] = []
    pass_times = []
    started = time.perf_counter()
    while len(pass_times) < MIN_PASSES or fits_another(started, pass_times, seconds):
        pass_started = time.perf_counter()
        for op in ops:
            rc, out, err, op_started, elapsed = run_op(cli, op)
            ok = ledger.record(op, rc, out, err)
            runs.append(OpRun(len(pass_times), op.op_id, op.command, ok, op_started, elapsed))
        pass_times.append(time.perf_counter() - pass_started)
    return runs, pass_times


def fits_another(started: float, pass_times: list[float], seconds: float) -> bool:
    """Whether one more pass of median length still ends within ``seconds``."""
    return time.perf_counter() - started + statistics.median(pass_times) <= seconds


def op_medians(runs: list[OpRun], times: list[float]) -> dict[str, tuple[str, float]]:
    """Each op's command and median time in ms over its successful runs."""
    by_op: dict[str, list[float]] = {}
    command = {}
    for run, t in zip(runs, times):
        if run.ok:
            by_op.setdefault(run.op_id, []).append(t * 1000.0)
            command[run.op_id] = run.command
    return {op_id: (command[op_id], statistics.median(ts)) for op_id, ts in by_op.items()}


def end_to_end(runs, pass_times, setup_intervals, ledger, sampler):
    """Metrics at reference speed (see speed.py), with wall-clock figures in notes.

    Latency percentiles are taken over ops, each at the median of its
    repeats, so a repeat that a host stall hit does not move them.
    """
    scaled = [sampler.scaled(run.start, run.elapsed) for run in runs]
    medians = op_medians(runs, scaled)
    if not medians:
        raise RuntimeError("no op succeeded")
    op_ms = [t for _, t in medians.values()]
    wall_ms = [t for _, t in op_medians(runs, [run.elapsed for run in runs]).values()]
    ok_first_pass = sum(run.ok for run in runs if run.pass_no == 0)
    busy = [0.0] * len(pass_times)  # every op of a pass, failed ones too
    for run, t in zip(runs, scaled):
        busy[run.pass_no] += t
    setup_times = [sampler.scaled(start, elapsed) for start, elapsed in setup_intervals]
    # fixed by the ops that succeed in a pass, not by how many passes fit
    level = tail_level(MIN_PASSES * ok_first_pass)
    tail, beyond = percentile(op_ms, level)
    n = f"n={len(op_ms)} ops, each the median of {len(pass_times)} repeats"
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ok_first_pass / statistics.median(busy),
        "op_p50_ms": percentile(op_ms, 50)[0],
        "op_tail_ms": tail,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups: import of substdyn, "
                   f"input generation, spec writing (wall: median "
                   f"{statistics.median(e for _, e in setup_intervals):.4f} s, first "
                   f"{setup_intervals[0][1]:.4f} s includes the numpy import)",
        "ops_per_s": f"base: {ok_first_pass} ok ops in a pass / median over "
                     f"{len(pass_times)} passes of the pass's summed op time "
                     f"({', '.join(f'{t:.3f}' for t in busy)} s; wall "
                     f"{', '.join(f'{t:.3f}' for t in pass_times)} s)",
        "op_p50_ms": f"{n} (wall {percentile(wall_ms, 50)[0]:.4f} ms)",
        "op_tail_ms": f"p{level}, {n}, {beyond} ops beyond it "
                      f"(wall {percentile(wall_ms, level)[0]:.4f} ms)",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = []
    for command in ("analyze", "kernel", "synthesize", "verify"):
        own = [t for c, t in medians.values() if c == command]
        if own:
            lines.append((f"{command}.p50_ms", percentile(own, 50)[0], "ms",
                          f"n={len(own)} ops"))
    lines.append(("failed_frac", ledger.failed / ledger.attempted, "1",
                  f"base: {ledger.failed} failed / {ledger.attempted} attempted"))
    if ledger.slope_err:
        errs = list(ledger.slope_err.values())
        value = statistics.fmean(errs)
        lines.append(("slope_abs_err", value, "1",
                      f"mean |fitted slope - exact ac| over {len(errs)} ops with finite "
                      "ac and a fitted slope"))
    return metrics, notes, lines


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def traced(cli, ops, seconds, ledger, tracer, replay):
    per_pass = []
    pass_times = []
    started = time.perf_counter()
    current = [""]
    while not pass_times or fits_another(started, pass_times, seconds):
        pass_started = time.perf_counter()
        first_span = len(tracer.spans)
        overhead = 0.0
        for op in ops:
            current[0] = op.op_id
            rc, out, err, _, plain = run_op(cli, op)
            ledger.record(op, rc, out, err)
            originals = spans.wrap_library_calls(cli, tracer, lambda: current[0])
            try:
                with tracer.span("cli.run", op.op_id) as span:
                    rc, out, err, _, _ = run_op(cli, op)
            finally:
                spans.unwrap(cli, originals)
            ledger.record(op, rc, out, err)
            overhead += (span["end"] - span["start"]) - plain
            try:
                replay.replay_op(tracer, op)
            except cli.SubstError:
                pass  # the op's own failure is already recorded
        replay.replay_off_path(tracer, ops, workloads.M_MAX)
        per_pass.append(layer_metrics(tracer.spans, first_span, overhead))
        pass_times.append(time.perf_counter() - pass_started)
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    return metrics, len(per_pass)


def layer_metrics(all_spans, first, overhead):
    """Per-layer metrics of the pass whose spans start at ``first``."""
    pass_spans = list(enumerate(all_spans[first:], first))

    def duration(s):
        return s["end"] - s["start"]

    def parent_name(s):
        return all_spans[s["parent"]]["name"] if s["parent"] is not None else None

    replayed = [s for _, s in pass_spans if parent_name(s) == "replay"]
    out = {f"{name}.s": sum(duration(s) for s in replayed if s["name"] == name)
           for name in LAYER_CALLS}
    for metric, (name, key, combine) in LAYER_COUNTS.items():
        out[metric] = combine([s["counts"][key] for s in replayed
                               if s["name"] == name and key in s["counts"]] or [0])

    # classify time over one call of each stage it needs, on the same replays
    by_root: dict[int, dict[str, float]] = {}
    for s in replayed:
        by_root.setdefault(s["parent"], {})[s["name"]] = duration(s)
    classify_s = base_s = 0.0
    for stages in by_root.values():
        if "invariants.classify" in stages:
            classify_s += stages["invariants.classify"]
            base_s += sum(stages.get(name, 0.0) for name in CLASSIFY_STAGES)
    out["invariants.classify.redundancy"] = classify_s / base_s if base_s else 0.0

    runs = {i: s for i, s in pass_spans if s["name"] == "cli.run"}
    child_s = sum(duration(s) for _, s in pass_spans if s["parent"] in runs)
    out["cli.run.s"] = sum(duration(s) for s in runs.values())
    out["cli.run.self_s"] = out["cli.run.s"] - child_s
    out["trace.overhead_s"] = overhead
    return out


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


def run_workload(args) -> int:
    os.chdir(ROOT)
    sampler = speed.Sampler()
    sampler.start()  # ticks from before set-up, so every interval can be scaled
    try:
        return measure_workload(args, sampler)
    finally:
        sampler.stop()


def measure_workload(args, sampler) -> int:
    work = f"{OUT}/work-{args.workload}"
    try:
        cli, ops, setup_intervals = setup(args.workload, args.seed, work)
    except ImportError as exc:
        print(f"error: cannot import substdyn from {SRC}: {exc}", file=sys.stderr)
        return 2
    env = environment()
    ledger = Ledger(ops)
    counts = {c: sum(op.command == c for op in ops) for c in workloads.CHECKS}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("load: closed loop, 1 client, 1 process; wait time: none (no queues or "
          "threads, so no op waits for another)")
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"inputs_sha256: {workloads.inputs_sha256(ops)}")
    print("ops per pass: " + ", ".join(f"{c} {n}" for c, n in counts.items() if n)
          + f" (total {len(ops)})")
    try:
        if args.trace:
            import replay  # imports substdyn, so only after set-up's last import

            tracer = spans.Tracer()
            metrics, passes = traced(cli, ops, args.seconds, ledger, tracer, replay)
            trace_path = f"{OUT}/trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, **env})
            units = per_layer_units()
            off_path = replay.off_path_calls(ops)
            print(f"traced passes: {passes}; per-layer values are the median over "
                  f"passes of per-pass totals; spans in {trace_path}")
            for name, unit in units.items():
                flag = ("  (off-path: smallest size, first inputs)"
                        if name.rsplit(".", 1)[0] in off_path else "")
                print(f"  {name:<44} {metrics[name]:>16.6f} {unit}{flag}")
            result = {name: {"value": metrics[name], "unit": unit}
                      for name, unit in units.items()}
        else:
            runs, pass_times = measure(cli, ops, args.seconds, ledger)
            time.sleep(speed.WINDOW_S)  # ticks after the last op, to scale it
            metrics, notes, extra = end_to_end(
                runs, pass_times, setup_intervals, ledger, sampler)
            print(f"times at reference speed; host speed: {sampler.summary()}")
            for name, unit in END_TO_END.items():
                print(f"  {name:<16} {metrics[name]:>14.6f} {unit:<4} {notes[name]}")
            for name, value, unit, note in extra:
                print(f"  {name:<16} {value:>14.6f} {unit:<4} {note}")
            result = {name: {"value": metrics[name], "unit": unit}
                      for name, unit in END_TO_END.items()}
        print(f"report_digest: {ledger.report_digest()}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": result,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is that workload's own."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
