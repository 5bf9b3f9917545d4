"""The benchmark's seed-1 workloads, each op run once in-process.

Every op goes through ``bench/run.py``'s ``run_op`` and ``Ledger`` with
this session's ``substdyn.cli``, so each workload's report digest is pinned
here, and the traced replay of ``bench/replay.py`` runs on the same ops, so
a library change that breaks one of its calls fails here.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from unittest import mock

import pytest

import substdyn.cli
from substdyn import SubstError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
with mock.patch.dict(os.environ):  # run.py caps the BLAS pools of its process
    import run
import replay  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: report_digest of each workload at seed 1
DIGESTS = {
    "corpus": "7029df0381dab51cb3c64b2b27565eb275802a11cd5e25870ed394b13b5b439c",
    "large": "49cf8ea51c1dca78bad525bfeff0aa0f121cecf54349b653030a900fcecc4b19",
    "verify": "326b13f312b408f943a6844abb336802f7a45717fbf616f395eb12a3adeee4aa",
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_1_digest_and_replay(tmp_path, capsys, monkeypatch, workload):
    # stable_hash covers each spec's path, so the specs sit at the relative
    # paths the benchmark writes them to
    monkeypatch.chdir(tmp_path)
    work = f"{run.OUT}/work-{workload}"
    ops, files = workloads.build(workload, 1, work)
    os.makedirs(work)
    for path, text in files.items():
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    ledger = run.Ledger(ops)
    tracer = spans.Tracer()
    for op in ops:
        rc, out, err, _, _ = run.run_op(substdyn.cli, op)
        ledger.record(op, rc, out, err)
        try:
            replay.replay_op(tracer, op)
        except SubstError:
            pass  # the op's own failure is already recorded
    replay.replay_off_path(tracer, ops, workloads.M_MAX)
    # the ledger prints a FAILED line for each op that failed
    assert (ledger.wrong, ledger.failed) == (0, 0), capsys.readouterr().out
    assert ledger.report_digest() == DIGESTS[workload]
    metrics = run.layer_metrics(tracer.spans, 0, 0.0)
    assert set(metrics) == set(run.per_layer_units())
    assert [name for name in run.LAYER_CALLS if metrics[f"{name}.s"] <= 0] == []
