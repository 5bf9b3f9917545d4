"""The three workloads: their ops, their inputs and the checks on each output.

An op is one ``substdyn.cli.run`` call.  Every input is made from the seed
by :mod:`inputs`; ops that read a synthesized spec read the file the
``synthesize`` op before them wrote.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
from dataclasses import dataclass, field

import inputs

M_MAX = 12
#: Tolerance on closed-form values; reports print ten decimals.
TOL = 1e-9


@dataclass
class Op:
    op_id: str
    command: str
    argv: list[str]
    #: the spec file the op reads, or None for ``synthesize``
    spec: str | None
    #: what the op's input is, hashed into inputs_sha256
    text: str
    expect: dict = field(default_factory=dict)
    #: extra arguments for the traced replay of this op
    replay: dict = field(default_factory=dict)


class _Builder:
    def __init__(self, work: str):
        self.work = work
        self.ops: list[Op] = []
        self.files: dict[str, str] = {}

    def spec(self, stem: str, text: str) -> str:
        path = f"{self.work}/{stem}.txt"
        self.files[path] = text
        return path

    def analyze(self, stem, path, text, m_max=None, **expect):
        argv = ["analyze", "--json", path]
        if m_max is not None:
            argv += ["--m-max", str(m_max)]
        self.ops.append(Op(f"{stem}.analyze", "analyze", argv, path, text, expect,
                           {"m_max": m_max}))

    def kernel(self, stem, path, text):
        argv = ["kernel", "--m-max", str(M_MAX), path]
        self.ops.append(Op(f"{stem}.kernel", "kernel", argv, path, text,
                           replay={"m_max": M_MAX}))

    def synthesize(self, k, n, l) -> tuple[str, str, str]:
        stem = f"synth_k{k}_n{n}_l{l}"
        path = f"{self.work}/{stem}.txt"
        text = f"synthesize k={k} n={n} l={l}"
        argv = ["synthesize", "--k", str(k), "--n", str(n), "--l", str(l), "-o", path]
        self.ops.append(Op(f"{stem}.synthesize", "synthesize", argv, None, text,
                           replay={"k": k, "n": n, "l": l}))
        return stem, path, text

    def verify(self, stem, path, text, points, window, seed, csv=False, **expect):
        argv = ["verify", path, "--seed", str(seed)]
        if (points, window) != (256, 8192):
            argv += ["--points", str(points), "--window", str(window)]
        op_id = f"{stem}.verify{points}x{window}"
        if csv:
            argv += ["--csv", f"{self.work}/{op_id}.profile.csv",
                     "--density-csv", f"{self.work}/{op_id}.density.csv"]
        self.ops.append(Op(op_id, "verify", argv, path, text, expect,
                           {"points": points, "window": window, "seed": seed}))


def _golden(b: _Builder, name: str) -> tuple[str, str]:
    text = inputs.golden_text(name)
    return b.spec(f"golden_{name}", text), text


def _golden_expect(name: str) -> dict:
    expect = {}
    if name in inputs.GOLDEN_AC:
        expect["ac"] = inputs.GOLDEN_AC[name]
    if name == "e1":
        expect["lambda_root_of"] = (1, -1, -1)  # t^2 - t - 1
    if name == "e3":
        expect.update(lambda_int=2, d_s=1)
    if name == "e4":
        expect["height"] = 2
    return expect


def build_corpus(pool: random.Random, rng: random.Random, b: _Builder) -> None:
    """Many small requests: golden examples, raw draws, small synthesized specs."""
    for name in inputs.GOLDEN:
        path, text = _golden(b, name)
        b.analyze(f"golden_{name}", path, text, M_MAX, **_golden_expect(name))
        b.kernel(f"golden_{name}", path, text)
    for size in range(2, 6):
        for k in range(2, 6):
            for i in range(CORPUS_DRAWS_PER_CELL):
                text = inputs.spec_text(inputs.raw_draw(pool, size, k))
                stem = f"raw_a{size}_k{k}_{i:02d}"
                path = b.spec(stem, text)
                b.analyze(stem, path, text, M_MAX, length_k=k)
                b.kernel(stem, path, text)
    for k, n_max in ((2, 6), (3, 4)):
        for n in range(1, n_max + 1):
            l = rng.randrange(1, k**n)
            stem, path, text = b.synthesize(k, n, l)
            b.analyze(stem, path, text, M_MAX, ac=inputs.synth_target(k, n, l))
            b.kernel(stem, path, text)


def build_large(pool: random.Random, rng: random.Random, b: _Builder) -> None:
    """Few heavy exact requests of three kinds, one mechanism each."""
    for size, k, count in LARGE_KERNEL_DRAWS:
        for i in range(count):
            text = inputs.spec_text(inputs.raw_draw(pool, size, k))
            stem = f"raw_a{size}_k{k}_{i:02d}"
            b.kernel(stem, b.spec(stem, text), text)
    for size, k, count in LARGE_DEKKING_DRAWS:
        for i in range(count):
            text = inputs.spec_text(inputs.dekking_draw(pool, size, k))
            stem = f"dekking_a{size}_k{k}_{i:02d}"
            b.analyze(stem, b.spec(stem, text), text, height_min=2)
    for n in LARGE_SYNTH_N:
        l = rng.randrange(1, 2**n)
        stem, path, text = b.synthesize(2, n, l)
        b.analyze(stem, path, text, ac=inputs.synth_target(2, n, l))


def build_verify(pool: random.Random, rng: random.Random, b: _Builder) -> None:
    """The empirical layer at two sample sizes on the golden examples."""
    sizes = [(name, 256, 8192) for name in inputs.GOLDEN]
    sizes += [(name, 512, 16384) for name in VERIFY_LARGE]
    for name, points, window in sizes:
        path, text = _golden(b, name)
        expect = {"ac": inputs.GOLDEN_AC[name]} if name in inputs.GOLDEN_AC else {}
        b.verify(f"golden_{name}", path, text, points, window, rng.randrange(2**32),
                 csv=(name, points) == ("e1", 256), **expect)


#: Raw draws per (alphabet size 2..5, k 2..5) cell of the corpus.
CORPUS_DRAWS_PER_CELL = 15
#: (alphabet size, k, count) of the raw draws that ``kernel`` runs on.
LARGE_KERNEL_DRAWS = ((6, 3, 4), (6, 4, 4), (6, 5, 4), (7, 3, 4))
#: (alphabet size, k, count) of the height-2 draws that ``analyze`` runs on.
LARGE_DEKKING_DRAWS = ((8, 3, 6), (8, 5, 6), (10, 3, 6))
#: ``synthesize --k 2 --n N`` for these N, each followed by ``analyze``.
LARGE_SYNTH_N = (10, 11)
#: Golden examples also verified at --points 512 --window 16384.
VERIFY_LARGE = ("e1", "e4")

BUILDERS = {"corpus": build_corpus, "large": build_large, "verify": build_verify}


def build(workload: str, seed: int, work: str) -> tuple[list[Op], dict[str, str]]:
    """The workload's ops and the spec files they read.

    Substitutions come from a pool generator with a fixed seed; the run's
    seed picks the free parameters (synthesizer l, verify --seed).  Op cost
    is heavy-tailed in the drawn structure (one 7-letter kernel takes 0.25
    to 2.8 s) and, through the height heuristic, in the letter order, so
    structures drawn or relabelled per seed moved the throughput, median
    and tail of a 30 s run by 20 to 60 % from seed to seed.
    """
    b = _Builder(work)
    BUILDERS[workload](random.Random(f"{workload}/pool"),
                       random.Random(f"{workload}/{seed}"), b)
    return b.ops, b.files


def inputs_sha256(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([op.op_id, op.argv, op.text]).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Output checks.  Each returns (digest, problem or None, slope error or None).
# ---------------------------------------------------------------------------


def _sha(*parts: str) -> str:
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def _close(got: float, want: float) -> bool:
    if math.isinf(want):
        return math.isinf(got)
    return abs(got - want) <= TOL


def _check_analyze(op: Op, out: str):
    body = json.loads(out)
    report = body["report"]
    ac = math.inf if report["ac"] == "infinity" else float(report["ac"])
    e = op.expect
    problems = []
    if op.replay["m_max"] is not None:
        # phi^0 has one column, the identity, which is constant iff the pure
        # base has a single letter (a periodic fixed point)
        d_m = body.get("d_m", [])
        d_0 = int(len(report["pure_base_rules"]) >= 2)
        if len(d_m) != op.replay["m_max"] + 1 or d_m[0] != d_0:
            problems.append(f"d_m {d_m} is not {op.replay['m_max'] + 1} counts from d_0 = {d_0}")
    if "ac" in e and not _close(ac, e["ac"]):
        problems.append(f"ac {ac!r}, closed form {e['ac']!r}")
    if "length_k" in e and report["length_k"] != e["length_k"]:
        problems.append(f"length_k {report['length_k']}, expected {e['length_k']}")
    if "height" in e and report["height_h"] != e["height"]:
        problems.append(f"height {report['height_h']}, expected {e['height']}")
    if "height_min" in e and report["height_h"] < e["height_min"]:
        problems.append(f"height {report['height_h']} below {e['height_min']}")
    if "lambda_int" in e and report["lambda_s_integer"] != e["lambda_int"]:
        problems.append(f"lambda_s {report['lambda_s']}, expected {e['lambda_int']}")
    if "d_s" in e and report["d_s"] != e["d_s"]:
        problems.append(f"d_s {report['d_s']}, expected {e['d_s']}")
    if "lambda_root_of" in e:
        lam = report["lambda_s"]
        residue = sum(c * lam ** (len(e["lambda_root_of"]) - 1 - i)
                      for i, c in enumerate(e["lambda_root_of"]))
        if abs(residue) > TOL:
            problems.append(f"lambda_s {lam} is not a root of {e['lambda_root_of']}")
    return body["stable_hash"], "; ".join(problems) or None, None


_KERNEL_HEAD = re.compile(r"^kernel monoid: (\d+) element\(s\)$", re.M)
_D_M = re.compile(r"^  d_(\d+) = (\d+)$", re.M)


def _check_kernel(op: Op, out: str):
    head = _KERNEL_HEAD.search(out)
    d_m = [(int(m), int(v)) for m, v in _D_M.findall(out)]
    want = list(range(op.replay["m_max"] + 1))
    problem = None
    if head is None or int(head.group(1)) < 1:
        problem = "no kernel monoid size line"
    elif [m for m, _ in d_m] != want or d_m[0][1] not in (0, 1):
        problem = f"d_m lines {d_m} are not d_0..d_{want[-1]} with d_0 in {{0, 1}}"
    return _sha(out), problem, None


def _check_synthesize(op: Op, out: str):
    path = op.argv[op.argv.index("-o") + 1]
    if out.strip() != f"wrote {path}" or not os.path.exists(path):
        return _sha(out), f"did not write {path}", None
    with open(path, encoding="utf-8") as fh:
        return _sha(fh.read()), None, None


_EXACT = re.compile(r"^exact ac: (\S+)$", re.M)
_SLOPE = re.compile(r"^fitted slope: (\S+)", re.M)
_NU_ROW = re.compile(r"^\d\.\d{6} +\d+$", re.M)


def _check_verify(op: Op, out: str):
    stable = "\n".join(l for l in out.splitlines() if not l.startswith("elapsed:"))
    parts = [stable]
    problems = []
    exact_m = _EXACT.search(out)
    slope_m = _SLOPE.search(out)
    if exact_m is None or slope_m is None:
        return _sha(stable), "no 'exact ac' or 'fitted slope' line", None
    exact = math.inf if exact_m.group(1) == "infinity" else float(exact_m.group(1))
    if "ac" in op.expect and not _close(exact, op.expect["ac"]):
        problems.append(f"exact ac {exact!r}, closed form {op.expect['ac']!r}")
    table_rows = len(_NU_ROW.findall(out))
    for flag, rows in (("--csv", table_rows), ("--density-csv", 16 * 15 // 2)):
        if flag not in op.argv:
            continue
        path = op.argv[op.argv.index(flag) + 1]
        if not os.path.exists(path):
            problems.append(f"{flag} file {path} missing")
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        parts.append(text)
        got = text.count("\n") - 1
        if got != rows:
            problems.append(f"{flag} has {got} rows, expected {rows}")
    slope_err = None
    if slope_m.group(1) != "n/a" and not math.isinf(exact):
        slope_err = abs(float(slope_m.group(1)) - exact)
    return _sha(*parts), "; ".join(problems) or None, slope_err


CHECKS = {
    "analyze": _check_analyze,
    "kernel": _check_kernel,
    "synthesize": _check_synthesize,
    "verify": _check_verify,
}


def check(op: Op, out: str):
    """(digest, problem, slope error) for an op that exited 0."""
    try:
        return CHECKS[op.command](op, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return _sha(out), f"unreadable output: {exc!r}", None
