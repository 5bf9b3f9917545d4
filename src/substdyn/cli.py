"""Command-line front end: spec files in, reports out.

Spec file format: one rule per line, ``LETTER -> IMAGE``.  Letters are
whitespace-delimited tokens; when every letter is a single character the
image may be written unspaced (``a -> aac``).  ``#`` starts a comment.

Exit codes: 0 success, 1 parse error (also a spec file that cannot be
read or is not UTF-8), 2 precondition violation (non-primitive input,
non-constant length, bad parameters, an output path that cannot be
written, and in ``main`` stdout itself), 3 resource cap exceeded, 4
internal invariant failure, 141 stdout closed before the output was
written (``main`` only; ``run`` lets the BrokenPipeError through).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
import time
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import __version__
from .core import Alphabet, Substitution, fixed_point_prefix
from .empirical import (
    build_nu_grid,
    check_sample_size,
    density_rows,
    lipschitz_ratio_probe,
    separation_profile,
    write_density_csv,
    write_profile_csv,
)
from .discrepancy import analyze_pairs
from .errors import PreconditionError, SpecParseError, SubstError
from .invariants import (
    DEFAULT_SEED,
    KernelDescriptor,
    amorphic_complexity,
    check_m_max,
    check_witness_search,
    classify_analysis,
    kernel_monoid,
    nonconstant_counts,
    null_witness_search,
    synthesize_target_ac,
)
from .structure import pure_base


@dataclass(frozen=True)
class SpecDocument:
    """A parsed spec file, with comments kept around for echoing."""

    source_name: str
    substitution: Substitution
    comments: tuple[str, ...]


def parse_spec(text: str, source_name: str = "<string>") -> SpecDocument:
    """Parse ``LETTER -> IMAGE`` lines into a substitution."""
    comments: list[str] = []
    rule_lines: list[tuple[str, str]] = []
    for raw in text.splitlines():
        line = raw
        if "#" in line:
            line, _, comment = line.partition("#")
            comment = comment.strip()
            if comment:
                comments.append(comment)
        line = line.strip()
        if not line:
            continue
        if "->" not in line:
            raise SpecParseError(f"{source_name}: expected 'LETTER -> IMAGE': {raw!r}")
        lhs, _, rhs = line.partition("->")
        letter = lhs.strip()
        image = rhs.strip()
        if not letter or len(letter.split()) != 1:
            raise SpecParseError(f"{source_name}: rule needs a single letter before '->'")
        if not image:
            raise SpecParseError(f"{source_name}: empty image for letter {letter!r}")
        rule_lines.append((letter, image))

    if not rule_lines:
        raise SpecParseError(f"{source_name}: no rules found")
    letters = []
    seen = set()
    for letter, _ in rule_lines:
        if letter in seen:
            raise SpecParseError(f"{source_name}: duplicate rule for letter {letter!r}")
        seen.add(letter)
        letters.append(letter)
    alphabet = Alphabet(tuple(letters))
    compact_ok = all(len(tok) == 1 for tok in letters)

    images: list[tuple[int, ...]] = []
    for letter, image in rule_lines:
        tokens = image.split()
        if len(tokens) == 1 and tokens[0] not in alphabet:
            if not compact_ok:
                raise SpecParseError(
                    f"{source_name}: undeclared letter {tokens[0]!r} in rule for {letter!r}"
                )
            tokens = list(tokens[0])
        indexed = []
        for tok in tokens:
            if tok not in alphabet:
                raise SpecParseError(
                    f"{source_name}: undeclared letter {tok!r} in rule for {letter!r}"
                )
            indexed.append(alphabet.index(tok))
        images.append(tuple(indexed))

    lengths = {len(img) for img in images}
    if len(lengths) != 1:
        raise PreconditionError(
            f"{source_name}: non-constant length: images have lengths "
            f"{sorted(lengths)}"
        )
    return SpecDocument(
        source_name=source_name,
        substitution=Substitution(alphabet, tuple(images)),
        comments=tuple(comments),
    )


def render_spec(doc: SpecDocument) -> str:
    """Canonical text for a spec document; parse(render(...)) is stable."""
    lines = [f"# {c}" for c in doc.comments]
    lines.extend(doc.substitution.rule_strings())
    return "\n".join(lines) + "\n"


def _load(path: str) -> SpecDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecParseError(f"cannot read {path}: {exc}") from exc
    return parse_spec(text, source_name=path)


@contextlib.contextmanager
def _writing(path: str):
    """Turn an OSError of the block that writes ``path`` into exit 2."""
    try:
        yield
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc}") from exc


@contextlib.contextmanager
def _claiming(paths: list[str]):
    """Open each output path for appending before the block runs, so one
    that cannot be written exits 2 before any stage; if the block fails,
    remove the files that this created."""
    created = [path for path in paths if not os.path.exists(path)]
    try:
        for path in paths:
            with _writing(path), open(path, "a"):
                pass
        yield
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _report_document(doc: SpecDocument, text: str, extra: dict) -> dict:
    body = {
        "version": __version__,
        "input_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "source": doc.source_name,
        **extra,
    }
    stable = hashlib.sha256(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    body["stable_hash"] = stable
    return body


def _print_json(body: dict, timing: float) -> None:
    body = dict(body)
    body["timing_seconds"] = round(timing, 6)
    print(json.dumps(body, sort_keys=True, indent=2))


def _fmt(value: float) -> str:
    return "infinity" if math.isinf(value) else f"{value:.10f}"


def _cmd_analyze(args: argparse.Namespace) -> int:
    started = time.monotonic()
    doc = _load(args.file)
    subst = doc.substitution
    if args.m_max is not None:
        check_m_max(args.m_max)
    analysis = analyze_pairs(subst)
    report = classify_analysis(analysis)
    d_m: list[int] | None = None
    if args.m_max is not None:
        d_m = nonconstant_counts(analysis.pure.pure_base, args.m_max)

    if args.json:
        extra = {"report": report.to_dict()}
        if d_m is not None:
            extra["d_m"] = d_m
        body = _report_document(doc, render_spec(doc), extra)
        _print_json(body, time.monotonic() - started)
        return 0

    print(f"substitution ({doc.source_name}):")
    for line in subst.rule_strings():
        print(f"  {line}")
    print(f"length k: {report.length_k}")
    print(f"primitive: {report.primitive}")
    print(f"height: {report.height_h}")
    if report.height_h > 1:
        print("pure base:")
        for line in report.pure_base_rules:
            print(f"  {line}")
    print("discrepancy substitution:")
    for line in report.discrepancy_rules:
        print(f"  {line}")
    snapped = (
        f"; = {report.lambda_s_integer} exactly"
        if report.lambda_s_integer is not None
        else ""
    )
    print(
        f"lambda_s: {report.lambda_s:.10f}  "
        f"[root of {report.lambda_s_polynomial}{snapped}]"
    )
    print(f"d_s: {report.d_s}")
    print(f"ac: {_fmt(report.ac)}")
    print(f"finite system: {report.finite_system}")
    print(f"discrete spectrum: {report.discrete_spectrum}")
    print(f"null and tame: {report.null_and_tame}")
    print(f"graph condition: {report.graph_condition}")
    print(f"maximal-growth pairs: {', '.join(report.maximal_pairs) or '(none)'}")
    print(f"mef: {report.mef}")
    if report.unpurified_rate is not None:
        print(f"unpurified discrepancy eigenvalue = {report.unpurified_rate:g}")
    if d_m is not None:
        print("nonconstant column counts (pure base):")
        for m, value in enumerate(d_m):
            print(f"  d_{m} = {value}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    started = time.monotonic()
    doc = _load(args.file)
    subst = doc.substitution
    grid = build_nu_grid(args.nu_max, args.nu_min)
    check_sample_size(subst, args.points, args.window)
    if args.window is not None:
        print("verify: --window changes no number; the densities are exact "
              "(N = infinity)", file=sys.stderr)
    with _claiming([path for path in (args.csv, args.density_csv) if path]):
        analysis = analyze_pairs(subst)
        exact = amorphic_complexity(subst, analysis)
        profile = separation_profile(subst, m_points=args.points, nu_grid=grid)
        if args.csv:
            with _writing(args.csv):
                write_profile_csv(profile, args.csv)

        try:
            ratio = lipschitz_ratio_probe(subst, seed=args.seed, analysis=analysis)
        except PreconditionError:  # outside 0 < ac < infinity, or too few samples
            ratio = None

        if args.density_csv:
            with _writing(args.density_csv):
                write_density_csv(density_rows(analysis), args.density_csv)

    print(f"exact ac: {_fmt(exact)}")
    print("nu        count")
    for nu, count in zip(profile.nu_grid, profile.counts):
        print(f"{nu:<9.6f} {count}")
    if profile.slope is None:
        print("fitted slope: n/a (too few usable grid points)")
    else:
        lo, hi = profile.fit_range
        print(
            f"fitted slope: {profile.slope:.4f}  "
            f"(fit over nu in [{profile.nu_grid[hi]:.6f}, {profile.nu_grid[lo]:.6f}])"
        )
        if not math.isinf(exact):
            print(f"difference from exact: {abs(profile.slope - exact):.4f}")
    if ratio is not None:
        print(f"min density ratio (S-restricted / plain): {ratio:.4f}")
    print(f"elapsed: {time.monotonic() - started:.2f}s")
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    subst = synthesize_target_ac(args.k, args.n, args.l)
    target = (args.n * math.log(args.k)) / (
        args.n * math.log(args.k) - math.log(args.l)
    )
    doc = SpecDocument(
        source_name=args.output or "<synthesized>",
        substitution=subst,
        comments=(
            f"synthesized for k={args.k} n={args.n} l={args.l}",
            f"target ac = {target:.6f}",
        ),
    )
    text = render_spec(doc)
    if args.output:
        with _writing(args.output), open(
            args.output, "w", encoding="utf-8", newline="\n"
        ) as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    check_m_max(args.m_max)
    pure = pure_base(doc.substitution)
    d_m = nonconstant_counts(pure.pure_base, args.m_max)
    kd = kernel_monoid(pure.pure_base)
    head = [f"kernel monoid: {len(kd.elements)} element(s)", f"  {'id':<24} via (empty word)"]
    if pure.height_h > 1:
        head.insert(0, f"height {pure.height_h}; kernel computed on the pure base")
    tail = [f"constant elements: {int(kd.constant.sum())}", "nonconstant column counts:"]
    tail.extend(f"  d_{m} = {value}" for m, value in enumerate(d_m))
    listing = "".join(["\n".join(head), *_element_rows(kd, pure.pure_base.length_k),
                       "\n", "\n".join(tail)])
    print(listing)
    return 0


#: Elements rendered per join of the kernel listing: bounds the cell arrays.
_LIST_ROWS = 1 << 12


@functools.lru_cache(maxsize=8)
def _label_parts(letters: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables for the kernel listing's labels on ``letters``.

    ``cell[c, a, b]`` is what letter a adds to a label when it maps to b:
    "a->b, " in a nonconstant map (c = 0), with no separator after the
    last letter, and "const b" from letter 0 alone in a constant map
    (c = 1); letter 0's part also opens the row with its line break and
    indent.  ``width`` counts each part's label characters, and ``via[w]``
    follows a label of w characters: the spaces that ``f"{label:<24}"``
    adds, then " via " (``via[24]`` serves every longer label).  Kept per
    alphabet, like the parser, for in-process callers that list many
    monoids.
    """
    n = len(letters)
    cell = np.full((2, n, n), "", dtype=object)
    cell[0] = [[f"{a}->{b}, " for b in letters] for a in letters]
    cell[0, -1] = [f"{letters[-1]}->{b}" for b in letters]
    cell[1, 0] = [f"const {b}" for b in letters]
    width = np.array([len(part) for part in cell.ravel().tolist()]).reshape(cell.shape)
    cell[:, 0] = "\n  " + cell[:, 0]
    via = np.array([" " * (24 - w) + " via " for w in range(25)], dtype=object)
    for table in (cell, width, via):
        table.flags.writeable = False
    return cell, width, via


def _element_rows(kd: KernelDescriptor, k: int) -> Iterator[str]:
    """The kernel listing's rows after the identity, a block at a time.

    Each row is ``"\\n  " + label + padding + " via " + word``, where the
    padding gives the label the width of ``f"{label:<24}"``.  A block of
    rows is one object array, filled by one numpy gather from the
    ``_label_parts`` tables and joined once; a label's width is the sum of
    its parts' widths.  Words are spelled level by level from the parent
    links, keeping only the previous level's words; small levels share a
    block.
    """
    cell, width, via = _label_parts(kd.alphabet.letters)
    n = kd.alphabet.size
    kind, letter = kd.constant.astype(np.intp)[:, None], np.arange(n)

    def render(lo: int, words: list[str]) -> str:
        hi = lo + len(words)
        parts = (kind[lo:hi], letter, kd.elements[lo:hi])
        block = np.empty((hi - lo, n + 2), dtype=object)
        block[:, :-2] = cell[parts]
        block[:, -2] = via[np.minimum(width[parts].sum(axis=1), 24)]
        block[:, -1] = words
        return "".join(block.ravel().tolist())

    phi = [f"phi_{r}" for r in range(k)]
    parents, gens = kd.parent.tolist(), kd.generator.tolist()
    # Level by level: rows lo..hi are the children of rows plo..lo, whose words
    # alone are kept; parents never decrease, so hi is the first parent >= lo.
    spelled: list[str] = []
    pending: list[str] = []  # words of the rows from done on, not yet rendered
    plo, lo, hi, done = 0, 0, 1, 1
    while hi < len(parents):
        plo, lo, hi = lo, hi, bisect_left(parents, hi, hi)
        spelled = [  # a level-1 parent is the identity, whose word is empty
            f"{phi[r]} . {spelled[p - plo]}" if plo else phi[r]
            for r, p in zip(gens[lo:hi], parents[lo:hi])
        ]
        pending += spelled
        while len(pending) >= _LIST_ROWS:
            yield render(done, pending[:_LIST_ROWS])
            del pending[:_LIST_ROWS]
            done += _LIST_ROWS
    if pending:
        yield render(done, pending)


def _cmd_oracle(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    subst = doc.substitution
    check_witness_search(args.t, args.window)
    length = max(4 * args.window, 4096)
    prefix = fixed_point_prefix(subst, length)
    witness = null_witness_search(prefix, args.t, args.window)
    if witness is None:
        print(
            f"no witness: no gap set of size {args.t} within a window of "
            f"{args.window} realizes all two-letter patterns "
            f"(prefix of {length} symbols)"
        )
        return 0
    tokens = subst.alphabet.letters
    a, b = witness.letters
    print(
        f"witness: gaps {list(witness.gaps)} with letters "
        f"{tokens[a]!r}, {tokens[b]!r} realize all {2 ** args.t} patterns"
    )
    return 0


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser and each subcommand's own parser, built on first use
    and kept.

    ``parse_args`` fills a fresh namespace on each call and never writes
    to a parser; each subcommand looks up the library at call time.
    """
    parser = argparse.ArgumentParser(
        prog="substdyn",
        description="Exact and empirical analysis of constant-length substitutions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full invariant report for a spec file")
    p_analyze.add_argument("file")
    fmt = p_analyze.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable report")
    fmt.add_argument("--text", action="store_true", help="plain text (default)")
    p_analyze.add_argument(
        "--m-max", type=int, default=None, help="also list d_m for m = 0..M"
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_verify = sub.add_parser(
        "verify", help="empirical separation slope vs the exact formula"
    )
    p_verify.add_argument("file")
    p_verify.add_argument("--points", type=int, default=256, help="orbit points M")
    p_verify.add_argument("--window", type=int, help="ignored: the densities are exact")
    p_verify.add_argument("--nu-max", type=float, default=0.25)
    p_verify.add_argument("--nu-min", type=float, default=0.004)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--csv", default=None, help="write (nu,count) rows here")
    p_verify.add_argument(
        "--density-csv", default=None, help="write (i,j,d1,ds) rows here"
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_synth = sub.add_parser(
        "synthesize", help="emit a two-letter spec with a prescribed complexity"
    )
    p_synth.add_argument("--k", type=int, required=True)
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--l", type=int, required=True)
    p_synth.add_argument("-o", "--output", default=None)
    p_synth.set_defaults(func=_cmd_synthesize)

    p_kernel = sub.add_parser("kernel", help="kernel monoid of the pure base")
    p_kernel.add_argument("file")
    p_kernel.add_argument("--m-max", type=int, default=8)
    p_kernel.set_defaults(func=_cmd_kernel)

    p_oracle = sub.add_parser(
        "oracle", help="brute-force witness search against nullness"
    )
    p_oracle.add_argument("file")
    p_oracle.add_argument("--t", type=int, default=2)
    p_oracle.add_argument("--window", type=int, default=16)
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser, sub.choices


def parse_args(argv: list[str]) -> argparse.Namespace:
    """What the full parser makes of ``argv``, but the arguments of a known
    subcommand go straight to that subcommand's parser.

    The full parser would hand them to it too, then refuse what it left
    over; this refuses the leftovers with the full parser's own message,
    so every usage line, message and exit code is the same.  Only the
    ``command`` attribute is missing.  Anything else (``--version``,
    ``-h``, no arguments, an unknown command) goes to the full parser.
    """
    parser, commands = build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def run(argv: list[str]) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SubstError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


#: Exit code when stdout is closed before the output is written, as by
#: ``substdyn kernel spec | head``: 128 + SIGPIPE, what a shell reports for
#: a program that SIGPIPE ends.
EXIT_BROKEN_PIPE = 141


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a full disk or closed pipe raises here, not at exit
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    except OSError as exc:  # any other failed write of stdout, as to /dev/full
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        code = PreconditionError.exit_code
    else:
        sys.exit(code)
    # as in the signal module's docs: point stdout at devnull, so that the
    # flush at exit does not raise again
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
