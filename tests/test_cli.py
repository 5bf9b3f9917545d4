"""Spec parsing, rendering, subcommands, exit codes, report stability."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import substdyn
from substdyn import InternalError, PreconditionError, SpecParseError
from substdyn.cli import parse_spec, render_spec, run
from substdyn.empirical import separation_profile, write_profile_csv

from conftest import (
    EXAMPLE_RULES,
    WIDE_ALPHABET_RULES,
    WIDE_KERNEL_RULES,
    example,
    patch_recurrence,
    random_primitive_substitution,
)
from oracles import brute_kernel_listing

E1_TEXT = """\
# leading comment
a -> aac
b -> acc   # trailing comment
c -> aab
"""


def write_spec(tmp_path, name, rules, comments=()):
    lines = [f"# {c}" for c in comments]
    lines += [f"{letter} -> {image}" for letter, image in rules.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestParseSpec:
    def test_basic(self):
        doc = parse_spec(E1_TEXT, "e1.sub")
        assert doc.substitution.rule_strings() == [
            "a -> aac",
            "b -> acc",
            "c -> aab",
        ]
        assert doc.comments == ("leading comment", "trailing comment")
        assert doc.source_name == "e1.sub"

    def test_compact_equals_spaced(self):
        compact = parse_spec("a -> ab\nb -> ba\n")
        spaced = parse_spec("a -> a b\nb -> b a\n")
        assert compact.substitution == spaced.substitution

    def test_multicharacter_letters(self):
        doc = parse_spec("01 -> 01 01 02\n02 -> 01 02 01\n")
        assert doc.substitution.length_k == 3
        assert doc.substitution.alphabet.letters == ("01", "02")

    def test_blank_lines_and_comment_only_lines(self):
        doc = parse_spec("\n# note\n\na -> ab\nb -> aa\n")
        assert doc.comments == ("note",)
        assert doc.substitution.length_k == 2

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "# only a comment\n",
            "a = ab\n",
            "a b -> ab\n",
            "a ->\n",
            "a -> ab\na -> ba\n",
            "a -> ab\nb -> az\n",
            "01 -> 01 02\n02 -> 0102 0102\n",  # unknown multi-char token
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(SpecParseError):
            parse_spec(text)

    def test_non_constant_length_is_a_precondition(self):
        with pytest.raises(PreconditionError, match="non-constant length"):
            parse_spec("a -> ab\nb -> a\n")


class TestRenderSpec:
    def test_round_trip_is_stable(self):
        doc = parse_spec(E1_TEXT)
        text = render_spec(doc)
        again = parse_spec(text)
        assert again.substitution == doc.substitution
        assert again.comments == doc.comments
        assert render_spec(again) == text

    @given(
        size=st.integers(2, 4),
        k=st.integers(1, 4),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_on_random_substitutions(self, size, k, data):
        letters = "abcd"[:size]
        rules = {
            letter: "".join(
                data.draw(st.sampled_from(letters)) for _ in range(k)
            )
            for letter in letters
        }
        text = "\n".join(f"{a} -> {w}" for a, w in rules.items()) + "\n"
        doc = parse_spec(text)
        assert parse_spec(render_spec(doc)).substitution == doc.substitution


class TestExitCodes:
    def test_analyze_success(self, tmp_path, capsys):
        path = write_spec(tmp_path, "e1.sub", EXAMPLE_RULES["e1"])
        assert run(["analyze", path]) == 0
        assert "lambda_s" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert run(["analyze", "/nonexistent/x.sub"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_spec_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.sub"
        path.write_bytes(b"a -> \xff\n")
        assert run(["analyze", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    @pytest.mark.parametrize("flag", ["--csv", "--density-csv"])
    def test_unwritable_verify_output(self, tmp_path, capsys, monkeypatch, flag):
        # refused before the stage: no separation_profile call, no output
        profiles = []
        stage = substdyn.cli.separation_profile

        def counted(*args, **kwargs):
            profiles.append(args)
            return stage(*args, **kwargs)

        monkeypatch.setattr(substdyn.cli, "separation_profile", counted)
        path = write_spec(tmp_path, "e1.sub", EXAMPLE_RULES["e1"])
        target = tmp_path / "missing" / "x"
        argv = ["verify", path, "--points", "32", "--window", "1024", flag, str(target)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert captured.out == ""
        assert profiles == []

    def test_failed_verify_leaves_no_new_output(self, tmp_path, capsys, monkeypatch):
        # the profile CSV is written before the probe fails; the file it
        # created goes, and a file that was there keeps its contents
        def broken(*args, **kwargs):
            raise InternalError("probe failed")

        monkeypatch.setattr(substdyn.cli, "lipschitz_ratio_probe", broken)
        path = write_spec(tmp_path, "e1.sub", EXAMPLE_RULES["e1"])
        created, kept = tmp_path / "profile.csv", tmp_path / "density.csv"
        kept.write_text("kept\n")
        argv = ["verify", path, "--points", "32", "--window", "1024",
                "--csv", str(created), "--density-csv", str(kept)]
        assert run(argv) == 4
        assert capsys.readouterr().err == "error: probe failed\n"
        assert not created.exists()
        assert kept.read_text() == "kept\n"

    def test_unwritable_synthesize_output(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x"
        argv = ["synthesize", "--k", "2", "--n", "2", "--l", "1", "-o", str(target)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ")

    def test_duplicate_rule(self, tmp_path, capsys):
        path = tmp_path / "dup.sub"
        path.write_text("a -> ab\na -> ba\nb -> aa\n")
        assert run(["analyze", str(path)]) == 1
        assert "duplicate" in capsys.readouterr().err

    def test_non_constant_length(self, tmp_path, capsys):
        path = tmp_path / "uneven.sub"
        path.write_text("a -> ab\nb -> a\n")
        assert run(["analyze", str(path)]) == 2
        assert "non-constant length" in capsys.readouterr().err

    def test_non_primitive(self, tmp_path, capsys):
        path = write_spec(tmp_path, "red.sub", {"a": "ab", "b": "bb"})
        assert run(["analyze", path]) == 2
        assert "primitive" in capsys.readouterr().err

    def test_length_one(self, tmp_path, capsys):
        path = write_spec(tmp_path, "k1.sub", {"a": "a"})
        assert run(["analyze", path]) == 2
        capsys.readouterr()

    def test_periodic_phase(self, tmp_path, capsys):
        path = write_spec(tmp_path, "swap.sub", {"a": "bab", "b": "aba"})
        for command in ("analyze", "kernel"):
            assert run([command, path]) == 2
            assert "periodic" in capsys.readouterr().err

    def test_height_above_k(self, tmp_path, capsys):
        path = write_spec(tmp_path, "h3.sub", {"a": "ab", "b": "ca", "c": "bc"})
        assert run(["analyze", "--json", path]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["height_h"] == 3
        assert report["finite_system"]

    def test_resource_cap(self, tmp_path, capsys):
        path = write_spec(tmp_path, "e5.sub", EXAMPLE_RULES["e5"])
        assert run(["analyze", path, "--m-max", "65"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["analyze", "kernel"])
    def test_negative_m_max(self, tmp_path, capsys, command):
        path = write_spec(tmp_path, "e5.sub", EXAMPLE_RULES["e5"])
        assert run([command, path, "--m-max", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "m_max" in captured.err

    def test_one_letter_is_a_finite_system(self, tmp_path, capsys):
        path = write_spec(tmp_path, "one.sub", {"a": "aa"})
        assert run(["analyze", "--json", path]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["finite_system"]
        assert report["ac"] == 0
        assert run(["kernel", path]) == 0
        assert "kernel monoid: 1 element(s)" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        assert run(["--version"]) == 0
        capsys.readouterr()

    def test_bad_usage(self, capsys):
        assert run([]) == 2
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", [
        ["analyze"], ["kernel"], ["verify", "--points", "32", "--window", "1024"],
    ])
    def test_full_stdout_exits_2(self, tmp_path, command):
        # every write to /dev/full fails with ENOSPC: one error line, the
        # code of an output path that cannot be written, no traceback
        path = write_spec(tmp_path, "e1.sub", EXAMPLE_RULES["e1"])
        env = {**os.environ, "PYTHONPATH": str(Path(substdyn.__file__).parents[1])}
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "substdyn.cli", *command, path],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write stdout: [Errno 28]")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


class TestRefusedBeforeTheStage:
    """A bad parameter exits before the expensive stage that would use it."""

    def count(self, monkeypatch, name) -> list:
        calls = []
        stage = getattr(substdyn.cli, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return stage(*args, **kwargs)

        monkeypatch.setattr(substdyn.cli, name, counted)
        return calls

    @pytest.mark.parametrize("m_max,code", [("-1", 2), ("65", 3)])
    def test_kernel_m_max(self, tmp_path, capsys, monkeypatch, m_max, code):
        path = write_spec(tmp_path, "e1.sub", EXAMPLE_RULES["e1"])
        calls = self.count(monkeypatch, "kernel_monoid")
        purified = self.count(monkeypatch, "pure_base")
        assert run(["kernel", path, "--m-max", m_max]) == code
        assert capsys.readouterr().out == ""
        assert calls == []
        assert purified == []

    @pytest.mark.parametrize("m_max,code", [("-1", 2), ("65", 3)])
    def test_analyze_m_max(self, tmp_path, capsys, monkeypatch, m_max, code):
        path = write_spec(tmp_path, "e1.sub", EXAMPLE_RULES["e1"])
        calls = self.count(monkeypatch, "analyze_pairs")
        assert run(["analyze", path, "--m-max", m_max]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "m_max" in captured.err
        assert calls == []

    @pytest.mark.parametrize("flag,value", [("--nu-max", "2"), ("--nu-min", "0")])
    def test_verify_nu_grid(self, tmp_path, capsys, monkeypatch, flag, value):
        path = write_spec(tmp_path, "e1.sub", EXAMPLE_RULES["e1"])
        calls = self.count(monkeypatch, "analyze_pairs")
        assert run(["verify", path, flag, value]) == 2
        assert "nu-min" in capsys.readouterr().err
        assert calls == []


    @pytest.mark.parametrize(
        "size,code",
        [
            (["--points", "16"], 2),
            (["--window", "512"], 2),
            (["--points", "8192", "--window", "8192"], 3),
            # on e1's 3 letters the bit-plane shift table of the M + N prefix
            # would take 128 MiB, and 1 GiB at the longest window that
            # WORD_BUDGET admits
            (["--points", "32", "--window", "8388608"], 3),
            (["--points", "32", "--window", "67108832"], 3),
            # the int32 M x M counts would take 256 MiB and 1 GiB
            (["--points", "8192", "--window", "4096"], 3),
            (["--points", "16384", "--window", "1024"], 3),
        ],
    )
    def test_verify_sample_size(self, tmp_path, capsys, monkeypatch, size, code):
        def unbuilt(*args):
            raise AssertionError("the prefix was built")

        path = write_spec(tmp_path, "e1.sub", EXAMPLE_RULES["e1"])
        calls = self.count(monkeypatch, "analyze_pairs")
        monkeypatch.setattr(substdyn.empirical, "fixed_point_array", unbuilt)
        started = time.perf_counter()
        assert run(["verify", path, *size]) == code
        assert time.perf_counter() - started < 0.25
        assert capsys.readouterr().out == ""
        assert calls == []

    @pytest.mark.parametrize(
        "params,code",
        [
            (["--window", "2000000"], 3),
            (["--t", "0"], 2),
            (["--t", "3", "--window", "2"], 2),
            (["--t", "4"], 3),
        ],
    )
    def test_oracle_parameters(self, tmp_path, capsys, monkeypatch, params, code):
        path = write_spec(tmp_path, "e1.sub", EXAMPLE_RULES["e1"])
        calls = self.count(monkeypatch, "fixed_point_prefix")
        assert run(["oracle", path, *params]) == code
        assert capsys.readouterr().out == ""
        assert calls == []


class TestAnalyzeOutput:
    def test_e1_text_report(self, tmp_path, capsys):
        path = write_spec(tmp_path, "e1.sub", EXAMPLE_RULES["e1"])
        assert run(["analyze", path, "--m-max", "4"]) == 0
        out = capsys.readouterr().out
        assert "lambda_s: 1.6180339887  [root of t^2 - t - 1]" in out
        assert "ac: 1.7794160410" in out
        assert "maximal-growth pairs: (ab), (ac), (bc)" in out
        assert "mef: Z_3 x Z/1Z" in out
        assert "d_4 = 8" in out

    def test_e2_integer_eigenvalue_is_flagged(self, tmp_path, capsys):
        path = write_spec(tmp_path, "e2.sub", EXAMPLE_RULES["e2"])
        assert run(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "[root of t^2 - 3*t; = 3 exactly]" in out
        assert "ac: 4.8188416793" in out
        assert "maximal-growth pairs: (ab), (ac)" in out

    def test_e4_purification_report(self, tmp_path, capsys):
        path = write_spec(tmp_path, "e4.sub", EXAMPLE_RULES["e4"])
        assert run(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "height: 2" in out
        assert "01 -> 01 01 02" in out
        assert "02 -> 01 02 01" in out
        assert "unpurified discrepancy eigenvalue = 3" in out
        assert "ac: 2.7095112914" in out

    def test_infinite_ac(self, tmp_path, capsys):
        path = write_spec(tmp_path, "tm.sub", EXAMPLE_RULES["thue_morse"])
        assert run(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "ac: infinity" in out
        assert "discrete spectrum: False" in out

    def test_json_report(self, tmp_path, capsys):
        path = write_spec(tmp_path, "e3.sub", EXAMPLE_RULES["e3"])
        assert run(["analyze", path, "--json", "--m-max", "3"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["report"]["ac"] == pytest.approx(2.0, abs=1e-9)
        assert body["report"]["height_h"] == 1
        assert body["d_m"] == [1, 3, 8, 20]
        assert body["source"] == path
        assert "timing_seconds" in body

    def test_json_stable_hash(self, tmp_path, capsys):
        path = write_spec(tmp_path, "e1.sub", EXAMPLE_RULES["e1"])
        bodies = []
        for _ in range(2):
            assert run(["analyze", path, "--json"]) == 0
            bodies.append(json.loads(capsys.readouterr().out))
        assert bodies[0]["stable_hash"] == bodies[1]["stable_hash"]
        # the hash covers everything except itself and the timing
        hashed = {
            k: v
            for k, v in bodies[0].items()
            if k not in ("stable_hash", "timing_seconds")
        }
        expected = hashlib.sha256(
            json.dumps(hashed, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        assert bodies[0]["stable_hash"] == expected


class TestVerifyCommand:
    def test_e5_quick_run(self, tmp_path, capsys):
        path = write_spec(tmp_path, "e5.sub", EXAMPLE_RULES["e5"])
        csv_path = tmp_path / "profile.csv"
        assert (
            run(
                [
                    "verify",
                    path,
                    "--points",
                    "64",
                    "--window",
                    "2048",
                    "--csv",
                    str(csv_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "exact ac: 1.0000000000" in out
        assert "fitted slope:" in out
        assert "min density ratio" in out
        assert csv_path.read_text().startswith("nu,count\n0.25,")

    @pytest.mark.parametrize(
        "rules,density_sha256",
        [
            # 3 letters in the classes {a} and {b, c}; ac is 2
            ({"a": "bbca", "b": "cabc", "c": "cacc"},
             "f86454ae802d7aac0541353f5803fdb5dd71067faf4eaf3a345a53af0ddd36d2"),
            # 6 letters in five classes, c and e sharing one
            ({"a": "ebc", "b": "dbe", "c": "aec", "d": "efb", "e": "aee", "f": "fbc"},
             "5f5a6fb07c30a6a9918fbfa180ab7c41d62a22b5dec2a76f03f09b6ba442be1d"),
        ],
        ids=["rules0", "rules1"],
    )
    def test_ratio_falling_under_the_substitution_is_no_bug(
        self, tmp_path, capsys, rules, density_sha256
    ):
        # the probe once pushed its windows through the substitution and
        # exited 4 when their ratio fell by more than 0.05, which no theorem
        # bounds; both specs fell so.  Their density rows are pinned byte for
        # byte, so every Python and numpy writes the same CSV.
        path = write_spec(tmp_path, "fall.sub", rules)
        density = tmp_path / "density.csv"
        argv = ["verify", path, "--points", "32", "--window", "1024",
                "--density-csv", str(density)]
        assert run(argv) == 0
        assert "min density ratio (S-restricted / plain):" in capsys.readouterr().out
        assert hashlib.sha256(density.read_bytes()).hexdigest() == density_sha256

    def test_saturated_profile_reports_na(self, tmp_path, capsys):
        path = write_spec(tmp_path, "tm.sub", EXAMPLE_RULES["thue_morse"])
        for points, window in (("32", "1024"), ("64", "2048")):
            assert run(["verify", path, "--points", points, "--window", window]) == 0
            out = capsys.readouterr().out
            assert "exact ac: infinity" in out
            assert "fitted slope: n/a" in out

    def test_density_csv(self, tmp_path, capsys):
        path = write_spec(tmp_path, "e3.sub", EXAMPLE_RULES["e3"])
        dens = tmp_path / "density.csv"
        assert (
            run(
                [
                    "verify",
                    path,
                    "--points",
                    "64",
                    "--window",
                    "2048",
                    "--density-csv",
                    str(dens),
                ]
            )
            == 0
        )
        capsys.readouterr()
        lines = dens.read_text().splitlines()
        assert lines[0] == "i,j,d1,ds"
        assert len(lines) == 1 + 16 * 15 // 2

    def test_one_letter(self, tmp_path, capsys, monkeypatch):
        # one letter still packs one bit plane: with none, the probe indexed
        # an empty table, and the budget checks priced the table at 0 bytes
        path = write_spec(tmp_path, "one.sub", {"a": "aa"})
        density = tmp_path / "density.csv"
        for extra in ([], ["--density-csv", str(density)]):
            assert run(["verify", path, "--points", "32", "--window", "1024", *extra]) == 0
            out = capsys.readouterr().out
            assert "exact ac: 0.0000000000" in out
            assert re.findall(r"^0\.\d{6} +(\d+)$", out, re.M) == ["1"] * 13
            assert "fitted slope: n/a" in out
        rows = density.read_text().splitlines()
        assert rows[0] == "i,j,d1,ds"
        assert rows[1:] == [f"{i},{j},0.0,0.0" for i in range(16) for j in range(i + 1, 16)]

        def unbuilt(*args):
            raise AssertionError("the prefix was built")

        monkeypatch.setattr(substdyn.empirical, "fixed_point_array", unbuilt)
        started = time.perf_counter()
        assert run(["verify", path, "--points", "32", "--window", "16777216"]) == 3
        assert time.perf_counter() - started < 0.25
        assert "shift table" in capsys.readouterr().err

    def test_bad_grid_bounds(self, tmp_path, capsys):
        path = write_spec(tmp_path, "e5.sub", EXAMPLE_RULES["e5"])
        assert run(["verify", path, "--nu-min", "0"]) == 2
        capsys.readouterr()

    def test_default_grid_is_the_library_grid(self, tmp_path, capsys):
        """At the default --nu-max/--nu-min, verify samples separation_profile's grid."""
        path = write_spec(tmp_path, "e5.sub", EXAMPLE_RULES["e5"])
        cli_csv = tmp_path / "cli.csv"
        argv = ["verify", path, "--points", "32", "--window", "1024", "--csv", str(cli_csv)]
        assert run(argv) == 0
        capsys.readouterr()
        library_csv = tmp_path / "library.csv"
        write_profile_csv(separation_profile(example("e5"), 32, 1024), str(library_csv))
        assert cli_csv.read_bytes() == library_csv.read_bytes()


class TestVerifyGolden:
    """verify's stdout and both CSV files, pinned byte for byte."""

    # sha256 of stdout without its elapsed: line, of --csv and of --density-csv
    PINS = {
        "e1": (
            "29d8e64d543f8d3887a17282991ddb1c03ce070d775eeec69346ca22bde356e3",
            "02c29fac6fc76ba584a8db57bacc19d51d41920acb2f4bbe437a8f8c7d9ce6e0",
            "a0263547fd66e3e8e0d7413b2d59466184c505e60cef70d812d34c656ed2ac74",
        ),
        "e3": (
            "f96d406f7eb54daf86dffdf92ab805ea0b852ce35073eac4eb3959546a4b46a2",
            "4946c84d1322222360e633de8cf04e260c3fef9bd270b9d866e8336431fb1568",
            "dd0b1215e00cf635a2202b1ee38f6ded35ecb6bb33b5264d90a7e3665a8be2ab",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_outputs(self, tmp_path, capsys, name):
        path = write_spec(tmp_path, f"{name}.sub", EXAMPLE_RULES[name])
        profile, density = tmp_path / "profile.csv", tmp_path / "density.csv"
        argv = ["verify", path, "--points", "64", "--window", "2048", "--seed", "7",
                "--csv", str(profile), "--density-csv", str(density)]
        assert run(argv) == 0
        out = "".join(
            line
            for line in capsys.readouterr().out.splitlines(keepends=True)
            if not line.startswith("elapsed:")
        )
        got = tuple(
            hashlib.sha256(data).hexdigest()
            for data in (out.encode(), profile.read_bytes(), density.read_bytes())
        )
        assert got == self.PINS[name]


class TestExactGolden:
    """analyze --json and kernel output on every example, pinned."""

    # stable_hash of analyze --json --m-max 12, sha256 of kernel --m-max 12
    PINS = {
        "e1": (
            "36c9f146bbf5fda5b0f0afcf55aa93b10d0fe7628eeeb278a5d5a39c8e375fde",
            "1494622aa71c48d35294e5b5a97925a85c49031e16e437e940ce5f918d615b9d",
        ),
        "e2": (
            "0ebb93faba9b7a5ad2be8761ac26cb724050e2e1f244c8b18431de4343b7cbb6",
            "57802fdba01ad6ca9c8b305b54bf4aa9351a92f2c79d5ed52ba0cd5f9c811324",
        ),
        "e3": (
            "9de33387c3630145920cbd103827d02ffdea83e53d59827506965b1139600dfe",
            "9efbfffcc5fdfa922a22bb0a2945066c3d9165a431cd6bd8c8e5b6cd0389a231",
        ),
        "e4": (
            "0d0f7834a7733a300fcfdbd04e2000d26beb47c936f7b568a6504efc52ea3d9f",
            "a5285a355fc82df53fb5f9e250171ff98bc51a6c69a120f174b376fa84c6cb5d",
        ),
        "e5": (
            "b3954552ade5e6d88a2c32e0c540e12b324d58a41445f55f003c49c15f431484",
            "35422afbe9219548264566db394094cfa99c2144886776ab234b62cb9112c97b",
        ),
        "e6": (
            "a3ad828b076253eaa4e695e3b9af2615fc50acdda20fafcc7362564d88941973",
            "1ebf45c0afa1a1cfd32a548836f32bdd2c38f225b561421cbe9495209b617d63",
        ),
        "period_doubling": (
            "57c1b0419c6835f110911596ad1bc3208c1b3524de770dbe557b5999fe80b432",
            "6fe69ff95dccd60cadf56b6f1ca17e1a11b86670956d58ab48e09b20b46b49f2",
        ),
        "thue_morse": (
            "280a4b11e11c96a609df7de158896e572b31690ce527b3abf34ce5f3df46d518",
            "905721d1a56b4d5abd95d7eae0a31d0ffcf0e97fa4b3c20f1812a645acc31702",
        ),
    }

    @pytest.mark.parametrize("name", sorted(EXAMPLE_RULES))
    def test_outputs(self, tmp_path, capsys, monkeypatch, name):
        # stable_hash covers the source name, so it is a fixed relative path
        monkeypatch.chdir(tmp_path)
        write_spec(tmp_path, f"{name}.sub", EXAMPLE_RULES[name])
        assert run(["analyze", "--json", "--m-max", "12", f"{name}.sub"]) == 0
        stable = json.loads(capsys.readouterr().out)["stable_hash"]
        assert run(["kernel", "--m-max", "12", f"{name}.sub"]) == 0
        kernel = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert (stable, kernel) == self.PINS[name]


class TestSynthesizeCommand:
    def test_stdout_spec(self, capsys):
        assert run(["synthesize", "--k", "2", "--n", "4", "--l", "3"]) == 0
        out = capsys.readouterr().out
        assert "# synthesized for k=2 n=4 l=3" in out
        assert "# target ac = 1.656289" in out
        assert "0 -> 1110100000000000" in out
        assert "1 -> 0000100000000000" in out

    def test_written_file_round_trips(self, tmp_path, capsys):
        out_path = tmp_path / "synth.sub"
        assert (
            run(["synthesize", "--k", "3", "--n", "1", "--l", "2", "-o", str(out_path)])
            == 0
        )
        assert "wrote" in capsys.readouterr().out
        assert run(["analyze", str(out_path)]) == 0
        report = capsys.readouterr().out
        assert "ac: 2.7095112914" in report

    def test_rejects_bad_parameters(self, capsys):
        assert run(["synthesize", "--k", "2", "--n", "2", "--l", "4"]) == 2
        capsys.readouterr()

    def test_rule_length_over_word_budget(self, capsys):
        assert run(["synthesize", "--k", "10", "--n", "30", "--l", "1"]) == 3
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("k,n", [(2, 23), (3, 14), (4, 12), (2**22 + 1, 1)])
    def test_smallest_refused_lengths_exit_3_at_once(self, capsys, k, n):
        # the shortest rules over the 2^22-symbol synthesis budget, each
        # refused before a symbol is built
        started = time.perf_counter()
        assert run(["synthesize", "--k", str(k), "--n", str(n), "--l", "1"]) == 3
        assert time.perf_counter() - started < 0.25
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: synthesize_target_ac: rule length {k}^{n} exceeds the "
            "4194304-symbol budget\n"
        )


class TestKernelCommand:
    def test_e6_monoid(self, tmp_path, capsys):
        path = write_spec(tmp_path, "e6.sub", EXAMPLE_RULES["e6"])
        assert run(["kernel", path]) == 0
        out = capsys.readouterr().out
        assert "kernel monoid: 5 element(s)" in out
        assert "id" in out and "(empty word)" in out
        assert "0->0, 1->2, 2->0" in out
        assert "via phi_1" in out
        assert "constant elements: 3" in out
        assert "d_8 = 9" in out

    def test_height_two_goes_through_pure_base(self, tmp_path, capsys):
        path = write_spec(tmp_path, "e4.sub", EXAMPLE_RULES["e4"])
        assert run(["kernel", path, "--m-max", "3"]) == 0
        out = capsys.readouterr().out
        assert "height 2; kernel computed on the pure base" in out

    def test_wide_draw_pinned(self, tmp_path, capsys):
        path = write_spec(tmp_path, "wide.sub", WIDE_KERNEL_RULES)
        assert run(["kernel", "--m-max", "12", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("kernel monoid: 36942 element(s)\n")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e8a08b141f1552b9f7d5554b3ecc03b168e73c42793440a8c29e6e995b23701d"
        )

    def test_eight_letter_draw_pinned(self, tmp_path, capsys):
        # 8^8 maps exceed KERNEL_BUDGET, so the closure keys each map by its
        # bytes instead of indexing the map space
        rules = {"a": "efa", "b": "dcg", "c": "ecb", "d": "eea",
                 "e": "che", "f": "chg", "g": "cdg", "h": "fea"}
        path = write_spec(tmp_path, "eight.sub", rules)
        assert run(["kernel", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("kernel monoid: 449 element(s)\n")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3bb4bf88cd7d7909e42df4501255448cadcc6a9e3548fd3fbe79fcf29468e9cb"
        )

    def test_wide_draw_listing_memory(self, tmp_path):
        # the listing holds the cells and spelled words of one block at a time
        path = write_spec(tmp_path, "wide.sub", WIDE_KERNEL_RULES)
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                assert run(["kernel", "--m-max", "12", path]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.getvalue().startswith("kernel monoid: 36942 element(s)\n")
        assert peak < 15 * 10**6

    def test_listing_matches_oracle_sweep(self, tmp_path, capsys):
        # 80 height-1 draws on up to 6 letters with k up to 5
        rng = random.Random(18)
        checked = 0
        while checked < 80:
            subst = random_primitive_substitution(rng, max_letters=6, max_k=5)
            if substdyn.height(subst) != 1:
                continue
            m_max = rng.randrange(9)
            path = tmp_path / f"draw{checked}.sub"
            path.write_text("\n".join(subst.rule_strings()) + "\n", encoding="utf-8")
            assert run(["kernel", "--m-max", str(m_max), str(path)]) == 0
            out = capsys.readouterr().out
            assert out == brute_kernel_listing(subst, m_max), subst.rule_strings()
            checked += 1

    def test_listing_pads_mixed_width_letters(self, tmp_path, capsys):
        # letters of 1, 2 and 4 characters, one of them not ASCII: labels of
        # 23, 24 and 25 characters check the padding to 24 at its edge
        rng = random.Random(21)
        widths = set()
        checked = 0
        while checked < 40:
            draw = random_primitive_substitution(rng, max_letters=3, max_k=4)
            if substdyn.height(draw) != 1:
                continue
            names = rng.sample(("α", "bb", "cccc"), draw.alphabet.size)
            subst = substdyn.Substitution(substdyn.Alphabet(names), draw.rules)
            path = tmp_path / f"draw{checked}.sub"
            path.write_text("\n".join(subst.rule_strings()) + "\n", encoding="utf-8")
            assert run(["kernel", "--m-max", "3", str(path)]) == 0
            out = capsys.readouterr().out
            assert out == brute_kernel_listing(subst, 3), subst.rule_strings()
            widths.update(len(line[2:line.index(" via ")].rstrip())
                          for line in out.splitlines() if " via " in line)
            checked += 1
        assert {23, 24, 25} <= widths

    def test_wide_alphabet_listing_matches_oracle(self, tmp_path, capsys):
        rules = {a: " ".join(image) for a, image in WIDE_ALPHABET_RULES.items()}
        path = write_spec(tmp_path, "x300.sub", rules)
        assert run(["kernel", "--m-max", "4", path]) == 0
        out = capsys.readouterr().out
        subst = substdyn.Substitution.from_strings(WIDE_ALPHABET_RULES)
        assert out == brute_kernel_listing(subst, 4)
        assert "kernel monoid: 600 element(s)\n" in out
        assert "constant elements: 300\n" in out

    def test_closed_stdout_exits_141(self, tmp_path):
        # the 4.5 MB listing is far more than a pipe buffer holds, so its
        # write fails once the reader has gone, as under "| head -n 1"
        path = write_spec(tmp_path, "wide.sub", WIDE_KERNEL_RULES)
        env = {**os.environ, "PYTHONPATH": str(Path(substdyn.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "substdyn.cli", "kernel", "--m-max", "12", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            assert proc.stdout.readline() == b"kernel monoid: 36942 element(s)\n"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 141 == substdyn.cli.EXIT_BROKEN_PIPE
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert "Traceback" not in err

    def test_over_budget_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(substdyn.invariants, "KERNEL_BUDGET", 1000)
        path = write_spec(tmp_path, "wide.sub", WIDE_KERNEL_RULES)
        assert run(["kernel", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "kernel_monoid: more than 1000 elements" in captured.err


PIPE_SPEC = """\
p| -> p |q p q p|
q -> q p x4 p| x4
|q -> |q p q p x4
p -> p| q p| q p|
x4 -> x4 p q p| |q
"""


class TestPipeLetters:
    """Letters containing ``|`` at height 2 once made two blocks share a name."""

    @pytest.mark.parametrize("command", ["analyze", "kernel"])
    def test_exits_0_with_distinct_block_names(self, tmp_path, capsys, command):
        path = tmp_path / "pipe.sub"
        path.write_text(PIPE_SPEC, encoding="utf-8")
        assert run([command, str(path)]) == 0
        out = capsys.readouterr().out
        # the blocks (p|, q) and (p, |q), joined by "}", the first free code point
        assert "p|}q" in out and "p}|q" in out and "p||q" not in out


class TestColumnSetBudget:
    """The column-set closure of the 6-letter draw reaches all 63 sets."""

    @pytest.mark.parametrize("argv", [["kernel"], ["analyze", "--m-max", "3"]])
    def test_over_budget_exits_3(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setattr(substdyn.core, "COLUMN_SET_BUDGET", 62)
        path = write_spec(tmp_path, "wide.sub", WIDE_KERNEL_RULES)
        assert run(argv + [path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "column_sets: more than 62 sets on 6 letters with k = 3" in captured.err


class TestStageCounts:
    """Each command builds every expensive stage once."""

    STAGES = ("pure_base", "column_sets", "kernel_monoid", "pair_rules",
              "decompose", "minimal_polynomial")
    # (command, example) -> calls of each stage, then of Substitution.columns;
    # at height 2 the unpurified rate is k by Dekking's labelling, so the raw
    # pair matrix is never built.  The verdicts are decided on the pair
    # substitution, so only d_m needs the column-set graph: plain analyze
    # and synthesize read no columns, analyze builds no monoid, and kernel
    # builds it only for its listing.  The graph records its edges in the
    # one breadth-first closure that finds its vertices, so it calls no
    # column_sets (which lists the vertices alone) and computes each image
    # set once.  The generators are read once each by that closure and by
    # kernel_monoid.  Only the report prints the critical polynomial, so
    # verify builds none, and synthesize checks its result on the pair
    # analysis alone.
    EXPECTED = {
        ("analyze", "e1"): (1, 0, 0, 1, 1, 1, 1),
        ("analyze", "e4"): (1, 0, 0, 1, 1, 1, 1),
        ("kernel", "e1"): (1, 0, 1, 0, 0, 0, 2),
        ("kernel", "e4"): (1, 0, 1, 0, 0, 0, 2),
        ("plain_analyze", "e1"): (1, 0, 0, 1, 1, 1, 0),
        ("plain_analyze", "e4"): (1, 0, 0, 1, 1, 1, 0),
        ("synthesize", "k2_n3_l3"): (1, 0, 0, 1, 1, 0, 0),
        ("verify", "e1"): (1, 0, 0, 1, 1, 0, 0),
    }
    ARGV = {
        "analyze": ["analyze", "--json", "--m-max", "12"],
        "kernel": ["kernel"],
        "plain_analyze": ["analyze", "--json"],
        "synthesize": ["synthesize", "--k", "2", "--n", "3", "--l", "3"],
        "verify": ["verify", "--points", "32", "--window", "1024"],
    }
    MODULES = ("core", "structure", "matrices", "discrepancy", "invariants",
               "empirical", "cli")

    def count_calls(self, monkeypatch) -> dict[str, int]:
        calls = dict.fromkeys(self.STAGES + ("columns",), 0)

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        # patch the name in every module that imported it
        modules = [getattr(substdyn, m) for m in self.MODULES]
        for name in self.STAGES:
            home = next(vars(m)[name] for m in modules if name in vars(m))
            for module in modules:
                if vars(module).get(name) is home:
                    monkeypatch.setattr(module, name, counting(name, home))
        columns = substdyn.Substitution.columns
        monkeypatch.setattr(
            substdyn.Substitution, "columns", counting("columns", columns)
        )
        return calls

    @pytest.mark.parametrize("command,name", sorted(EXPECTED))
    def test_stage_calls(self, tmp_path, capsys, monkeypatch, command, name):
        argv = list(self.ARGV[command])
        if command != "synthesize":
            argv.append(write_spec(tmp_path, f"{name}.sub", EXAMPLE_RULES[name]))
        if command == "verify":
            argv += ["--density-csv", str(tmp_path / "density.csv")]
        calls = self.count_calls(monkeypatch)
        assert run(argv) == 0
        capsys.readouterr()
        got = tuple(calls[s] for s in self.STAGES + ("columns",))
        assert got == self.EXPECTED[command, name]


class TestPreconditionsCheckedOnce:
    """An op tests primitivity and height once per substitution it analyses:
    the input and, at height > 1, its pure base.  kernel_monoid keeps its
    own checks, so kernel tests the pure base once more; separation_profile
    refuses a non-primitive input itself, so verify tests the input once
    more.  The ratio probe and the density rows build their prefixes from
    the checked pure base and test nothing; the empirical module is patched
    too, so a check it made would be counted."""

    NAMES = ("is_primitive", "_dekking_height")
    EXPECTED = {
        ("analyze", "e1"): (1, 1),
        ("analyze", "e4"): (2, 2),
        ("kernel", "e1"): (2, 2),
        ("kernel", "e4"): (3, 3),
        ("verify", "e1"): (2, 1),
        ("verify", "e4"): (3, 2),
    }
    ARGV = {
        "analyze": ["analyze", "--json", "--m-max", "12"],
        "kernel": ["kernel"],
        "verify": ["verify", "--points", "32", "--window", "1024"],
    }

    @pytest.mark.parametrize("command,name", sorted(EXPECTED))
    def test_check_calls(self, tmp_path, capsys, monkeypatch, command, name):
        path = write_spec(tmp_path, f"{name}.sub", EXAMPLE_RULES[name])
        calls = dict.fromkeys(self.NAMES, 0)

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        modules = [
            substdyn.core, substdyn.structure, substdyn.invariants, substdyn.empirical
        ]
        for check in self.NAMES:
            home = getattr(substdyn.structure, check)
            for module in modules:
                if vars(module).get(check) is home:
                    monkeypatch.setattr(module, check, counting(check, home))
        argv = self.ARGV[command] + [path]
        if command == "verify":
            argv += ["--density-csv", str(tmp_path / "density.csv")]
        assert run(argv) == 0
        capsys.readouterr()
        assert tuple(calls[c] for c in self.NAMES) == self.EXPECTED[command, name]

    @pytest.mark.parametrize("command,rules,message", [
        ("analyze", {"a": "a"}, "classify requires length k >= 2"),
        ("analyze", {"a": "ab", "b": "bb"}, "pure_base requires a primitive substitution"),
        ("kernel", {"a": "ab", "b": "bb"}, "pure_base requires a primitive substitution"),
        ("verify", {"a": "a"}, "amorphic_complexity requires length k >= 2"),
        ("verify", {"a": "ab", "b": "bb"}, "pure_base requires a primitive substitution"),
    ])
    def test_refusals_keep_their_messages(self, tmp_path, capsys, command, rules, message):
        path = write_spec(tmp_path, "bad.sub", rules)
        assert run([command, path]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestParserReuse:
    """run builds its parser once per process and keeps no state between calls."""

    # the JSON report's timing and verify's elapsed line differ between runs
    VARYING = re.compile(r'(?<="timing_seconds": )[0-9.e-]+|(?<=elapsed: )[0-9.]+')

    def test_no_parser_built_after_the_first_call(self, tmp_path, capsys, monkeypatch):
        path = write_spec(tmp_path, "e1.sub", EXAMPLE_RULES["e1"])
        assert run(["kernel", path]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for argv in (["analyze", path], ["kernel", path], ["--version"], ["frobnicate"]):
            run(argv)
        capsys.readouterr()
        assert built == []

    def fresh(self, argv: list[str], env: dict) -> tuple:
        """(exit code, stdout, stderr) of argv as the first call of a new process."""
        proc = subprocess.run(
            [sys.executable, "-c", "from substdyn.cli import main; main()", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        return proc.returncode, self.VARYING.sub("0", proc.stdout), proc.stderr

    def test_interleaved_calls_match_fresh_processes(self, tmp_path, capsys, monkeypatch):
        path = write_spec(tmp_path, "e1.sub", EXAMPLE_RULES["e1"])
        # usage text is wrapped to the terminal width, read at call time
        monkeypatch.setenv("COLUMNS", "80")
        env = {**os.environ, "PYTHONPATH": str(Path(substdyn.__file__).parents[1])}
        sample = ["--points", "32", "--window", "1024"]
        calls = [
            ["analyze", "--json", "--text", path],
            ["--version"],
            ["analyze", "--json", "--m-max", "12", path],
            ["analyze", "--json", path],
            ["verify", *sample, path],
            ["verify", path, *sample, "--seed", "7"],
            ["verify", *sample, path],
        ]
        seeds, nu_max = [], []
        cli = substdyn.cli
        probe, grid = cli.lipschitz_ratio_probe, cli.build_nu_grid

        def recording_probe(*args, **kwargs):
            seeds.append(kwargs["seed"])
            return probe(*args, **kwargs)

        def recording_grid(*args, **kwargs):
            nu_max.append(args[0])
            return grid(*args, **kwargs)

        monkeypatch.setattr(cli, "lipschitz_ratio_probe", recording_probe)
        monkeypatch.setattr(cli, "build_nu_grid", recording_grid)
        results = []
        for argv in calls:
            code = run(argv)
            out, err = capsys.readouterr()
            results.append((code, self.VARYING.sub("0", out), err))

        assert [r[0] for r in results] == [2, 0, 0, 0, 0, 0, 0]
        assert "not allowed with argument --json" in results[0][2]
        assert results[1][1:] == (f"{substdyn.__version__}\n", "")
        assert "d_m" in json.loads(results[2][1])
        assert "d_m" not in json.loads(results[3][1])
        assert seeds == [substdyn.DEFAULT_SEED, 7, substdyn.DEFAULT_SEED]
        assert nu_max == [0.25, 0.25, 0.25]
        assert results[6] == results[4]
        for argv, got in zip(calls[:6], results):
            assert got == self.fresh(argv, env), argv

    ARGV = [
        # valid
        ["analyze", "e1.sub"],
        ["analyze", "--json", "e1.sub", "--m-max", "12"],
        ["analyze", "--m-max=3", "--text", "e1.sub"],
        ["analyze", "--js", "e1.sub"],
        ["kernel", "--m-max", "12", "e1.sub"],
        ["kernel", "--m", "3", "e1.sub"],
        ["kernel", "--", "e1.sub"],
        ["verify", "e1.sub", "--seed", "5", "--points", "512", "--window", "16384"],
        ["verify", "e1.sub", "--csv", "out.csv", "--density-csv", "d.csv", "--nu-min", "0.01"],
        ["synthesize", "--k", "2", "--n", "3", "--l", "1", "-o", "x.sub"],
        ["oracle", "e1.sub", "--t", "3", "--window", "8"],
        # refused by a subcommand's parser, or with leftovers
        ["analyze"],
        ["analyze", "--json", "--text", "e1.sub"],
        ["analyze", "e1.sub", "extra"],
        ["analyze", "e1.sub", "extra", "--bogus", "more"],
        ["kernel", "--m-max", "x", "e1.sub"],
        ["kernel", "e1.sub", "--", "x"],
        ["kernel", "-h"],
        ["verify", "e1.sub", "--version"],
        ["verify", "--points"],
        ["synthesize", "--k", "2"],
        ["synthesize", "--k", "2", "--n", "3", "--l", "1", "--help"],
        ["oracle", "e1.sub", "e2.sub"],
        # the full parser's own
        [],
        ["--version"],
        ["-h"],
        ["frobnicate", "e1.sub"],
        ["--", "kernel", "e1.sub"],
    ]

    @staticmethod
    def parsed(parse, argv) -> tuple:
        """(namespace without ``command``, exit code, stdout, stderr) of parse(argv)."""
        out, err = io.StringIO(), io.StringIO()
        namespace, code = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                namespace = vars(parse(argv))
            except SystemExit as exc:
                code = exc.code
        if namespace is not None:
            namespace.pop("command", None)
        return namespace, code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", ARGV, ids=" ".join)
    def test_subcommand_parser_matches_the_full_parser(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        full, commands = substdyn.cli.build_parser()
        got = self.parsed(substdyn.cli.parse_args, argv)
        assert got == self.parsed(full.parse_args, argv)
        assert (got[0] is None) == (got[1] is not None)
        if argv and argv[0] in commands and got[1] == 2:
            assert got[3].startswith("usage: substdyn")


class TestSeededSweep:
    """Seeded specs of 1-5 letters with k from 1 to 4 through every
    subcommand: each call exits 0-3, and none raises."""

    def test_every_exit_is_documented(self, tmp_path, capsys):
        density = str(tmp_path / "density.csv")
        argvs = (
            ["analyze"],
            ["analyze", "--json", "--m-max", "3"],
            ["kernel", "--m-max", "2"],
            ["oracle", "--t", "2", "--window", "8"],
            ["verify", "--points", "32", "--window", "1024"],
            ["verify", "--points", "32", "--window", "1024", "--density-csv", density],
        )
        rng = random.Random(30)
        for draw in range(150):
            letters = "abcde"[: rng.randint(1, 5)]
            k = rng.randint(1, 4)
            rules = {a: "".join(rng.choice(letters) for _ in range(k)) for a in letters}
            path = write_spec(tmp_path, "draw.sub", rules)
            for command, *options in argvs:
                assert run([command, path, *options]) in (0, 1, 2, 3), (rules, command, options)
                capsys.readouterr()


class TestMinimalPolynomialCheck:
    """The modular stage of the critical polynomial is checked exactly: a
    wrong residue costs a restart, and a stage that is never right exits 4
    and names the stage."""

    def test_one_bad_prime_still_certifies(self, tmp_path, capsys, monkeypatch):
        path = write_spec(tmp_path, "e1.sub", EXAMPLE_RULES["e1"])
        patch_recurrence(monkeypatch, lambda call: call == 0)
        assert run(["analyze", path]) == 0
        assert "[root of t^2 - t - 1]" in capsys.readouterr().out

    def test_stage_never_right_exits_4(self, tmp_path, capsys, monkeypatch):
        order = substdyn.analyze_pairs(example("e1")).critical.order
        path = write_spec(tmp_path, "e1.sub", EXAMPLE_RULES["e1"])
        patch_recurrence(monkeypatch, lambda call: True)
        assert run(["analyze", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"minimal_polynomial: order {order}: no polynomial certified" in captured.err


class TestOracleCommand:
    def test_thue_morse_witness(self, tmp_path, capsys):
        path = write_spec(tmp_path, "tm.sub", EXAMPLE_RULES["thue_morse"])
        assert run(["oracle", path]) == 0
        out = capsys.readouterr().out
        assert "witness: gaps [0, 1]" in out

    def test_window_shorter_than_t(self, tmp_path, capsys):
        path = write_spec(tmp_path, "tm.sub", EXAMPLE_RULES["thue_morse"])
        assert run(["oracle", path, "--window", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "window" in captured.err

    def test_periodic_word_reports_none(self, tmp_path, capsys):
        path = write_spec(tmp_path, "per.sub", {"a": "ab", "b": "ab"})
        assert run(["oracle", path]) == 0
        out = capsys.readouterr().out
        assert "no witness" in out
