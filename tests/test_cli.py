"""Spec parsing, rendering, subcommands, exit codes, report stability."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import substdyn
from substdyn import PreconditionError, SpecParseError
from substdyn.cli import parse_spec, render_spec, run

from conftest import EXAMPLE_RULES, example

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

    def test_version_flag(self, capsys):
        assert run(["--version"]) == 0
        capsys.readouterr()

    def test_bad_usage(self, capsys):
        assert run([]) == 2
        assert run(["frobnicate"]) == 2
        capsys.readouterr()


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

    def test_saturated_profile_reports_na(self, tmp_path, capsys):
        path = write_spec(tmp_path, "tm.sub", EXAMPLE_RULES["thue_morse"])
        assert run(["verify", path, "--points", "64", "--window", "2048"]) == 0
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

    def test_bad_grid_bounds(self, tmp_path, capsys):
        path = write_spec(tmp_path, "e5.sub", EXAMPLE_RULES["e5"])
        assert run(["verify", path, "--nu-min", "0"]) == 2
        capsys.readouterr()


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


class TestStageCounts:
    """Each command builds every expensive stage once."""

    STAGES = ("pure_base", "column_sets", "kernel_monoid", "decompose")
    # (command, example) -> calls of each stage; at height 2 the second
    # decompose is the unpurified diagnostic's matrix
    EXPECTED = {
        ("analyze", "e1"): (1, 1, 1, 1),
        ("analyze", "e4"): (1, 1, 1, 2),
        ("kernel", "e1"): (1, 0, 1, 0),
        ("kernel", "e4"): (1, 0, 1, 0),
    }
    MODULES = ("core", "structure", "matrices", "discrepancy", "invariants",
               "empirical", "cli")

    def count_calls(self, monkeypatch) -> dict[str, int]:
        calls = dict.fromkeys(self.STAGES + ("compose",), 0)

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
        compose = substdyn.ColumnMap.compose
        monkeypatch.setattr(substdyn.ColumnMap, "compose", counting("compose", compose))
        return calls

    @pytest.mark.parametrize("command,name", sorted(EXPECTED))
    def test_stage_calls(self, tmp_path, capsys, monkeypatch, command, name):
        path = write_spec(tmp_path, f"{name}.sub", EXAMPLE_RULES[name])
        pure = substdyn.pure_base(example(name)).pure_base
        monoid_size = len(substdyn.kernel_monoid(pure).elements)
        argv = ["analyze", "--json", "--m-max", "12"] if command == "analyze" else ["kernel"]
        calls = self.count_calls(monkeypatch)
        assert run(argv + [path]) == 0
        capsys.readouterr()
        assert tuple(calls[s] for s in self.STAGES) == self.EXPECTED[command, name]
        # one composition per (element, generator): d_m reuses the closure
        assert calls["compose"] == monoid_size * pure.length_k


class TestOracleCommand:
    def test_thue_morse_witness(self, tmp_path, capsys):
        path = write_spec(tmp_path, "tm.sub", EXAMPLE_RULES["thue_morse"])
        assert run(["oracle", path]) == 0
        out = capsys.readouterr().out
        assert "witness: gaps [0, 1]" in out

    def test_periodic_word_reports_none(self, tmp_path, capsys):
        path = write_spec(tmp_path, "per.sub", {"a": "ab", "b": "ab"})
        assert run(["oracle", path]) == 0
        out = capsys.readouterr().out
        assert "no witness" in out
