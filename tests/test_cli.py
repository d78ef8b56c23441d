"""Exit-code contract and output shape of the command line."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from felicity import THEORY_NAMES
from felicity.cli import main
from felicity.sexpr import MAX_DEPTH

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

ALL_FIXTURES = sorted(str(p) for p in FIXTURES.glob("*.sexp"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_run_prints_aggregate(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(FIXTURES / "magri-1.sexp"))
        assert code == 0
        assert "aggregate: odd" in out

    def test_run_exit_zero_regardless_of_verdicts(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", str(FIXTURES / "magri-1.sexp"), str(FIXTURES / "magri-5.sexp")
        )
        assert code == 0
        assert "aggregate: odd" in out and "aggregate: felicitous" in out

    def test_run_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--format", "json", str(FIXTURES / "magri-4.sexp")
        )
        assert code == 0
        data = json.loads(out)
        assert data["scenario"] == "magri-4"
        assert data["aggregate"] == "odd"
        assert {t["name"]: t["verdict"] for t in data["theories"]}[
            "indirect-contradiction"
        ] == "odd"

    @pytest.mark.parametrize("theory", THEORY_NAMES)
    def test_one_theory_gives_its_row_of_the_full_run(self, capsys, theory):
        # judged alone, a theory gives the row it has among the others, and
        # the aggregate is that row's verdict
        args = ("run", "--format", "json", "--explain")
        code, out, _ = run_cli(capsys, *args, *ALL_FIXTURES)
        assert code == 0
        full = [json.loads(line) for line in out.splitlines()]
        code, out, _ = run_cli(capsys, *args, "--theories", theory, *ALL_FIXTURES)
        assert code == 0
        alone = [json.loads(line) for line in out.splitlines()]
        assert len(alone) == len(full) == len(ALL_FIXTURES)
        for whole, one in zip(full, alone):
            row = next(r for r in whole["theories"] if r["name"] == theory)
            assert one == {**whole, "aggregate": row["verdict"], "theories": [row]}

    def test_run_json_one_object_per_line(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--format",
            "json",
            str(FIXTURES / "magri-1.sexp"),
            str(FIXTURES / "magri-4.sexp"),
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert [json.loads(l)["scenario"] for l in lines] == ["magri-1", "magri-4"]

    def test_nonexistent_path(self, capsys):
        code, _, err = run_cli(capsys, "run", "no/such/file.sexp")
        assert code == 2
        assert "no/such/file.sexp" in err

    def test_parse_error_names_file_and_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.sexp"
        bad.write_text("(scenario broken\n  (predicates (a :stative)\n")
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        assert "bad.sexp" in err and "line" in err and "col" in err

    def test_non_utf8_file_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "x.sexp"
        bad.write_bytes(b"\xff\xfe(scenario")
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        assert err.startswith(f"error: {bad}: ") and "Traceback" not in err

    def test_closed_output_pipe_is_an_error_without_a_traceback(self):
        # Five copies of the fixtures with traces are ~180 KB, more than a
        # pipe holds, so the CLI is still writing when the reader goes away.
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "felicity.cli",
             "run", "--format", "json", "--explain", *ALL_FIXTURES * 5],
            env=dict(os.environ, PYTHONPATH=path),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert code == 2
        assert err == ""

    def test_unexpected_exception_is_a_one_line_error(self, capsys, monkeypatch):
        def broken(scenario):
            raise RuntimeError("engine fault")

        monkeypatch.setattr("felicity.cli.judge", broken)
        code, _, err = run_cli(capsys, "run", str(FIXTURES / "magri-1.sexp"))
        assert code == 2
        assert err == "error: internal error: RuntimeError: engine fault\n"

    def test_budget_error_names_file_and_position(self, capsys, tmp_path):
        big = tmp_path / "big.sexp"
        big.write_text(
            "(scenario big\n  (individuals 30)\n  (predicates (a :stative))\n"
            "  (target (some a true)))"
        )
        code, _, err = run_cli(capsys, "run", str(big))
        assert code == 2
        assert f"{big}: line 2, col 3: bound 30 x 1 predicates exceeds" in err

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_a_target_over_the_alternative_budget_exits_2_at_once(self, command):
        # 20 disjuncts on (some all): 2**20 alternatives, which would take
        # gigabytes to build; the parse counts them first and refuses
        path = ROOT / "tests" / "data" / "alternative-budget.sexp"
        done = subprocess.run(
            [sys.executable, "-m", "felicity.cli", command, str(path)],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == (
            f"error: {path}: line 5, col 3: target has more than 729 scalar alternatives\n"
        )

    def test_continuations_after_a_refused_target(self, capsys, tmp_path):
        # magri-3's target contradicts its context, so nothing can follow it
        refused = tmp_path / "refused.sexp"
        text = (FIXTURES / "magri-3.sexp").read_text()
        refused.write_text(
            text.replace("  (expect odd))", "  (continuations (some italian warm))\n  (expect odd))")
        )
        code, _, err = run_cli(capsys, "check", str(refused))
        assert code == 2
        assert f"{refused}: line 7, col 3: continuations need a target" in err
        assert "(only (some italian warm)) contradicts" in err

    def test_bound_override_reruns_the_parse_time_checks(self, capsys, tmp_path):
        # the target is admitted at the file's bound but refused at --bound 1
        repro = tmp_path / "repro.sexp"
        repro.write_text(
            "(scenario repro\n  (predicates (a :stative) (b :stative))\n"
            "  (common-knowledge (some a b))\n  (target (some a (not b)))\n"
            "  (continuations (all a b)))"
        )
        assert run_cli(capsys, "run", str(repro))[0] == 0
        code, _, err = run_cli(capsys, "run", "--bound", "1", str(repro))
        assert code == 2
        assert err.startswith(f"error: {repro}: line 5, col 3: continuations need a target")
        assert "contradicts common knowledge and discourse at bound 1" in err

    @pytest.mark.parametrize("digit", ["²", "٣"])
    def test_non_ascii_digit_in_individuals_is_a_parse_error(self, capsys, tmp_path, digit):
        bad = tmp_path / "digit.sexp"
        bad.write_text(
            f"(scenario x (individuals {digit}) (predicates (a :stative)) (target (some a a)))",
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        assert err == (
            f"error: {bad}: line 1, col 26: individuals must be a positive integer,"
            f" got {digit!r}\n"
        )

    def test_individuals_past_the_int_digit_limit_is_a_parse_error(self, capsys, tmp_path):
        huge = tmp_path / "huge.sexp"
        huge.write_text(
            f"(scenario x (individuals {'9' * 5000}) (predicates (a :stative)) (target (some a a)))"
        )
        code, _, err = run_cli(capsys, "run", str(huge))
        assert code == 2
        assert err == f"error: {huge}: line 1, col 26: individuals has too many digits (5000)\n"

    def test_duplicate_scale_members_name_file_and_position(self, capsys, tmp_path):
        head = "(scenario x (predicates (a :stative) (b :stative)) "
        bad = tmp_path / "dup.sexp"
        bad.write_text(head + "(scales (some some)) (target (some a b)))")
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        col = len(head) + len("(scales ") + 1
        assert err == f"error: {bad}: line 1, col {col}: duplicate members in scale (some some)\n"

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_a_quantifier_on_two_scales_names_file_and_position(self, capsys, tmp_path, command):
        # A quantifier has one set of scale-mates: a later scale that repeats
        # one is refused at that scale, not silently shadowed by the first.
        bad = tmp_path / "two-scales.sexp"
        bad.write_text(
            "(scenario two-scales\n"
            "  (individuals 2)\n"
            "  (predicates (a :stative) (b :stative))\n"
            "  (scales (some most all) (some most))\n"
            "  (target (some a b))\n"
            "  (continuations (only (most a b)))\n"
            "  (expect felicitous))\n"
        )
        code, out, err = run_cli(capsys, command, str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: line 4, col 27: 'some' is already on an earlier scale\n"

    @pytest.mark.parametrize("command, expected", [("run", 0), ("check", 1)])
    def test_a_one_member_scale_is_judged(self, capsys, tmp_path, command, expected):
        # magri-13 over (scales (some)): the indefinite expands to a single
        # disjunct, which carries no ignorance inference, so the indirect
        # route no longer fires and the expected oddness is not met
        text = (FIXTURES / "magri-13.sexp").read_text()
        one = tmp_path / "one-member.sexp"
        one.write_text(text.replace("(scales (some all))", "(scales (some))"))
        code, out, err = run_cli(capsys, command, "--explain", str(one))
        assert (code, err) == (expected, "")
        if command == "run":
            assert "aggregate: felicitous" in out
            assert "  ignorance: (or (some italian warm)) => (none)" in out
        else:
            assert out.startswith("MISMATCH magri-13: expected odd, got felicitous")

    @pytest.mark.parametrize(
        "sections, q",
        [
            ("(scales (some all)) (target (only (most a b)))", "most"),
            ("(target (only (qi a b)))", "qi"),
            ("(common-knowledge (only (qi a b))) (target (some a b))", "qi"),
        ],
    )
    def test_only_over_a_quantifier_on_no_scale_names_file_and_position(
        self, capsys, tmp_path, sections, q
    ):
        head = "(scenario x (predicates (a :stative) (b :stative)) "
        bad = tmp_path / "only.sexp"
        bad.write_text(head + sections + ")")
        col = len(head) + sections.index("(only") + 1
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        assert err == (
            f"error: {bad}: line 1, col {col}: only requires {q!r} to belong to a declared scale\n"
        )

    def test_run_with_explain_appends_traces(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--explain", str(FIXTURES / "magri-4.sexp")
        )
        assert code == 0
        assert "aggregate: odd" in out
        assert "clash-check" in out

    def test_determinism_byte_identical(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "run", "--format", "json", *ALL_FIXTURES)
            outs.append(out)
        assert outs[0] == outs[1]


class TestCheck:
    def test_full_suite_matches(self, capsys):
        code, out, _ = run_cli(capsys, "check", *ALL_FIXTURES)
        assert code == 0
        assert "MISMATCH" not in out

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        bom = tmp_path / "bom.sexp"
        bom.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "magri-1.sexp").read_bytes())
        code, out, _ = run_cli(capsys, "check", str(bom))
        assert code == 0
        assert out.startswith("ok magri-1: odd")

    def test_wrong_expectation_exits_one_and_names_scenario(self, capsys, tmp_path):
        wrong = tmp_path / "wrong.sexp"
        wrong.write_text(
            "(scenario wrong (predicates (a :stative) (b :stative))"
            " (target (some a b)) (expect odd))"
        )
        code, out, _ = run_cli(capsys, "check", str(wrong))
        assert code == 1
        assert "MISMATCH wrong" in out

    def test_missing_expect_is_usage_error(self, capsys, tmp_path):
        noexp = tmp_path / "noexp.sexp"
        noexp.write_text(
            "(scenario noexp (predicates (a :stative)) (target (some a true)))"
        )
        code, _, err = run_cli(capsys, "check", str(noexp))
        assert code == 2
        assert "expect" in err

    def test_blind_theory_alone_misses_conjoined_oddness(self, capsys):
        # the engine reproduces the gap: with only the blind theory enabled,
        # the conjoined fixture comes out felicitous against its odd label
        code, out, _ = run_cli(
            capsys,
            "check",
            "--theories",
            "magri-blind",
            str(FIXTURES / "magri-4.sexp"),
        )
        assert code == 1
        assert "MISMATCH magri-4" in out

    def test_unknown_theory_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "--theories", "gricean", str(FIXTURES / "magri-4.sexp")
        )
        assert code == 2
        assert "gricean" in err

    @pytest.mark.parametrize("value", ["", ","])
    def test_empty_theory_selection_is_rejected(self, capsys, value):
        code, out, err = run_cli(
            capsys, "run", "--theories", value, str(FIXTURES / "magri-4.sexp")
        )
        assert (code, out) == (2, "")
        assert err == "error: --theories needs at least one name\n"

    @pytest.mark.parametrize(
        "value, kept",
        [
            ("magri-blind,magri-blind", "magri-blind"),
            ("del-pinal, magri-blind,del-pinal,magri-blind", "del-pinal,magri-blind"),
        ],
    )
    def test_a_repeated_theory_is_judged_once(self, capsys, value, kept):
        # the first of repeated names is kept, as in a (theories ...) section
        path = str(FIXTURES / "magri-13.sexp")
        for fmt in ("table", "json"):
            once = run_cli(capsys, "run", "--format", fmt, "--theories", kept, path)
            assert run_cli(capsys, "run", "--format", fmt, "--theories", value, path) == once
            assert once[0] == 0
        data = json.loads(once[1])
        assert [row["name"] for row in data["theories"]] == kept.split(",")

    def test_fail_fast_stops_after_first_mismatch(self, capsys, tmp_path):
        w1 = tmp_path / "w1.sexp"
        w2 = tmp_path / "w2.sexp"
        for p, name in ((w1, "w1"), (w2, "w2")):
            p.write_text(
                f"(scenario {name} (predicates (a :stative) (b :stative))"
                " (target (some a b)) (expect odd))"
            )
        code, out, _ = run_cli(capsys, "check", "--fail-fast", str(w1), str(w2))
        assert code == 1
        assert "MISMATCH w1" in out and "w2" not in out


def _nested_not_scenario(path, depth):
    target = "(not " * depth + "(some a b)" + ")" * depth
    path.write_text(
        "(scenario deep (predicates (a :stative) (b :stative))"
        f" (target {target}) (expect felicitous))"
    )
    return str(path)


class TestNesting:
    def test_deep_nesting_is_a_parse_error(self, capsys, tmp_path):
        deep = _nested_not_scenario(tmp_path / "deep.sexp", 3000)
        code, out, err = run_cli(capsys, "check", deep)
        assert code == 2
        assert "Traceback" not in err
        assert "deep.sexp" in err and "nest" in err

    def test_deepest_accepted_nesting_is_judged(self, capsys, tmp_path):
        # scenario and target take two levels, the innermost clause one
        deep = _nested_not_scenario(tmp_path / "deep.sexp", MAX_DEPTH - 3)
        code, out, _ = run_cli(capsys, "check", "--explain", deep)
        assert code == 0
        assert "ok deep" in out


class TestExplain:
    def test_firing_chain_is_visible(self, capsys):
        code, out, _ = run_cli(capsys, "explain", str(FIXTURES / "magri-4.sexp"))
        assert code == 0
        assert "qi-expansion" in out
        assert "expansion-licensed" in out
        assert "ignorance" in out
        assert "clash-check" in out
        assert "contradiction" in out

    def test_reading_gate_skip_is_visible(self, capsys):
        code, out, _ = run_cli(capsys, "explain", str(FIXTURES / "magri-17.sexp"))
        assert code == 0
        assert "sequenced-split: predictor skipped" in out

    def test_quiet_scenario_reports_no_mechanism(self, capsys, tmp_path):
        quiet = tmp_path / "quiet.sexp"
        quiet.write_text(
            "(scenario quiet (predicates (a :stative) (b :stative))"
            " (target (some a b)))"
        )
        code, out, _ = run_cli(capsys, "explain", str(quiet))
        assert code == 0
        assert "no mechanism fired" in out

    def test_bound_override_validated(self, capsys):
        code, _, err = run_cli(
            capsys, "explain", "--bound", "0", str(FIXTURES / "magri-4.sexp")
        )
        assert code == 2

    def test_bound_override_within_budget(self, capsys):
        code, out, _ = run_cli(
            capsys, "explain", "--bound", "3", str(FIXTURES / "magri-4.sexp")
        )
        assert code == 0
        assert "aggregate: odd" in out

    def test_bound_override_over_budget(self, capsys):
        code, _, err = run_cli(
            capsys, "explain", "--bound", "9", str(FIXTURES / "magri-4.sexp")
        )
        assert code == 2
        assert "budget" in err

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("fixture", ALL_FIXTURES, ids=lambda p: Path(p).stem)
    def test_explain_is_run_explain(self, capsys, fixture, fmt):
        explained = run_cli(capsys, "explain", "--format", fmt, fixture)
        assert explained == run_cli(capsys, "run", "--explain", "--format", fmt, fixture)

    def test_continuations_are_listed_once(self, capsys):
        code, out, _ = run_cli(capsys, "explain", str(FIXTURES / "magri-13.sexp"))
        assert code == 0
        lines = out.splitlines()
        for line in (
            "continuation (all italian warm) -> felicitous",
            "continuation (not (all italian warm)) -> odd",
        ):
            assert lines.count(line) == 1
