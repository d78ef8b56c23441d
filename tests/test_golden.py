"""Golden output: the JSON report with traces of every fixture at bounds 3-5,
and the default text output of every fixture.

The ``*.json`` files under ``tests/data/`` hold the exact output of

    felicity run --format json --explain --bound N fixtures/<name>.sexp

and ``run-explain.txt`` and ``check.txt`` that of

    LC_ALL=C felicity run --explain fixtures/*.sexp
    LC_ALL=C felicity check fixtures/*.sexp

(``LC_ALL=C`` makes the shell list the fixtures in ``sorted()`` path
order, as the test does)

so any change to verdicts, mechanisms, traces, the table or the JSON layout
shows up as a byte difference. The bound-4 files are also the output at
each fixture's complete bound, 2**k for its k predicates. Regenerate them
with those commands only when a change of output is intended, and say so
in ``CHANGES.md``. Every
step recorded in the JSON files must also replay, read back from the JSON,
against its scenario's context at that bound.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from felicity import MOST, ContextState, parse_scenario, replay_step, report_from_dict
from felicity.cli import main
from felicity.judge import RULES

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
FIXTURES = sorted((ROOT / "fixtures").glob("*.sexp"))
CASES = [(f, bound) for f in FIXTURES for bound in (3, 4, 5)]
IDS = [f"{f.stem}-bound{bound}" for f, bound in CASES]


def test_every_fixture_has_golden_output():
    assert len(FIXTURES) == 10
    assert sorted(p.name for p in DATA.glob("*.json")) == sorted(
        f"{f.stem}.bound{bound}.json" for f, bound in CASES
    )


@pytest.mark.parametrize("fixture, bound", CASES, ids=IDS)
def test_json_explain_matches_golden(capsys, fixture, bound):
    code = main(["run", "--format", "json", "--explain", "--bound", str(bound), str(fixture)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (DATA / f"{fixture.stem}.bound{bound}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("fixture", FIXTURES, ids=[f.stem for f in FIXTURES])
def test_json_explain_at_the_complete_bound_matches_bound_four(capsys, fixture):
    # Without `most`, shrinking a model to one individual per non-empty cell
    # of its k predicates keeps the truth of every form, so no counter-model
    # needs more than 2**k individuals and the bounded answers are the
    # unbounded ones. The paper's table is thus the same at 2**k as at 4.
    text = fixture.read_text(encoding="utf-8")
    assert "most" not in text.replace("(", " ").replace(")", " ").split()
    scenario = parse_scenario(text, str(fixture))
    assert all(q is not MOST for scale in scenario.scales.scales for q in scale.members)
    bound = 2 ** len(scenario.preds)
    code = main(["run", "--format", "json", "--explain", "--bound", str(bound), str(fixture)])
    assert code == 0
    assert capsys.readouterr().out == (DATA / f"{fixture.stem}.bound4.json").read_text(
        encoding="utf-8"
    )


@pytest.mark.parametrize(
    "command, golden", [(["run", "--explain"], "run-explain.txt"), (["check"], "check.txt")]
)
def test_text_output_matches_golden(capsys, command, golden):
    code = main([*command, *map(str, FIXTURES)])
    assert code == 0
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("seed", ["0", "4242"])
def test_output_does_not_depend_on_the_hash_seed(seed):
    # Nodes hash by identity and strings by a per-process salt, so set and
    # dict order may differ from run to run; the output must not.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "felicity.cli", "run", "--format", "json", "--explain",
         "--bound", "3", *map(str, FIXTURES)],
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines(keepends=True)
    assert len(lines) == len(FIXTURES)
    for fixture, line in zip(FIXTURES, lines):
        assert line == (DATA / f"{fixture.stem}.bound3.json").read_text(encoding="utf-8"), fixture


def _replayed_rules(fixture: Path, bound: int) -> set[str]:
    """Replay every step of a golden report; return the rules it used."""
    scenario = parse_scenario(fixture.read_text(encoding="utf-8"), str(fixture), bound)
    ctx = ContextState(
        common_knowledge=scenario.common_knowledge,
        discourse=scenario.discourse,
        preds=scenario.preds,
        bound=scenario.max_universe,
        scales=scenario.scales,
    )
    golden = (DATA / f"{fixture.stem}.bound{bound}.json").read_text(encoding="utf-8")
    report = report_from_dict(json.loads(golden))
    rules = set()
    for row in report.theories:
        for step in row.trace:
            assert replay_step(step, ctx) == step.output, (row.name, step)
            rules.add(step.rule)
    return rules


@pytest.mark.parametrize("fixture, bound", CASES, ids=IDS)
def test_every_golden_step_replays(fixture, bound):
    assert _replayed_rules(fixture, bound)


def test_the_golden_traces_use_every_rule():
    assert set().union(*(_replayed_rules(f, bound) for f, bound in CASES)) == set(RULES)
