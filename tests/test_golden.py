"""Golden output: the JSON report with traces of every fixture at bounds 3-5.

The files under ``tests/data/`` hold the exact output of

    felicity run --format json --explain --bound N fixtures/<name>.sexp

so any change to verdicts, mechanisms, traces or JSON layout shows up as a
byte difference. Regenerate them with that command only when a change of
output is intended, and say so in ``CHANGES.md``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from felicity.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
FIXTURES = sorted((ROOT / "fixtures").glob("*.sexp"))
CASES = [(f, bound) for f in FIXTURES for bound in (3, 4, 5)]


def test_every_fixture_has_golden_output():
    assert len(FIXTURES) == 10
    assert sorted(p.name for p in DATA.glob("*.json")) == sorted(
        f"{f.stem}.bound{bound}.json" for f, bound in CASES
    )


@pytest.mark.parametrize(
    "fixture, bound", CASES, ids=[f"{f.stem}-bound{bound}" for f, bound in CASES]
)
def test_json_explain_matches_golden(capsys, fixture, bound):
    code = main(["run", "--format", "json", "--explain", "--bound", str(bound), str(fixture)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (DATA / f"{fixture.stem}.bound{bound}.json").read_text(encoding="utf-8")
