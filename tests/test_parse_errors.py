"""Pinned outcomes of parsing malformed scenarios.

Every case is one fixture with one token mutated: deleted, duplicated,
swapped with the next token, or replaced by ``(``, ``)``, ``zz`` or
``(zz)``. Token i of a fixture gets mutation number i mod 7, so each
token is mutated once and every kind of mutation meets every kind of
token. ``tests/data/parse_errors.jsonl`` holds, one line per case, the
exception's type name and message (``"ok"`` when the scenario still
parses), so a
change to any error's wording, position or precedence shows up. Rewrite
the file with ``python tests/test_parse_errors.py`` only when such a
change is intended, and say so in ``CHANGES.md``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from felicity import (
    FelicityError,
    build_report,
    judge,
    parse_scenario,
    render_report,
    render_traces,
    report_from_dict,
)

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data" / "parse_errors.jsonl"
FIXTURES = sorted((ROOT / "fixtures").glob("*.sexp"))

# Found here, not imported, so that the cases do not depend on the reader.
_TOKEN = re.compile(r"[()]|[^\s()]+")
MUTATIONS = ("delete", "duplicate", "swap", "(", ")", "zz", "(zz)")


def _mutate(text: str, spans: list[tuple[int, int]], i: int, kind: str) -> str:
    start, end = spans[i]
    token = text[start:end]
    if kind == "delete":
        return text[:start] + text[end:]
    if kind == "duplicate":
        return text[:end] + " " + token + text[end:]
    if kind == "swap":
        if i + 1 == len(spans):  # the last token swaps with the one before
            i -= 1
            start, end = spans[i]
        after, stop = spans[i + 1]
        return text[:start] + text[after:stop] + text[end:after] + text[start:end] + text[stop:]
    # Spaces keep the replacement from running into a neighbouring atom.
    return text[:start] + " " + kind + " " + text[end:]


def cases(fixture: Path) -> list[tuple[int, str, str]]:
    """(token index, mutation, mutated text) for every token of the fixture."""
    text = fixture.read_text(encoding="utf-8")
    spans = [m.span() for m in _TOKEN.finditer(text)]
    out = []
    for i in range(len(spans)):
        kind = MUTATIONS[i % len(MUTATIONS)]
        out.append((i, kind, _mutate(text, spans, i, kind)))
    return out


def outcome(text: str, source: str) -> str:
    try:
        parse_scenario(text, source=source)
    except FelicityError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def observed(fixture: Path) -> list[dict]:
    source = f"fixtures/{fixture.name}"
    return [
        {"fixture": fixture.stem, "token": i, "mutation": kind, "outcome": outcome(text, source)}
        for i, kind, text in cases(fixture)
    ]


def _golden() -> dict[str, list[dict]]:
    by_fixture: dict[str, list[dict]] = {}
    for line in DATA.read_text(encoding="utf-8").splitlines():
        case = json.loads(line)
        by_fixture.setdefault(case["fixture"], []).append(case)
    return by_fixture


def test_every_fixture_is_pinned():
    assert sorted(_golden()) == [f.stem for f in FIXTURES]


@pytest.mark.parametrize("fixture", FIXTURES, ids=[f.stem for f in FIXTURES])
def test_mutated_fixture_outcomes_match(fixture):
    assert observed(fixture) == _golden()[fixture.stem]


def _parsing_cases() -> list:
    golden = _golden()
    return [
        pytest.param(text, id=f"{fixture.stem}-{i}-{kind}")
        for fixture in FIXTURES
        for (i, kind, text), case in zip(cases(fixture), golden[fixture.stem])
        if case["outcome"] == "ok"
    ]


PARSING = _parsing_cases()


def test_parsing_cases_are_counted():
    assert len(PARSING) == 66


@pytest.mark.parametrize("text", PARSING)
def test_parsing_case_runs_through_the_pipeline(text):
    scenario = parse_scenario(text)
    try:
        report = build_report(scenario.name, judge(scenario))
    except FelicityError:
        return
    render_report(report, "table")
    render_traces(report)
    assert report_from_dict(json.loads(render_report(report, "json"))) == report


if __name__ == "__main__":
    rows = [json.dumps(case) for fixture in FIXTURES for case in observed(fixture)]
    DATA.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    print(f"wrote {len(rows)} cases to {DATA}")
