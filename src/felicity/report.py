"""Judgment reports: structured form, table text, JSON, and trace rendering.

The JSON layout is stable and round-trips losslessly:

    {"scenario": ..., "reading": ..., "aggregate": "odd"|"felicitous",
     "theories": [{"name", "verdict", "mechanism",
                   "trace": [{"rule", "inputs": [...], "output"}]}],
     "continuations": [{"form", "verdict"}]}

``_json`` is its one definition. It writes the text straight from a
``Report``, byte for byte as ``json.dumps`` writes the dict above, and
``report_to_dict`` parses that text.
"""

from __future__ import annotations

from functools import lru_cache

from .context import Verdict
from .dsl import THEORY_NAMES, render_lf
from .judge import RULES, Judgment, Mechanism, Reading, TraceStep
from .syntax import record


class TheoryRow(record("TheoryRow", "name verdict mechanism trace")):
    """One theory's line of a report, as strings."""

    __slots__ = ()


class Report(record("Report", "scenario reading aggregate theories continuations", ((),))):
    """A judgment as strings: what the table and the JSON show."""

    __slots__ = ()


def build_report(name: str, judgment: Judgment) -> Report:
    # ``_value_`` is each enum member's own attribute; ``.value`` would cost
    # a Python-level descriptor call per field.
    return Report(
        scenario=name,
        reading=judgment.reading._value_,
        aggregate=judgment.aggregate._value_,
        theories=tuple(
            TheoryRow(v.theory, v.verdict._value_, v.mechanism._value_, v.trace)
            for v in judgment.theories
        ),
        continuations=tuple(
            (render_lf(form), verdict._value_) for form, verdict in judgment.continuations
        ),
    )


def report_to_dict(report: Report) -> dict:
    """The report as the dict that its JSON text parses to."""
    import json

    return json.loads(render_report(report, "json"))


def report_from_dict(data: dict) -> Report:
    """The report that ``report_to_dict`` turned into ``data``. Raises
    ``ValueError`` naming the key of any value of the wrong type or shape,
    of a verdict, reading, mechanism, rule or theory that the engine does
    not have, of a theory row that repeats an earlier one's name, and of a
    verdict that contradicts the mechanisms that fired."""
    if not isinstance(data, dict):
        raise ValueError(f"a report must be an object, got {type(data).__name__}")
    report = Report(
        scenario=_get(data, "scenario", str),
        reading=_get(data, "reading", str, "", _READINGS),
        aggregate=_get(data, "aggregate", str, "", _VERDICTS),
        theories=tuple(_row(row, at) for at, row in _items(data, "theories", dict)),
        continuations=tuple(
            (_get(c, "form", str, at), _get(c, "verdict", str, at, _VERDICTS))
            for at, c in _items(data, "continuations", dict)
        ),
    )
    names = [row.name for row in report.theories]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"report key 'theories[{i}].name' repeats {name!r}")
    return _agree(report, report.aggregate, [r.mechanism for r in report.theories], "aggregate")


def _row(row: dict, at: str) -> TheoryRow:
    out = TheoryRow(
        name=_get(row, "name", str, at, THEORY_NAMES),
        verdict=_get(row, "verdict", str, at, _VERDICTS),
        mechanism=_get(row, "mechanism", str, at, _MECHANISMS),
        trace=tuple(
            TraceStep(
                _get(s, "rule", str, step_at, RULES),
                tuple(x for _, x in _items(s, "inputs", str, step_at)),
                _get(s, "output", str, step_at),
            )
            for step_at, s in _items(row, "trace", dict, at)
        ),
    )
    return _agree(out, out.verdict, [out.mechanism], f"{at}.verdict")


def _agree(value, verdict: str, mechanisms: list[str], path: str):
    """``value``, once ``verdict`` (at ``path``) is odd iff a mechanism fired."""
    fired = [m for m in mechanisms if m != Mechanism.NONE.value]
    if verdict != (Verdict.ODD if fired else Verdict.FELICITOUS).value:
        raise ValueError(f"report key {path!r} is {verdict!r} with fired mechanisms {fired}")
    return value


_VERDICTS = {v.value for v in Verdict}
_READINGS = {r.value for r in Reading}
_MECHANISMS = {m.value for m in Mechanism}


_KINDS = {str: "a string", list: "a list", dict: "an object"}


def _expect(value, kind: type, path: str):
    if not isinstance(value, kind):
        raise ValueError(f"report key {path!r} must be {_KINDS[kind]}, got {type(value).__name__}")
    return value


def _get(data: dict, key: str, kind: type, at: str = "", values=None):
    """``data[key]``, checked to be a ``kind`` and, given ``values``, one of
    them; ``at`` is the path to ``data``."""
    path = f"{at}.{key}" if at else key
    if key not in data:
        raise ValueError(f"report key {path!r} is missing")
    value = _expect(data[key], kind, path)
    if values is not None and value not in values:
        raise ValueError(f"report key {path!r} has unknown value {value!r}")
    return value


def _items(data: dict, key: str, kind: type, at: str = "") -> list[tuple[str, object]]:
    """The list ``data[key]`` as (path, item) pairs, each item checked to be
    a ``kind``."""
    path = f"{at}.{key}" if at else key
    return [
        (f"{path}[{i}]", _expect(item, kind, f"{path}[{i}]"))
        for i, item in enumerate(_get(data, key, list, at))
    ]


def _table(report: Report) -> str:
    rows = [(row.name, row.verdict, row.mechanism) for row in report.theories]
    header = ("theory", "verdict", "mechanism")
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(3)
    ]
    lines = [
        f"scenario: {report.scenario}",
        f"reading: {report.reading}",
        f"aggregate: {report.aggregate}",
        " | ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip(),
        "-+-".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append(" | ".join(r[i].ljust(widths[i]) for i in range(3)).rstrip())
    for form, verdict in report.continuations:
        lines.append(f"continuation {form} -> {verdict}")
    return "\n".join(lines)


# json.dumps's own escaper: ASCII only, "\uXXXX" for the rest.
_quote = None


def render_report(report: Report, format: str = "table") -> str:
    """Render a report as an aligned table or a single-line JSON object."""
    if format == "table":
        return _table(report)
    if format == "json":
        global _quote
        if _quote is None:  # bound here, not at the top: start-up loads no json
            try:  # the C escaper itself, without the json package around it
                from _json import encode_basestring_ascii
            except ImportError:
                from json.encoder import encode_basestring_ascii

            _quote = encode_basestring_ascii
        return _json(report)
    raise ValueError(f"unknown report format {format!r}")


def _json(report: Report) -> str:
    """``json.dumps`` of the layout in the module docstring, written directly."""
    q = _quote
    theories = ", ".join(
        f'{{"name": {q(row.name)}, "verdict": {q(row.verdict)},'
        f' "mechanism": {q(row.mechanism)}, "trace": [{", ".join(map(_step_json, row.trace))}]}}'
        for row in report.theories
    )
    continuations = ", ".join(
        f'{{"form": {q(form)}, "verdict": {q(verdict)}}}' for form, verdict in report.continuations
    )
    return (
        f'{{"scenario": {q(report.scenario)}, "reading": {q(report.reading)},'
        f' "aggregate": {q(report.aggregate)}, "theories": [{theories}],'
        f' "continuations": [{continuations}]}}'
    )


@lru_cache(maxsize=4096)
def _step_json(step: TraceStep) -> str:
    """One trace step's JSON text. Warm judgments repeat their steps, so
    most reports join cached text."""
    rule, inputs, output = step
    q = _quote
    return f'{{"rule": {q(rule)}, "inputs": [{", ".join(map(q, inputs))}], "output": {q(output)}}}'


def render_traces(report: Report) -> str:
    """Human-readable step listing for every theory, firing or not. The
    continuation verdicts are in the table that ``render_report`` prints."""
    lines = []
    fired_any = False
    for row in report.theories:
        fired = row.mechanism != Mechanism.NONE.value
        fired_any = fired_any or fired
        status = f"fired ({row.mechanism})" if fired else "did not fire"
        lines.append(f"{row.name}: {row.verdict} -- {status}")
        for s in row.trace:
            lines.append(f"  {s.rule}: {', '.join(s.inputs)} => {s.output}")
    if not fired_any:
        lines.append("no mechanism fired")
    return "\n".join(lines)
