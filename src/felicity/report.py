"""Judgment reports: structured form, table text, JSON, and trace rendering.

The JSON layout is stable and round-trips losslessly:

    {"scenario": ..., "reading": ..., "aggregate": "odd"|"felicitous",
     "theories": [{"name", "verdict", "mechanism",
                   "trace": [{"rule", "inputs": [...], "output"}]}],
     "continuations": [{"form", "verdict"}]}
"""

from __future__ import annotations

from dataclasses import dataclass

from .dsl import render_lf
from .judge import Judgment, Mechanism, TraceStep


@dataclass(frozen=True)
class TheoryRow:
    """One theory's line of a report, as strings."""

    name: str
    verdict: str
    mechanism: str
    trace: tuple[TraceStep, ...]


@dataclass(frozen=True)
class Report:
    """A judgment as strings: what the table and the JSON show."""

    scenario: str
    reading: str
    aggregate: str
    theories: tuple[TheoryRow, ...]
    continuations: tuple[tuple[str, str], ...] = ()


def build_report(name: str, judgment: Judgment) -> Report:
    return Report(
        scenario=name,
        reading=judgment.reading.value,
        aggregate=judgment.aggregate.value,
        theories=tuple(
            TheoryRow(v.theory, v.verdict.value, v.mechanism.value, v.trace)
            for v in judgment.theories
        ),
        continuations=tuple(
            (render_lf(form), verdict.value) for form, verdict in judgment.continuations
        ),
    )


def report_to_dict(report: Report) -> dict:
    return {
        "scenario": report.scenario,
        "reading": report.reading,
        "aggregate": report.aggregate,
        "theories": [
            {
                "name": row.name,
                "verdict": row.verdict,
                "mechanism": row.mechanism,
                "trace": [
                    {"rule": s.rule, "inputs": list(s.inputs), "output": s.output}
                    for s in row.trace
                ],
            }
            for row in report.theories
        ],
        "continuations": [
            {"form": form, "verdict": verdict} for form, verdict in report.continuations
        ],
    }


def report_from_dict(data: dict) -> Report:
    return Report(
        scenario=data["scenario"],
        reading=data["reading"],
        aggregate=data["aggregate"],
        theories=tuple(
            TheoryRow(
                name=row["name"],
                verdict=row["verdict"],
                mechanism=row["mechanism"],
                trace=tuple(
                    TraceStep(s["rule"], tuple(s["inputs"]), s["output"])
                    for s in row["trace"]
                ),
            )
            for row in data["theories"]
        ),
        continuations=tuple(
            (c["form"], c["verdict"]) for c in data["continuations"]
        ),
    )


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


def render_report(report: Report, format: str = "table") -> str:
    """Render a report as an aligned table or a single-line JSON object."""
    if format == "table":
        return _table(report)
    if format == "json":
        import json  # here, not at the top: start-up does not need it

        return json.dumps(report_to_dict(report))
    raise ValueError(f"unknown report format {format!r}")


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
