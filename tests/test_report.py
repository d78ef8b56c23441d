"""The JSON report writer and ``report_from_dict``'s input checks.

``render_report(r, "json")`` writes the text straight from the report. It
must be byte-identical to ``json.dumps`` of the documented dict layout,
which ``_layout`` below spells out independently of the writer.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from felicity import (
    SOME, THEORY_NAMES, Atom, Judgment, Mechanism, PredicateSym, Quant, Reading, TheoryVerdict,
    Verdict, build_report, judge, parse_scenario, render_lf, render_report,
)
from felicity.judge import RULES, TraceStep
from felicity.report import Report, TheoryRow, _step_json, report_from_dict, report_to_dict

ROOT = Path(__file__).resolve().parent.parent


def _layout(report: Report) -> dict:
    """The JSON layout of a report, as documented in the README."""
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
        "continuations": [{"form": form, "verdict": verdict} for form, verdict in report.continuations],
    }


# Any code point, lone surrogates included, with the characters JSON
# escapes drawn often.
_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from('"\\/\x00\x08\x1f\x7fé 𐏿\U0001f600'),
    ),
    max_size=12,
)


def _tuples(items, n: int):
    return st.lists(items, max_size=n).map(tuple)


def _reports(names, verdicts, readings, mechanisms, rules):
    """Reports whose theory name, verdict, reading, mechanism and rule
    fields are drawn from the given strategies and whose other fields are
    any text."""
    steps = st.builds(TraceStep, rules, _tuples(_TEXT, 3), _TEXT)
    rows = st.builds(TheoryRow, names, verdicts, mechanisms, _tuples(steps, 4))
    continuations = _tuples(st.tuples(_TEXT, verdicts), 3)
    return st.builds(Report, _TEXT, readings, verdicts, _tuples(rows, 3), continuations)


def _odd_iff_fired(mechanisms) -> str:
    return "odd" if any(m != "none" for m in mechanisms) else "felicitous"


def _agreeing(report: Report) -> Report:
    """The report with one row per theory name, the first, and with each
    row's verdict and the aggregate derived from the mechanisms, as a
    judgment derives them."""
    first: dict[str, TheoryRow] = {}
    for r in report.theories:
        first.setdefault(r.name, r._replace(verdict=_odd_iff_fired([r.mechanism])))
    rows = tuple(first.values())
    return report._replace(aggregate=_odd_iff_fired([r.mechanism for r in rows]), theories=rows)


# Any text anywhere: what the writer must encode as json.dumps does.
_REPORTS = _reports(_TEXT, _TEXT, _TEXT, _TEXT, _TEXT)
# Reports that report_from_dict accepts: the engine's own vocabularies,
# no theory named twice, and every verdict agreeing with the mechanisms
# that fired.
_KNOWN_REPORTS = _reports(
    st.sampled_from(THEORY_NAMES),
    st.sampled_from(["odd", "felicitous"]),
    st.sampled_from([r.value for r in Reading]),
    st.sampled_from([m.value for m in Mechanism]),
    st.sampled_from(sorted(RULES)),
).map(_agreeing)


def _fixture_report(name: str) -> Report:
    s = parse_scenario((ROOT / "fixtures" / f"{name}.sexp").read_text(encoding="utf-8"))
    return build_report(s.name, judge(s))


def _class_built(name: str, judgment: Judgment) -> Report:
    """The report of a judgment built through the record classes and the
    ``verdict`` and ``aggregate`` properties."""
    return Report(
        scenario=name,
        reading=judgment.reading.value,
        aggregate=judgment.aggregate.value,
        theories=tuple(
            TheoryRow(v.theory, v.verdict.value, v.mechanism.value, v.trace)
            for v in judgment.theories
        ),
        continuations=tuple((render_lf(f), v.value) for f, v in judgment.continuations),
    )


def _assert_built_as_the_classes_build(name: str, judgment: Judgment):
    report = build_report(name, judgment)
    assert report == _class_built(name, judgment)
    assert type(report) is Report
    assert all(type(row) is TheoryRow for row in report.theories)


class TestBuildReport:
    """build_report writes its records without the class calls; the value
    must be the one the classes and properties give."""

    @pytest.mark.parametrize("mechanism", list(Mechanism), ids=lambda m: m.value)
    def test_every_mechanism(self, mechanism):
        form = Quant(SOME, PredicateSym("a"), Atom(PredicateSym("b")))
        step = TraceStep("ck-consistency", ("(some a b)",), "consistent")
        theories = (
            TheoryVerdict("magri-blind", Mechanism.NONE, (step,)),
            TheoryVerdict("del-pinal", mechanism, (step, step)),
        )
        for continuations in ((), ((form, Verdict.ODD), (form, Verdict.FELICITOUS))):
            _assert_built_as_the_classes_build("s", Judgment(Reading.SIMPLE, theories, continuations))
            _assert_built_as_the_classes_build("s", Judgment(Reading.SIMPLE, theories[::-1]))

    def test_no_theories(self):
        judgment = Judgment(Reading.CONCURRENT_COLLECTIVE, ())
        _assert_built_as_the_classes_build("s", judgment)
        assert build_report("s", judgment).aggregate == "felicitous"

    @pytest.mark.parametrize("path", sorted((ROOT / "fixtures").glob("*.sexp")), ids=lambda p: p.stem)
    def test_every_fixture(self, path):
        s = parse_scenario(path.read_text(encoding="utf-8"))
        _assert_built_as_the_classes_build(s.name, judge(s))


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(_REPORTS)
    def test_matches_json_dumps(self, report):
        text = render_report(report, "json")
        assert text == json.dumps(_layout(report))
        assert report_to_dict(report) == _layout(report)

    @settings(max_examples=300, deadline=None)
    @given(_KNOWN_REPORTS)
    def test_round_trips(self, report):
        assert report_from_dict(json.loads(render_report(report, "json"))) == report

    @settings(max_examples=100, deadline=None)
    @given(_REPORTS)
    def test_second_render_joins_cached_steps(self, report):
        first = render_report(report, "json")
        hits = _step_json.cache_info().hits
        assert render_report(report, "json") == first
        assert _step_json.cache_info().hits - hits == sum(len(row.trace) for row in report.theories)

    def test_step_cache_is_bounded(self):
        assert _step_json.cache_info().maxsize is not None


def _changed(data: dict, path: tuple, value) -> dict:
    """A copy of ``data`` with the value at ``path`` replaced."""
    data = copy.deepcopy(data)
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    return data


class TestReportFromDict:
    @pytest.fixture(scope="class")
    def data(self) -> dict:
        return report_to_dict(_fixture_report("magri-13"))

    def test_accepts_a_rendered_report(self, data):
        assert data["continuations"]
        assert report_from_dict(data) == _fixture_report("magri-13")

    @pytest.mark.parametrize(
        "path, value, message",
        [
            # A string is not split into its characters.
            (("theories", 0, "trace", 0, "inputs"), "(some a b)",
             "report key 'theories[0].trace[0].inputs' must be a list, got str"),
            # A number is not rendered as a JSON number.
            (("scenario",), 7, "report key 'scenario' must be a string, got int"),
            (("continuations",), ["(all a b)"],
             "report key 'continuations[0]' must be an object, got str"),
            (("theories",), {}, "report key 'theories' must be a list, got dict"),
            (("theories", 0, "trace", 0, "inputs", 0), None,
             "report key 'theories[0].trace[0].inputs[0]' must be a string, got NoneType"),
            (("theories", 2, "trace"), (), "report key 'theories[2].trace' must be a list, got tuple"),
            (("continuations", 1, "verdict"), ["odd"],
             "report key 'continuations[1].verdict' must be a string, got list"),
            # Values outside the engine's vocabularies are named too.
            (("aggregate",), "maybe", "report key 'aggregate' has unknown value 'maybe'"),
            (("reading",), "plural", "report key 'reading' has unknown value 'plural'"),
            (("theories", 0, "verdict"), "perhaps",
             "report key 'theories[0].verdict' has unknown value 'perhaps'"),
            (("theories", 1, "mechanism"), "zz",
             "report key 'theories[1].mechanism' has unknown value 'zz'"),
            (("theories", 0, "trace", 0, "rule"), "no-such-rule",
             "report key 'theories[0].trace[0].rule' has unknown value 'no-such-rule'"),
            (("continuations", 0, "verdict"), "Odd",
             "report key 'continuations[0].verdict' has unknown value 'Odd'"),
            (("theories", 0, "name"), "nobody",
             "report key 'theories[0].name' has unknown value 'nobody'"),
            # A verdict is odd iff a mechanism fired: in its row, and in the aggregate.
            (("theories", 0, "mechanism"), "mismatching-SI",
             "report key 'theories[0].verdict' is 'felicitous' with fired mechanisms"
             " ['mismatching-SI']"),
            (("theories", 0, "verdict"), "odd",
             "report key 'theories[0].verdict' is 'odd' with fired mechanisms []"),
            (("theories", 4, "verdict"), "felicitous",
             "report key 'theories[4].verdict' is 'felicitous' with fired mechanisms"
             " ['indirect-contextual-contradiction']"),
            (("aggregate",), "felicitous",
             "report key 'aggregate' is 'felicitous' with fired mechanisms"
             " ['indirect-contextual-contradiction']"),
            (("theories",), [], "report key 'aggregate' is 'odd' with fired mechanisms []"),
            # A theory has one row.
            (("theories", 1, "name"), "magri-blind",
             "report key 'theories[1].name' repeats 'magri-blind'"),
            (("theories", 4, "name"), "del-pinal",
             "report key 'theories[4].name' repeats 'del-pinal'"),
        ],
    )
    def test_wrong_value_names_its_key(self, data, path, value, message):
        with pytest.raises(ValueError) as info:
            report_from_dict(_changed(data, path, value))
        assert str(info.value) == message

    def test_missing_key(self, data):
        data = copy.deepcopy(data)
        del data["theories"][1]["mechanism"]
        with pytest.raises(ValueError, match=r"^report key 'theories\[1\]\.mechanism' is missing$"):
            report_from_dict(data)

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="^a report must be an object, got list$"):
            report_from_dict([])
