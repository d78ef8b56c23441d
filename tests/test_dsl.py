"""Formula/scenario parsing, canonical rendering, and report round-trips."""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from felicity import (
    ALL,
    AndConc,
    AndLF,
    AndSeq,
    Atom,
    FelicityError,
    MOST,
    NO,
    NotLF,
    NotP,
    Only,
    OrLF,
    ParseError,
    PredicateSym,
    QI,
    Quant,
    Quantifier,
    Scenario,
    ScenarioError,
    SOME,
    THEORY_NAMES,
    TRUE,
    Verdict,
    WellFormednessError,
    build_report,
    judge,
    parse_lf,
    parse_pexpr,
    parse_scenario,
    render_lf,
    render_pexpr,
    render_report,
    report_to_dict,
)
from felicity import syntax
from felicity.alternatives import ALTERNATIVE_BUDGET
from felicity.dsl import parse_predicate
from felicity.report import report_from_dict
from conftest import BLOND, ITALIAN, ITALIAN_PREDS, LEFT, PORTUGAL, WARM, WON

PREDS = ITALIAN_PREDS + (WON, LEFT)


class TestParseLf:
    def test_conjoined_some(self):
        lf = parse_lf("(some italian (and-conc warm blond))", PREDS)
        assert lf == Quant(SOME, ITALIAN, AndConc(Atom(WARM), Atom(BLOND)))

    def test_only_some(self):
        lf = parse_lf("(only (some italian warm))", PREDS)
        assert lf == Only(Quant(SOME, ITALIAN, Atom(WARM)))

    def test_unclosed_form(self):
        with pytest.raises(ParseError):
            parse_lf("(some italian", PREDS)

    def test_whitespace_insensitive(self):
        a = parse_lf("(some italian warm)", PREDS)
        b = parse_lf("  (some\n   italian\t warm )  ", PREDS)
        assert a == b

    def test_case_sensitive_identifiers(self):
        with pytest.raises(ParseError):
            parse_lf("(some Italian warm)", PREDS)

    def test_unknown_quantifier(self):
        with pytest.raises(ParseError) as err:
            parse_lf("(several italian warm)", PREDS)
        assert "several" in str(err.value)

    def test_arity_errors(self):
        for bad in (
            "(some italian)",
            "(some italian warm blond)",
            "(only)",
            "(and (some italian warm))",
            "(not)",
        ):
            with pytest.raises(ParseError):
                parse_lf(bad, PREDS)

    def test_undeclared_predicate(self):
        with pytest.raises(ParseError) as err:
            parse_lf("(some martian warm)", PREDS)
        assert "martian" in str(err.value)

    def test_andseq_over_statives_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_lf("(some italian (and-seq warm blond))", PREDS)
        assert "eventive" in str(err.value)

    def test_andseq_with_eventives_accepted(self):
        lf = parse_lf("(some italian (and-seq won left))", PREDS)
        assert lf == Quant(SOME, ITALIAN, AndSeq(Atom(WON), Atom(LEFT)))

    def test_only_requires_quantified_clause(self):
        with pytest.raises(ParseError):
            parse_lf("(only (not (some italian warm)))", PREDS)

    def test_trailing_content_rejected(self):
        with pytest.raises(ParseError):
            parse_lf("(some italian warm) (all italian warm)", PREDS)

    def test_error_positions_are_reported(self):
        with pytest.raises(ParseError) as err:
            parse_lf("(some italian\n  (and-conc warm mystery))", PREDS)
        assert err.value.line == 2
        assert err.value.col > 1

    def test_epistemic_forms_not_in_grammar(self):
        with pytest.raises(ParseError):
            parse_lf("(know (some italian warm))", PREDS)


class TestPredicateTable:
    # A table passed in by a caller may hold keys that are not names. A
    # name the parser finds with one lookup must still pass the identifier
    # check, and every other name must get the message of that check.
    X, Y, Z, OK = (PredicateSym(name) for name in ("x", "y", "z", "ok"))
    TABLE = {"and": X, "1a": Y, "a b": Z, "ok": OK}

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_lf, "(some ok and)", "line 1, col 10: expected a predicate name, got 'and'"),
            (parse_lf, "(some and ok)", "line 1, col 7: expected a predicate name, got 'and'"),
            (parse_lf, "(some 1a ok)", "line 1, col 7: expected a predicate name, got '1a'"),
            (parse_lf, "(some ok 1a)", "line 1, col 10: expected a predicate name, got '1a'"),
            (parse_lf, "(some a ok)", "line 1, col 7: undeclared predicate 'a'"),
            (parse_lf, "(some ok b)", "line 1, col 10: undeclared predicate 'b'"),
            (parse_lf, "(some (ok) ok)", "line 1, col 7: expected a predicate name, got a list"),
            (parse_pexpr, "and", "line 1, col 1: expected a predicate name, got 'and'"),
            (parse_pexpr, "(not 1a)", "line 1, col 6: expected a predicate name, got '1a'"),
            (parse_pexpr, "a", "line 1, col 1: undeclared predicate 'a'"),
            (parse_predicate, "and", "line 1, col 1: expected a predicate name, got 'and'"),
            (parse_predicate, "1a", "line 1, col 1: expected a predicate name, got '1a'"),
            (parse_predicate, "b", "line 1, col 1: undeclared predicate 'b'"),
            (parse_predicate, "(ok)", "line 1, col 1: expected a predicate name, got a list"),
        ],
    )
    def test_a_key_that_is_not_a_name_is_never_found(self, parse, text, message):
        with pytest.raises(ParseError) as err:
            parse(text, self.TABLE)
        assert str(err.value) == message

    def test_a_valid_key_beside_them_is_found(self):
        assert parse_lf("(some ok ok)", self.TABLE) is Quant(SOME, self.OK, Atom(self.OK))
        assert parse_pexpr("(not ok)", self.TABLE) is NotP(Atom(self.OK))
        assert parse_predicate("ok", self.TABLE) is self.OK


class TestRenderLf:
    def test_canonical_form(self):
        lf = Quant(SOME, ITALIAN, AndConc(Atom(WARM), Atom(BLOND)))
        assert render_lf(lf) == "(some italian (and-conc warm blond))"

    def test_operand_order_preserved(self):
        ab = AndConc(Atom(WARM), Atom(BLOND))
        ba = AndConc(Atom(BLOND), Atom(WARM))
        assert render_lf(Quant(SOME, ITALIAN, ab)) != render_lf(Quant(SOME, ITALIAN, ba))

    def test_nested_negation_minimal_parens(self):
        lf = NotLF(Only(Quant(SOME, ITALIAN, NotP(Atom(WARM)))))
        text = render_lf(lf)
        assert text == "(not (only (some italian (not warm))))"
        assert parse_lf(text, PREDS) == lf

    def test_the_text_is_kept_on_the_node(self):
        lf = NotLF(Quant(MOST, ITALIAN, AndConc(Atom(WARM), NotP(Atom(BLOND)))))
        text = render_lf(lf)
        assert lf._text is text and render_lf(lf) is text
        assert lf.body.scope._text == "(and-conc warm (not blond))"
        assert not hasattr(render_lf, "cache_info")  # no separate cache
        assert render_pexpr is render_lf

    @pytest.mark.parametrize(
        "value", [ITALIAN, "(some italian warm)", [Atom(WARM)], None, ("not", Atom(WARM))]
    )
    def test_a_non_node_raises_type_error(self, value):
        with pytest.raises(TypeError, match="^not a logical form or predicate expression: "):
            render_lf(value)


# --- generator for random well-formed forms --------------------------------

_STATIVES = [ITALIAN, WARM, BLOND]
_EVENTIVES = [WON, LEFT]


def _pexprs(depth):
    leaf = st.one_of(
        st.sampled_from([Atom(p) for p in _STATIVES + _EVENTIVES]),
        st.just(TRUE),
    )
    if depth <= 0:
        return leaf

    sub = _pexprs(depth - 1)
    eventive_leaf = st.sampled_from([Atom(p) for p in _EVENTIVES])

    def seq(children):
        left, right = children
        return AndSeq(left, right)

    return st.one_of(
        leaf,
        st.builds(NotP, sub),
        st.builds(AndConc, sub, sub),
        st.tuples(eventive_leaf, eventive_leaf).map(seq),
    )


def _quants(depth):
    return st.builds(
        Quant,
        st.sampled_from([SOME, ALL, MOST, NO, QI]),
        st.sampled_from(_STATIVES),
        _pexprs(depth - 1),
    )


def _lfs(depth):
    if depth <= 1:
        return _quants(1)
    sub = _lfs(depth - 1)
    return st.one_of(
        _quants(depth),
        st.builds(Only, _quants(depth - 1)),
        st.builds(NotLF, sub),
        st.builds(AndLF, sub, sub),
        st.builds(OrLF, st.tuples(sub, sub)),
        st.builds(OrLF, st.tuples(sub, sub, sub)),
    )


# Candidate predicate names: identifiers, keywords of the grammar, and any
# short text at all. PredicateSym refuses the names the reader would not read.
_NAMES = st.one_of(
    st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,5}", fullmatch=True),
    st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,5}"),  # with anything around it
    st.sampled_from(["some", "qi", "true", "not", "and", "or", "only", "and-seq", "know"]),
    st.text(max_size=6),
)


def _lfs_over(preds):
    """Forms over the given stative predicates, at any nesting."""
    scopes = st.recursive(
        st.one_of(st.sampled_from([Atom(p) for p in preds]), st.just(TRUE)),
        lambda sub: st.one_of(st.builds(NotP, sub), st.builds(AndConc, sub, sub)),
        max_leaves=4,
    )
    quants = st.builds(Quant, st.sampled_from(list(Quantifier)), st.sampled_from(preds), scopes)
    return st.recursive(
        st.one_of(quants, st.builds(Only, quants)),
        lambda sub: st.one_of(
            st.builds(NotLF, sub),
            st.builds(AndLF, sub, sub),
            st.builds(OrLF, st.lists(sub, min_size=1, max_size=3).map(tuple)),
        ),
        max_leaves=6,
    )


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_lfs(5))
    def test_parse_inverts_render(self, lf):
        assert parse_lf(render_lf(lf), PREDS) == lf

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=60))
    def test_fuzzed_text_never_crashes(self, text):
        try:
            parse_lf(text, PREDS)
        except ParseError:
            pass  # rejection is the only acceptable failure mode

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=40))
    def test_fuzzed_bytes_never_crash(self, blob):
        try:
            parse_lf(blob.decode("utf-8", errors="replace"), PREDS)
        except ParseError:
            pass

    @pytest.mark.parametrize("name", ["a b", "(c", "a\n", "some", "and-conc", "true", "", "_x", "1a", 5])
    def test_a_predicate_name_the_reader_cannot_read_is_refused(self, name):
        with pytest.raises(WellFormednessError, match="predicate name must be an identifier"):
            PredicateSym(name)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_NAMES, min_size=1, max_size=3, unique=True), st.data())
    def test_every_form_over_any_accepted_names_parses_back_to_itself(self, names, data):
        preds = []
        for name in names:
            try:
                preds.append(PredicateSym(name))
            except WellFormednessError:
                pass
        assume(preds)
        lf = data.draw(_lfs_over(preds))
        assert parse_lf(render_lf(lf), preds) is lf


SCENARIO_4 = """(scenario magri-4
  (individuals 4)
  (predicates (italian :stative) (warm :stative) (blond :stative))
  (scales (some all))
  (common-knowledge (all italian warm) (some italian true))
  (target (only (some italian (and-conc warm blond))))
  (expect odd))"""


class TestParseScenario:
    def test_full_scenario(self):
        s = parse_scenario(SCENARIO_4)
        assert s.name == "magri-4"
        assert [p.name for p in s.preds] == ["italian", "warm", "blond"]
        assert s.max_universe == 4
        assert s.expect is Verdict.ODD
        assert s.enabled_theories == THEORY_NAMES
        assert render_lf(s.target) == "(only (some italian (and-conc warm blond)))"

    def test_defaults(self):
        s = parse_scenario(
            "(scenario tiny (predicates (a :stative)) (target (some a true)))"
        )
        assert s.max_universe == 4
        assert s.scales.scales[0].members == (SOME, MOST, ALL)
        assert s.enabled_theories == THEORY_NAMES
        assert s.expect is None

    def test_a_warm_reparse_of_a_dialogue_turn_calls_no_node_class(self, monkeypatch):
        # a turn re-reads its growing discourse; every node it builds is
        # live, and the builders probe the intern table without the class call
        text = (
            "(scenario d0t03 (individuals 4)"
            " (predicates (player :stative) (won :eventive) (blond :stative))"
            " (scales (some all))"
            " (common-knowledge (some player won))"
            " (discourse (some player blond) (some player (and-seq won won))"
            " (only (some player (and-conc blond blond))) (or (all player true) (no player won)))"
            " (target (not (some player (and-conc won (not blond)))))"
            " (continuations (all player blond)))"
        )
        first = parse_scenario(text)
        calls = []
        call = syntax._Interning.__call__

        def counted(cls, *args, **kwargs):
            calls.append(cls.__name__)
            return call(cls, *args, **kwargs)

        monkeypatch.setattr(syntax._Interning, "__call__", counted)
        again = parse_scenario(text)
        assert again == first and again.target is first.target
        assert calls == []

    def test_a_target_over_the_alternative_budget_is_refused_where_it_stands(self):
        # 7 clauses on the 3-member default scale: 3**7 = 2187 alternatives
        clauses = " ".join(f"(some a {'(not (not ' * i}b{'))' * i})" for i in range(7))
        text = f"(scenario big (predicates (a :stative) (b :stative))\n  (target (or {clauses})))"
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert str(err.value) == (
            f"line 2, col 3: target has more than {ALTERNATIVE_BUDGET} scalar alternatives"
        )
        # 6 clauses, 729, are within it; so is any target on a shorter scale
        parse_scenario(text.replace(" (some a b)", ""))
        parse_scenario(text.replace("(target", "(scales (some all)) (target"))

    def test_duplicate_predicate(self):
        with pytest.raises(ParseError):
            parse_scenario(
                "(scenario dup (predicates (a :stative) (a :eventive)) (target (some a true)))"
            )

    def test_undeclared_predicate_in_formula(self):
        with pytest.raises(ParseError):
            parse_scenario(
                "(scenario bad (predicates (a :stative)) (target (some b true)))"
            )

    def test_inconsistent_context_rejected_with_minimal_subset(self):
        text = """(scenario clash
          (predicates (italian :stative) (warm :stative))
          (common-knowledge (all italian warm) (some italian true))
          (discourse (not (some italian warm)))
          (target (some italian warm)))"""
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        message = str(err.value)
        assert "minimal inconsistent subset" in message
        assert "(not (some italian warm))" in message

    def test_sections_out_of_order_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario(
                "(scenario ooo (target (some a true)) (predicates (a :stative)))"
            )

    def test_unknown_theory_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario(
                "(scenario t (predicates (a :stative)) (target (some a true))"
                " (theories gricean))"
            )

    def test_theories_subset(self):
        s = parse_scenario(
            "(scenario t (predicates (a :stative)) (target (some a true))"
            " (theories magri-blind del-pinal))"
        )
        assert s.enabled_theories == ("magri-blind", "del-pinal")

    @pytest.mark.parametrize("bound", [0, -1, "3", 3.0, True, [3]], ids=repr)
    def test_a_bound_that_is_not_an_int_of_at_least_1_is_a_scenario_error(self, bound):
        # only FelicityError escapes parsing; the oracle's own ValueError
        # (bound 0) or a comparison's TypeError ("3") must not
        with pytest.raises(ScenarioError) as err:
            parse_scenario(SCENARIO_4, source="s.sexp", bound=bound)
        assert str(err.value) == f"s.sexp: bound must be an integer >= 1, got {bound!r}"

    @pytest.mark.parametrize("bound", [1, 3, 8])
    def test_a_bound_of_at_least_1_replaces_the_scenarios(self, bound):
        assert parse_scenario(SCENARIO_4, bound=bound).max_universe == bound

    def test_explicit_defaults_do_not_change_judgment(self):
        implicit = parse_scenario(
            "(scenario imp (predicates (italian :stative) (warm :stative))"
            " (common-knowledge (all italian warm) (some italian true))"
            " (target (some italian warm)))"
        )
        explicit = parse_scenario(
            "(scenario exp (individuals 4)"
            " (predicates (italian :stative) (warm :stative))"
            " (scales (some most all))"
            " (common-knowledge (all italian warm) (some italian true))"
            " (discourse)"
            " (target (some italian warm))"
            " (theories magri-blind presupposed-ignorance logical-integrity"
            " del-pinal indirect-contradiction))"
        )
        ji, je = judge(implicit), judge(explicit)
        assert ji.aggregate == je.aggregate
        assert [(v.theory, v.verdict, v.mechanism) for v in ji.theories] == [
            (v.theory, v.verdict, v.mechanism) for v in je.theories
        ]


class TestReports:
    def test_table_contains_mechanism_row(self):
        s = parse_scenario(SCENARIO_4)
        report = build_report(s.name, judge(s))
        table = render_report(report, "table")
        assert "aggregate: odd" in table
        row = next(l for l in table.splitlines() if l.startswith("indirect-contradiction"))
        assert "odd" in row and "indirect-contextual-contradiction" in row

    def test_all_silent_report(self):
        s = parse_scenario(
            "(scenario quiet (predicates (a :stative) (b :stative))"
            " (target (some a b)))"
        )
        report = build_report(s.name, judge(s))
        table = render_report(report, "table")
        for line in table.splitlines()[5:]:
            if "|" in line:
                assert "felicitous" in line and "none" in line

    def test_json_round_trip(self):
        s = parse_scenario(SCENARIO_4)
        report = build_report(s.name, judge(s))
        data = json.loads(render_report(report, "json"))
        assert report_from_dict(data) == report
        assert list(data) == ["scenario", "reading", "aggregate", "theories", "continuations"]

    def test_json_schema_fields(self):
        s = parse_scenario(SCENARIO_4)
        data = report_to_dict(build_report(s.name, judge(s)))
        theory = data["theories"][0]
        assert set(theory) == {"name", "verdict", "mechanism", "trace"}
        if theory["trace"]:
            assert set(theory["trace"][0]) == {"rule", "inputs", "output"}

    def test_rendering_is_deterministic(self):
        s = parse_scenario(SCENARIO_4)
        r1 = render_report(build_report(s.name, judge(s)), "json")
        r2 = render_report(build_report(s.name, judge(s)), "json")
        assert r1 == r2

    def test_json_validates_against_formal_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = {
            "type": "object",
            "required": ["scenario", "reading", "aggregate", "theories", "continuations"],
            "additionalProperties": False,
            "properties": {
                "scenario": {"type": "string"},
                "reading": {"type": "string"},
                "aggregate": {"enum": ["odd", "felicitous"]},
                "theories": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["name", "verdict", "mechanism", "trace"],
                        "additionalProperties": False,
                        "properties": {
                            "name": {"type": "string"},
                            "verdict": {"enum": ["odd", "felicitous"]},
                            "mechanism": {"type": "string"},
                            "trace": {
                                "type": "array",
                                "items": {
                                    "type": "object",
                                    "required": ["rule", "inputs", "output"],
                                    "additionalProperties": False,
                                    "properties": {
                                        "rule": {"type": "string"},
                                        "inputs": {
                                            "type": "array",
                                            "items": {"type": "string"},
                                        },
                                        "output": {"type": "string"},
                                    },
                                },
                            },
                        },
                    },
                },
                "continuations": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["form", "verdict"],
                        "additionalProperties": False,
                        "properties": {
                            "form": {"type": "string"},
                            "verdict": {"enum": ["odd", "felicitous"]},
                        },
                    },
                },
            },
        }
        for text in (
            SCENARIO_4,
            "(scenario quiet (predicates (a :stative) (b :stative))"
            " (target (some a b)) (continuations (all a b)))",
        ):
            s = parse_scenario(text)
            data = json.loads(render_report(build_report(s.name, judge(s)), "json"))
            jsonschema.validate(data, schema)
