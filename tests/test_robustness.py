"""Generated well-formed scenarios keep the engine's error contract: only a
``FelicityError`` escapes parsing, judging and rendering, every trace step
replays, and the command line exits 0, 1 or 2 without an internal error.
Their judgments also keep the paper's claims: renaming the predicates and
reordering the context changes nothing, each theory judges alone as it
does among the others, neither a sequenced scope nor a distributive
conjunction of clauses ever takes the indirect route, and a plain target
whose stronger alternatives the discourse has settled never fires
magri-blind. The engine's memos never show in its output."""

from __future__ import annotations

import contextlib
import io
import re
from functools import lru_cache

import pytest
from hypothesis import event, given, settings, strategies as st

from felicity import (
    THEORY_NAMES,
    AndLF,
    AndSeq,
    ContextState,
    FelicityError,
    NotLF,
    Only,
    Quant,
    build_report,
    consistent,
    judge,
    parse_lf,
    parse_pexpr,
    parse_scenario,
    render_lf,
    render_pexpr,
    render_report,
    render_traces,
    replay_step,
    substitution_alternatives,
)
from felicity.cli import main
from felicity.judge import RULES, _clauses, _record, _step
from felicity.logic import BUDGET_BITS, children, node_facts

QUANTIFIERS = ("some", "most", "all", "no", "qi")
# Scales the scale check accepts, and one it refuses.
SCALES = (
    ("some", "most", "all"), ("some", "all"), ("some", "most"), ("qi", "most", "all"),
    ("no",), ("qi",), ("all", "some"),
)
# The accepted scales that hold some: the indirect route needs one.
SOME_SCALES = SCALES[:3]
# One item of an ignorance step's output: not-certain(d) for a live disjunct d.
IGNORANCE_ITEM = re.compile(r"\(not \(know (.*)\)\)\Z")
# The most individuals a generated scenario declares.
MAX_INDIVIDUALS = 5
# A predicate name that the generator declares.
PRED_NAME = re.compile(r"\b[se]\d\b")
# The scale lists of a generated scenario's text.
SCALES_SECTION = re.compile(r"\n  \(scales (.*)\)\n")


def _scopes(preds: tuple[str, ...], eventive: tuple[str, ...]):
    def extend(sub):
        options = [
            sub.map(lambda p: f"(not {p})"),
            st.tuples(sub, sub).map(lambda pq: f"(and-conc {pq[0]} {pq[1]})"),
        ]
        if eventive:  # and-seq only over eventive atoms
            ev = st.sampled_from(eventive)
            options.append(st.tuples(ev, ev).map(lambda pq: f"(and-seq {pq[0]} {pq[1]})"))
        return st.one_of(options)

    return st.recursive(st.sampled_from([*preds, "true"]), extend, max_leaves=3)


@lru_cache(maxsize=None)
def _forms(preds: tuple[str, ...], eventive: tuple[str, ...]):
    """Form text over the predicates; built once per predicate set, since
    building a strategy costs more than drawing from it."""
    def clauses(quantifiers):
        return st.tuples(
            st.sampled_from(quantifiers), st.sampled_from(preds), _scopes(preds, eventive)
        ).map(lambda t: f"({t[0]} {t[1]} {t[2]})")

    def extend(sub):
        return st.one_of(
            sub.map(lambda f: f"(not {f})"),
            st.tuples(sub, sub).map(lambda fg: f"(and {fg[0]} {fg[1]})"),
            st.lists(sub, min_size=1, max_size=3).map(lambda fs: f"(or {' '.join(fs)})"),
        )

    # only over some, most or all: most scales hold them
    only = clauses(("some", "most", "all")).map(lambda c: f"(only {c})")
    return st.recursive(st.one_of(clauses(QUANTIFIERS), only), extend, max_leaves=3)


def _section(name: str, items: list[str]) -> str:
    return f"\n  ({name} {' '.join(items)})" if items else ""


@st.composite
def scenarios(draw, clauses: int = 1, indirect: bool = False) -> str:
    """Scenario text with at most ``clauses`` common-knowledge and as many
    discourse clauses; a third of the targets, or all if ``indirect``, have
    the shape the indirect route expands."""
    stative = [f"s{i}" for i in range(draw(st.integers(0, 2)))]
    eventive = [f"e{i}" for i in range(draw(st.integers(0 if stative else 1, 5 - len(stative))))]
    preds = stative + eventive
    # Up to 5 individuals, within the 24-bit budget: 4 for 5 predicates.
    most = min(MAX_INDIVIDUALS, BUDGET_BITS // len(preds))
    declared = " ".join(
        [f"({p} :stative)" for p in stative] + [f"({p} :eventive)" for p in eventive]
    )
    scales = draw(st.lists(st.sampled_from(SCALES), max_size=2))
    forms = known = target = _forms(tuple(preds), tuple(eventive))
    individuals = st.integers(1, most)
    if indirect or draw(st.integers(0, 2)) == 0:
        # The shape the indirect route expands: some over a concurrent
        # conjunction of other predicates, with some on the first scale that
        # holds it, and room for some but not all. Common knowledge of the
        # universal over the first branch is the clash the route looks for.
        individuals = st.integers(2, most)
        scales.insert(0, draw(st.sampled_from(SOME_SCALES)))
        restrictor = draw(st.sampled_from(preds))
        branch = st.sampled_from([p for p in preds if p != restrictor] or preds)
        x, y = draw(branch), draw(branch)
        target = st.just(f"(some {restrictor} (and-conc {x} {y}))")
        known = st.one_of(forms, st.just(f"(all {restrictor} {x})"))
    if draw(st.integers(0, 9)):
        # Most scenarios keep each quantifier on one scale, as the parser
        # requires; the rest keep the lists as drawn, so some are refused.
        scales = [s for i, s in enumerate(scales) if set(s).isdisjoint(sum(scales[:i], ()))]
    return (
        f"(scenario fuzz\n  (individuals {draw(individuals)})\n  (predicates {declared})"
        + _section("scales", [f"({' '.join(s)})" for s in scales])
        + _section("common-knowledge", draw(st.lists(known, max_size=clauses)))
        + _section("discourse", draw(st.lists(forms, max_size=clauses)))
        + f"\n  (target {draw(target)})"
        + _section("continuations", draw(st.lists(forms, max_size=2)))
        + f"\n  (expect {draw(st.sampled_from(['odd', 'felicitous']))}))"
    )


def _cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("robustness") / "fuzz.sexp"


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_generated_scenarios_keep_the_error_contract(scenario_path, text):
    scenario_path.write_text(text, encoding="utf-8")
    expected_code = 2
    section = SCALES_SECTION.search(text)
    quantifiers = section[1].replace("(", " ").replace(")", " ").split() if section else []
    repeated = len(set(quantifiers)) != len(quantifiers)
    event(f"a quantifier on two scales: {repeated}")
    try:
        scenario = parse_scenario(text)
        judgment = judge(scenario)
    except FelicityError as exc:
        event(f"refused: {type(exc).__name__}")
        assert repeated or "on an earlier scale" not in str(exc)
    else:
        assert not repeated
        event("judged")
        event(f"predicates: {len(scenario.preds)}")
        event(f"individuals past 3: {scenario.max_universe > 3}")
        preds = {p.name: p for p in scenario.preds}
        assert parse_lf(render_lf(scenario.target), preds) is scenario.target
        for scope in {n.scope for n in _nodes(scenario.target) if type(n) is Quant}:
            assert parse_pexpr(render_pexpr(scope), preds) is scope
        report = build_report(scenario.name, judgment)
        render_report(report, "json")
        render_report(report, "table")
        render_traces(report)
        ctx = ContextState(
            common_knowledge=scenario.common_knowledge,
            discourse=scenario.discourse,
            preds=scenario.preds,
            bound=scenario.max_universe,
            scales=scenario.scales,
        )
        for verdict in judgment.theories:
            for step in verdict.trace:
                assert replay_step(step, ctx) == step.output, (verdict.theory, step)
                # the gated some-clause entails each branch's expansion
                if step.rule == "expansion-licensed":
                    assert step.output == "entailed", step
                if step.rule == "ignorance" and step.output != "(none)":
                    event("ignorance inferred")
                    for item in step.output.split("; "):
                        disjunct = IGNORANCE_ITEM.match(item)
                        assert disjunct, step
                        assert render_lf(parse_lf(disjunct[1], preds)) == disjunct[1], step
        expected_code = 0 if judgment.aggregate == scenario.expect else 1
    code, _, err = _cli("check", str(scenario_path))
    assert code == expected_code and "internal error" not in err, err
    code, _, err = _cli("run", "--format", "json", "--explain", str(scenario_path))
    assert code == (2 if expected_code == 2 else 0) and "internal error" not in err, err


def _json(scenario, judgment) -> str:
    return render_report(build_report(scenario.name, judgment), "json")


@settings(max_examples=150, deadline=None)
@given(scenarios(clauses=2), st.sampled_from(THEORY_NAMES), st.permutations(range(5)))
def test_renaming_reordering_and_judging_one_theory_change_nothing(text, theory, order):
    try:
        scenario = parse_scenario(text)
        judgment = judge(scenario)
    except FelicityError as exc:
        event(f"refused: {type(exc).__name__}")
        return
    # A theory judges alone as it does among the others.
    alone = judge(scenario._replace(enabled_theories=(theory,)))
    assert alone.theories == tuple(v for v in judgment.theories if v.theory == theory)
    assert alone.aggregate == alone.theories[0].verdict
    # Fresh predicate names, in an order unrelated to the old one, and each
    # context tier reversed change nothing but the names.
    rename = {p.name: f"p{i}" for p, i in zip(scenario.preds, order)}

    def renamed(s: str) -> str:
        return PRED_NAME.sub(lambda m: rename[m[0]], s)

    other = parse_scenario(renamed(text))
    ck, discourse = other.common_knowledge[::-1], other.discourse[::-1]
    event(f"context reordered: {max(len(ck), len(discourse)) > 1}")
    other = other._replace(common_knowledge=ck, discourse=discourse)
    assert _json(other, judge(other)) == renamed(_json(scenario, judgment))


@settings(max_examples=150, deadline=None)
@given(scenarios(indirect=True))
def test_a_sequenced_scope_never_takes_the_indirect_route(text):
    try:
        scenario = parse_scenario(text)
        judgment = judge(scenario)
    except FelicityError as exc:
        event(f"refused: {type(exc).__name__}")
        return
    target = scenario.target
    branches = (target.scope.left, target.scope.right)
    if not all(node_facts(b).eventive for b in branches):
        event("a stative branch: no and-seq")
        return
    indirect = next(v for v in judgment.theories if v.theory == "indirect-contradiction")
    event(f"and-conc scope fired: {indirect.fired}")
    sequenced = Quant(target.quantifier, target.restrictor, AndSeq(*branches))
    alone = scenario._replace(target=sequenced, enabled_theories=(indirect.theory,))
    assert not judge(alone).theories[0].fired


@settings(max_examples=150, deadline=None)
@given(scenarios(indirect=True))
def test_a_distributive_and_never_takes_the_indirect_route(text):
    # (and (some r x) (some r y)) is the distributive reading of
    # (some r (and-conc x y)): no conjunction in a scope, nothing to expand
    try:
        scenario = parse_scenario(text)
        judgment = judge(scenario)
    except FelicityError as exc:
        event(f"refused: {type(exc).__name__}")
        return
    target = scenario.target
    indirect = next(v for v in judgment.theories if v.theory == "indirect-contradiction")
    event(f"and-conc scope fired: {indirect.fired}")
    split = AndLF(*(Quant(target.quantifier, target.restrictor, branch)
                    for branch in (target.scope.left, target.scope.right)))
    alone = scenario._replace(target=split, enabled_theories=(indirect.theory,))
    assert not judge(alone).theories[0].fired


def _nodes(node):
    """node and every node under it."""
    yield node
    for child in children(node):
        yield from _nodes(child)


def _settle(scenario, data):
    """magri-5's shape: the scenario with its plain target (no only) and
    common knowledge that admits it, first as drawn (common knowledge may
    also hold one stronger alternative) and then after a discourse that
    settles each stronger alternative of the target's clauses, with those
    alternatives. None, with the reason as an event, when the target has
    only or contradicts common knowledge."""
    target, ck = scenario.target, scenario.common_knowledge
    scales, bound = scenario.scales, scenario.max_universe
    space = (scenario.preds, bound, scales)
    if any(type(n) is Only for n in _nodes(target)):
        event("only in the target")
        return None
    if not consistent(ck + (target,), *space):
        event("target contradicts common knowledge")
        return None
    stronger = [
        m for clause in _clauses(target)
        for m in substitution_alternatives(clause, scales, bound).stronger()
    ]
    # Common knowledge that holds a stronger alternative is the clash that
    # fires magri-blind when nothing is settled (magri-3).
    known = tuple(data.draw(st.lists(st.sampled_from(stronger), max_size=1))) if stronger else ()
    if consistent(ck + known + (target,), *space):
        ck += known
    # Keep the discourse where it admits the target; settle each stronger
    # alternative by its negation where that keeps the context consistent,
    # else by asserting it.
    discourse = scenario.discourse
    if not consistent(ck + discourse + (target,), *space):
        discourse = ()
    unsettled = scenario._replace(common_knowledge=ck, discourse=discourse)
    for m in stronger:
        facts = ck + discourse + (target,)
        discourse += (NotLF(m),) if consistent(facts + (NotLF(m),), *space) else (m,)
    return unsettled, unsettled._replace(discourse=discourse), stronger


@settings(max_examples=100, deadline=None)
@given(scenarios(), st.data())
def test_a_settled_plain_target_does_not_fire_magri_blind(text, data):
    # magri-5: a plain target (no only) that common knowledge admits, after
    # a discourse that settles each of its clauses' stronger alternatives.
    # Pruning leaves exh nothing to negate, so no mismatching implicature.
    try:
        scenario = parse_scenario(text)
    except FelicityError as exc:
        event(f"refused: {type(exc).__name__}")
        return
    shapes = _settle(scenario._replace(enabled_theories=("magri-blind",)), data)
    if shapes is None:
        return
    unsettled, settled, stronger = shapes
    event(f"stronger alternatives settled: {min(len(stronger), 3)}")
    event(f"magri-blind fires before settling: {judge(unsettled).theories[0].fired}")
    judgment = judge(settled)
    assert not judgment.theories[0].fired, render_traces(build_report(settled.name, judgment))


# One context section of a generated scenario's text.
CONTEXT_SECTION = re.compile(r"\n  \((?:common-knowledge|discourse) [^\n]*")


@settings(max_examples=100, deadline=None)
@given(scenarios(), st.data())
def test_the_memos_never_show_in_the_output(scenario_path, text, data):
    # A memo keyed on less than its value depends on returns what another
    # call stored. So the output after the trace-step memo is cleared must
    # equal the output after it was filled in another order: every recorded
    # step recorded again through _step from its inputs, parsed by their
    # kinds, in reverse trace order, so that a pruned set's step comes before
    # the step that generated the set it was pruned from. Replay cannot fill
    # the memo, since it never reads it. magri-5's settled shape prunes.
    try:
        scenario = parse_scenario(text)
    except FelicityError as exc:
        event(f"refused: {type(exc).__name__}")
    else:
        shapes = _settle(scenario, data)
        if shapes is not None:
            settled = shapes[1]
            context = "".join(
                _section(name, [render_lf(lf) for lf in forms])
                for name, forms in (
                    ("common-knowledge", settled.common_knowledge),
                    ("discourse", settled.discourse),
                )
            )
            text = CONTEXT_SECTION.sub("", text)
            text = text.replace("\n  (target ", context + "\n  (target ", 1)
    scenario_path.write_text(text, encoding="utf-8")
    argv = ("run", "--format", "json", "--explain", str(scenario_path))
    _record.cache_clear()
    cleared = _cli(*argv)
    try:
        scenario = parse_scenario(text)
        judgment = judge(scenario)
    except FelicityError:
        pass
    else:
        _record.cache_clear()
        ctx = ContextState(
            common_knowledge=scenario.common_knowledge,
            discourse=scenario.discourse,
            preds=scenario.preds,
            bound=scenario.max_universe,
            scales=scenario.scales,
        )
        steps = [step for verdict in judgment.theories for step in verdict.trace]
        alternatives = {s.inputs: s.output for s in steps if s.rule == "alternatives"}
        pruning = [s for s in steps if s.rule == "prune-settled"]
        dropped = any(s.output != alternatives[s.inputs] for s in pruning)
        event(f"pruning drops alternatives: {dropped}")
        preds = {p.name: p for p in ctx.preds}
        for step in reversed(steps):
            kinds = RULES[step.rule].inputs
            values = [kind.parse(shown, ctx, preds) for kind, shown in zip(kinds, step.inputs)]
            _step([], ctx, step.rule, *values)
    assert _cli(*argv) == cleared
