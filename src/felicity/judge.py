"""Reading analysis, the five oddness predictors and the trace rules.

Every predictor returns a verdict plus a trace of replayable derivation
steps: each step names a rule, the rendered inputs it consumed, and the
rendered result. Each rule is defined once, in ``RULES``: the kinds of its
inputs, the function that computes its value and the renderer of that
value. Predictors record every step through ``_step``, and ``replay_step``
parses a recorded step's inputs by their kinds and runs the same function,
so a trace can be audited mechanically.

Sentences whose top node conjoins two quantified clauses are routed through
each predictor one clause at a time; the sentence is odd if any clause
trips the predictor.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from enum import Enum

from .alternatives import (
    AlternativeSet,
    Presup,
    PresupVariant,
    PresuppositionUndefinedError,
    disjunction_ignorance,
    exh,
    presup_strictly_stronger,
    presupposition,
    prune_settled,
    substitution_alternatives,
)
from .context import (
    ContextState,
    Verdict,
    contextually_entails,
    continuation_felicity,
    k_holds,
)
from .dsl import (
    Scenario,
    THEORY_NAMES,
    parse_lf,
    parse_pexpr,
    parse_predicate,
    render_lf,
    render_pexpr,
)
from .logic import (
    AndConc,
    AndLF,
    FelicityError,
    LogicalForm,
    Only,
    Quant,
    SOME,
    consistent,
    entails,
    entails_with_existential_import,
    expand_qi,
    node_facts,
    record,
)

(
    THEORY_MAGRI_BLIND,
    THEORY_PRESUPPOSED_IGNORANCE,
    THEORY_LOGICAL_INTEGRITY,
    THEORY_DEL_PINAL,
    THEORY_INDIRECT,
) = THEORY_NAMES


class Reading(Enum):
    CONCURRENT_COLLECTIVE = "concurrent-collective"
    SEQUENCED_SPLIT = "sequenced-split"
    DISTRIBUTIVE_SENTENTIAL = "distributive-sentential"
    SIMPLE = "simple"


class Mechanism(Enum):
    MISMATCHING_SI = "mismatching-SI"
    DIRECT_CONTEXTUAL_CONTRADICTION = "direct-contextual-contradiction"
    PRESUPPOSED_IGNORANCE = "presupposed-ignorance"
    LOGICAL_INTEGRITY = "logical-integrity"
    PRESUPPOSITION_UPDATE_CLASH = "presupposition-update-clash"
    INDIRECT_CONTEXTUAL_CONTRADICTION = "indirect-contextual-contradiction"
    NONE = "none"


TraceStep = namedtuple("TraceStep", "rule inputs output")


class TheoryVerdict(record("TheoryVerdict", "theory verdict mechanism trace")):
    """One theory's verdict, the mechanism that fired (if any) and its trace."""

    __slots__ = ()

    def __new__(cls, theory, verdict, mechanism, trace):
        if (verdict is Verdict.ODD) != (mechanism is not Mechanism.NONE):
            raise ValueError("a verdict is odd exactly when a mechanism fired")
        return tuple.__new__(cls, (theory, verdict, mechanism, trace))

    @property
    def fired(self) -> bool:
        return self.mechanism is not Mechanism.NONE


class Judgment(record("Judgment", "reading theories aggregate continuations", ((),))):
    """The verdicts of all enabled theories on one target, and their aggregate."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Reading analysis
# ---------------------------------------------------------------------------


def _clauses(lf: LogicalForm) -> tuple[LogicalForm, ...]:
    """The two clauses of a conjunction of quantified clauses, else lf alone."""
    clause = (Quant, Only)
    if isinstance(lf, AndLF) and isinstance(lf.left, clause) and isinstance(lf.right, clause):
        return (lf.left, lf.right)
    return (lf,)


def analyze_reading(lf: LogicalForm) -> Reading:
    """Which situation reading the form supports.

    A top-level conjunction of two quantified clauses is distributive. A
    sequenced conjunction anywhere in a scope defeats concurrency, so it
    dominates a concurrent conjunction elsewhere.
    """
    if len(_clauses(lf)) > 1:
        return Reading.DISTRIBUTIVE_SENTENTIAL
    facts = node_facts(lf)
    if facts.seq:
        return Reading.SEQUENCED_SPLIT
    if facts.conc:
        return Reading.CONCURRENT_COLLECTIVE
    return Reading.SIMPLE


# ---------------------------------------------------------------------------
# Trace rules
# ---------------------------------------------------------------------------
#
# The functions in the table call the engine's functions through their
# module-level names, looked up at each call, so that anything that rebinds
# those names (a profiler, say) sees the calls a trace makes.


def _fmt_alts(alts: AlternativeSet) -> str:
    if not alts.members:
        return "(none)"
    return "; ".join(f"{alt.tag.value} {render_lf(alt.form)}" for alt in alts.members)


def _fmt_forms(forms) -> str:
    rendered = [render_lf(f) for f in forms]
    return "; ".join(rendered) if rendered else "(none)"


def _fmt_form(lf: LogicalForm) -> str:
    return render_lf(lf)


# How a rule input is recorded and read back: ``render`` turns the value
# into trace text, ``parse`` turns that text back into the value against the
# replaying context and its table of declared predicates.
InputKind = namedtuple("InputKind", "render parse")


FORM = InputKind(_fmt_form, lambda text, ctx, preds: parse_lf(text, preds))
# An alternative set is shown as its origin and read back by regenerating it.
ALTERNATIVES = InputKind(
    lambda alts: render_lf(alts.origin),
    lambda text, ctx, preds: RULES["alternatives"].compute(ctx, parse_lf(text, preds)),
)
PRUNED_ALTERNATIVES = InputKind(
    ALTERNATIVES.render,
    lambda text, ctx, preds: prune_settled(ALTERNATIVES.parse(text, ctx, preds), ctx),
)
# Presupposition strength compares contents only, so the variant is not shown.
PRESUPPOSITION = InputKind(
    lambda p: render_lf(p.content),
    lambda text, ctx, preds: Presup(parse_lf(text, preds), PresupVariant.WEAK),
)
VARIANT = InputKind(lambda v: v.value, lambda text, ctx, preds: PresupVariant(text))
RESTRICTOR = InputKind(lambda p: p.name, lambda text, ctx, preds: parse_predicate(text, preds))
SCOPE = InputKind(lambda p: render_pexpr(p), lambda text, ctx, preds: parse_pexpr(text, preds))


# A trace rule: the kinds of its inputs, the function computing its value
# from the context and the inputs, and the renderer of the value.
Rule = namedtuple("Rule", "inputs compute output")


def _words(yes: str, no: str) -> Callable[[bool], str]:
    # A bool indexes the pair, and the bound method adds no Python frame.
    return (no, yes).__getitem__


_CONSISTENCY = _words("consistent", "inconsistent")
_ENTAILMENT = _words("entailed", "not-entailed")


def _ck_consistent(ctx: ContextState, *lfs: LogicalForm) -> bool:
    return consistent(ctx.common_knowledge + lfs, ctx.preds, ctx.bound, ctx.scales)


def _presupposition(ctx: ContextState, lf: LogicalForm, variant: PresupVariant):
    """The presupposition, or None where the form has no rule for one."""
    try:
        return presupposition(lf, variant)
    except PresuppositionUndefinedError:
        return None


def _reading_gate(ctx: ContextState, clause: LogicalForm):
    """The clause's reading, with the prejacent the indirect route expands:
    a some-clause over a concurrent conjunction, with ``some`` on a scale.
    The prejacent is None when the route does not apply."""
    reading = analyze_reading(clause)
    prejacent = clause.body if isinstance(clause, Only) else clause
    if not (
        reading is Reading.CONCURRENT_COLLECTIVE
        and isinstance(prejacent, Quant)
        and prejacent.quantifier is SOME
        and isinstance(prejacent.scope, AndConc)
        and ctx.scales.scale_for(SOME) is not None
    ):
        prejacent = None
    return reading, prejacent


RULES: dict[str, Rule] = {
    "distributive-split": Rule((FORM,), lambda ctx, lf: _clauses(lf), _fmt_forms),
    "alternatives": Rule(
        (FORM,), lambda ctx, lf: substitution_alternatives(lf, ctx.scales, ctx.bound), _fmt_alts
    ),
    "prune-settled": Rule((ALTERNATIVES,), lambda ctx, alts: prune_settled(alts, ctx), _fmt_alts),
    "exh": Rule(
        (PRUNED_ALTERNATIVES,),
        lambda ctx, alts: exh(alts.origin, alts, ctx.bound, ctx.scales),
        _fmt_form,
    ),
    "ck-consistency": Rule((FORM,), _ck_consistent, _CONSISTENCY),
    "presupposition": Rule(
        (FORM, VARIANT),
        _presupposition,
        lambda p: "undefined" if p is None else render_lf(p.content),
    ),
    "presup-strength": Rule(
        (PRESUPPOSITION, PRESUPPOSITION),
        lambda ctx, p1, p2: presup_strictly_stronger(p1, p2, ctx.preds, ctx.bound, ctx.scales),
        _words("strictly-stronger", "not-stronger"),
    ),
    "contextual-entailment": Rule(
        (FORM,), lambda ctx, lf: contextually_entails(ctx, lf), _ENTAILMENT
    ),
    "logical-entailment": Rule(
        (FORM, FORM),
        lambda ctx, lf, alt: entails_with_existential_import(
            [lf], alt, ctx.preds, ctx.bound, ctx.scales
        ),
        _ENTAILMENT,
    ),
    "hypothetical-entailment": Rule(
        (FORM, FORM),
        lambda ctx, lf, alt: entails(ctx.facts + (lf,), alt, ctx.preds, ctx.bound, ctx.scales),
        _ENTAILMENT,
    ),
    "assertion-consistency": Rule((FORM,), _ck_consistent, _CONSISTENCY),
    "presupposition-update": Rule((FORM, FORM), _ck_consistent, _CONSISTENCY),
    "reading-gate": Rule(
        (FORM,),
        _reading_gate,
        lambda gate: f"{gate[0].value}: {'predictor skipped' if gate[1] is None else 'proceed'}",
    ),
    "qi-expansion": Rule(
        (RESTRICTOR, SCOPE),
        lambda ctx, restrictor, branch: expand_qi(restrictor, branch, ctx.scales.scale_for(SOME)),
        _fmt_form,
    ),
    "expansion-licensed": Rule(
        (FORM, FORM),
        lambda ctx, lf, expansion: entails([lf], expansion, ctx.preds, ctx.bound, ctx.scales),
        _ENTAILMENT,
    ),
    "ignorance": Rule((FORM,), lambda ctx, disj: disjunction_ignorance(disj, ctx), _fmt_forms),
    "clash-check": Rule(
        (FORM,),
        lambda ctx, lf: k_holds(ctx, lf),
        _words("certain in context: contradiction", "not certain: no clash"),
    ),
}


def _step(trace: list[TraceStep], ctx: ContextState, rule: str, *inputs):
    """Compute ``rule`` on the inputs, record the step and return the value."""
    kinds, compute, output = RULES[rule]
    value = compute(ctx, *inputs)
    # Every rule takes one or two inputs; spelled out, rendering them costs
    # no comprehension frame.
    if len(inputs) == 1:
        rendered = (kinds[0].render(inputs[0]),)
    else:
        (first, second), (x, y) = kinds, inputs
        rendered = (first.render(x), second.render(y))
    trace.append(TraceStep(rule, rendered, output(value)))
    return value


def replay_step(step: TraceStep, ctx: ContextState) -> str:
    """Recompute a recorded trace step against the same context.

    Returns the output the rule produces for the recorded inputs; trace
    integrity means this equals ``step.output`` for every recorded step. An
    unknown rule or a wrong number of inputs raises ValueError; an input
    naming an undeclared predicate raises ParseError, as ``parse_lf`` does.
    """
    rule = RULES.get(step.rule)
    if rule is None:
        raise ValueError(f"unknown trace rule {step.rule!r}")
    if len(step.inputs) != len(rule.inputs):
        raise ValueError(
            f"trace rule {step.rule!r} takes {len(rule.inputs)} inputs,"
            f" got {len(step.inputs)}"
        )
    preds = {p.name: p for p in ctx.preds}
    values = [kind.parse(text, ctx, preds) for kind, text in zip(rule.inputs, step.inputs)]
    return rule.output(rule.compute(ctx, *values))


# ---------------------------------------------------------------------------
# Predictors
# ---------------------------------------------------------------------------


def predict_magri_blind(lf: LogicalForm, ctx: ContextState) -> TheoryVerdict:
    """Blind mandatory implicature: strengthen first, look at the world later.

    Alternatives are pruned against the discourse record only, the
    strengthening itself never sees any context, and the verdict is a clash
    between the strengthened meaning and background common knowledge. An
    overt 'only' already carries the exhaustive meaning truth-conditionally,
    so there the clash is a direct contextual contradiction.
    """
    trace: list[TraceStep] = []
    fired: list[Mechanism] = []
    for clause in _traced_clauses(lf, ctx, trace):
        if isinstance(clause, Only):
            if not _step(trace, ctx, "ck-consistency", clause):
                fired.append(Mechanism.DIRECT_CONTEXTUAL_CONTRADICTION)
            continue
        alts = _step(trace, ctx, "alternatives", clause)
        pruned = _step(trace, ctx, "prune-settled", alts)
        strengthened = _step(trace, ctx, "exh", pruned)
        if not _step(trace, ctx, "ck-consistency", strengthened):
            fired.append(Mechanism.MISMATCHING_SI)
    return _verdict(THEORY_MAGRI_BLIND, fired, trace)


def predict_presupposed_ignorance(lf: LogicalForm, ctx: ContextState) -> TheoryVerdict:
    """Infelicity from an alternative whose strictly stronger presupposition
    is already contextually established.

    Comparison is always against the weak presupposition of the assertion;
    alternatives without a presupposition rule are skipped.
    """
    trace: list[TraceStep] = []
    fired: list[Mechanism] = []
    for clause in _traced_clauses(lf, ctx, trace):
        own = _step(trace, ctx, "presupposition", clause, PresupVariant.WEAK)
        if own is None:
            continue
        for m in _step(trace, ctx, "alternatives", clause).forms():
            alt_presup = _step(trace, ctx, "presupposition", m, PresupVariant.WEAK)
            if (
                alt_presup is not None
                and _step(trace, ctx, "presup-strength", alt_presup, own)
                and _step(trace, ctx, "contextual-entailment", alt_presup.content)
            ):
                fired.append(Mechanism.PRESUPPOSED_IGNORANCE)
    return _verdict(THEORY_PRESUPPOSED_IGNORANCE, fired, trace)


def predict_logical_integrity(lf: LogicalForm, ctx: ContextState) -> TheoryVerdict:
    """Infelicity when the sentence contextually but not logically entails
    one of its alternatives.

    Logical entailment is taken with existential import on the restrictors;
    without it every universal clause would spuriously fail to entail its
    weaker mates through the empty-restrictor loophole. The contextual side
    checks the context hypothetically updated with the sentence itself.
    """
    trace: list[TraceStep] = []
    fired: list[Mechanism] = []
    for clause in _traced_clauses(lf, ctx, trace):
        for m in _step(trace, ctx, "alternatives", clause).forms():
            if not _step(trace, ctx, "logical-entailment", clause, m) and _step(
                trace, ctx, "hypothetical-entailment", clause, m
            ):
                fired.append(Mechanism.LOGICAL_INTEGRITY)
    return _verdict(THEORY_LOGICAL_INTEGRITY, fired, trace)


def predict_del_pinal(lf: LogicalForm, ctx: ContextState) -> TheoryVerdict:
    """Infelicity when updating the common ground with the exhaustified
    presupposition cannot be reconciled with the assertion.

    The sentence must itself be assertable (consistent with common
    knowledge); oddness is the joint update failing. When the exhaustified
    presupposition contains the assertion, joint failure degenerates to a
    presupposition-versus-common-ground clash, which is reported under the
    same mechanism.
    """
    trace: list[TraceStep] = []
    fired: list[Mechanism] = []
    for clause in _traced_clauses(lf, ctx, trace):
        p = _step(trace, ctx, "presupposition", clause, PresupVariant.EXHAUSTIFIED)
        if p is None:
            continue
        assertable = _step(trace, ctx, "assertion-consistency", clause)
        joint = _step(trace, ctx, "presupposition-update", p.content, clause)
        if assertable and not joint:
            fired.append(Mechanism.PRESUPPOSITION_UPDATE_CLASH)
    return _verdict(THEORY_DEL_PINAL, fired, trace)


def predict_indirect_contradiction(lf: LogicalForm, ctx: ContextState) -> TheoryVerdict:
    """The concurrent-conjunction mechanism: an ignorance implicature drawn
    from an entailed scale-mate disjunction clashes with what the context
    makes certain.

    Hard reading gate: only a some-clause over a concurrent conjunction
    qualifies. For each conjunct branch, the clause entails the disjunction
    of scale-mate clauses over that branch alone; asserting only the weak
    clause therefore signals ignorance about the undecided disjuncts, and
    the sentence is odd if the context is in fact certain about one of
    them.
    """
    trace: list[TraceStep] = []
    fired: list[Mechanism] = []
    for clause in _traced_clauses(lf, ctx, trace):
        _, prejacent = _step(trace, ctx, "reading-gate", clause)
        if prejacent is None:
            continue
        for branch in (prejacent.scope.left, prejacent.scope.right):
            expansion = _step(trace, ctx, "qi-expansion", prejacent.restrictor, branch)
            if not _step(trace, ctx, "expansion-licensed", prejacent, expansion):
                continue
            for ignorance in _step(trace, ctx, "ignorance", expansion):
                if _step(trace, ctx, "clash-check", ignorance.body.body):
                    fired.append(Mechanism.INDIRECT_CONTEXTUAL_CONTRADICTION)
    return _verdict(THEORY_INDIRECT, fired, trace)


def _traced_clauses(
    lf: LogicalForm, ctx: ContextState, trace: list[TraceStep]
) -> tuple[LogicalForm, ...]:
    if len(_clauses(lf)) > 1:
        return _step(trace, ctx, "distributive-split", lf)
    return (lf,)


def _verdict(theory: str, fired: list[Mechanism], trace: list[TraceStep]) -> TheoryVerdict:
    """The verdict of a theory; the first mechanism that fired names it."""
    if fired:
        return TheoryVerdict(theory, Verdict.ODD, fired[0], tuple(trace))
    return TheoryVerdict(theory, Verdict.FELICITOUS, Mechanism.NONE, tuple(trace))


_PREDICTORS = {
    THEORY_MAGRI_BLIND: predict_magri_blind,
    THEORY_PRESUPPOSED_IGNORANCE: predict_presupposed_ignorance,
    THEORY_LOGICAL_INTEGRITY: predict_logical_integrity,
    THEORY_DEL_PINAL: predict_del_pinal,
    THEORY_INDIRECT: predict_indirect_contradiction,
}


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def judge(scenario: Scenario) -> Judgment:
    """Run every enabled predictor on the scenario target.

    The aggregate is odd iff at least one enabled theory fires. Continuation
    verdicts are computed against the context updated with the target.
    """
    ctx = ContextState(
        common_knowledge=scenario.common_knowledge,
        discourse=scenario.discourse,
        preds=scenario.preds,
        bound=scenario.max_universe,
        scales=scenario.scales,
    )
    reading = analyze_reading(scenario.target)
    unknown = [n for n in scenario.enabled_theories if n not in _PREDICTORS]
    if unknown:
        raise FelicityError(f"unknown theories {unknown}; pick from {THEORY_NAMES}")
    verdicts = tuple(_PREDICTORS[n](scenario.target, ctx) for n in scenario.enabled_theories)
    aggregate = (
        Verdict.ODD if any(v.fired for v in verdicts) else Verdict.FELICITOUS
    )
    continuations = tuple(
        (c, continuation_felicity(ctx, scenario.target, c))
        for c in scenario.continuations
    )
    return Judgment(
        reading=reading,
        theories=verdicts,
        aggregate=aggregate,
        continuations=continuations,
    )
