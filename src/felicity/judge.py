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
from functools import lru_cache

from .alternatives import (
    AlternativeSet,
    PresupVariant,
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
from .logic import consistent, entails, entails_with_existential_import
from .syntax import (
    AndConc,
    AndLF,
    FelicityError,
    LogicalForm,
    Only,
    Quant,
    SOME,
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

    # Identity hashing, as for Tag, runs in C: a reading-gate value keys _record.
    __hash__ = object.__hash__


class Mechanism(Enum):
    MISMATCHING_SI = "mismatching-SI"
    DIRECT_CONTEXTUAL_CONTRADICTION = "direct-contextual-contradiction"
    PRESUPPOSED_IGNORANCE = "presupposed-ignorance"
    LOGICAL_INTEGRITY = "logical-integrity"
    PRESUPPOSITION_UPDATE_CLASH = "presupposition-update-clash"
    INDIRECT_CONTEXTUAL_CONTRADICTION = "indirect-contextual-contradiction"
    NONE = "none"


TraceStep = namedtuple("TraceStep", "rule inputs output")


class TheoryVerdict(record("TheoryVerdict", "theory mechanism trace")):
    """One theory's trace and the mechanism that fired, if any; the verdict
    is odd exactly when one did."""

    __slots__ = ()

    @property
    def fired(self) -> bool:
        return self.mechanism is not Mechanism.NONE

    @property
    def verdict(self) -> Verdict:
        return Verdict.FELICITOUS if self.mechanism is Mechanism.NONE else Verdict.ODD


class Judgment(record("Judgment", "reading theories continuations", ((),))):
    """The verdicts of all enabled theories on one target; the aggregate is
    odd exactly when some theory fired."""

    __slots__ = ()

    @property
    def aggregate(self) -> Verdict:
        return Verdict.ODD if any(v.fired for v in self.theories) else Verdict.FELICITOUS


# ---------------------------------------------------------------------------
# Reading analysis
# ---------------------------------------------------------------------------


def _clauses(lf: LogicalForm) -> tuple[LogicalForm, ...]:
    """The two clauses of a conjunction of quantified clauses, else lf alone."""
    # Exact types, as node_facts tests them: isinstance on a node class is slow.
    clause = (Quant, Only)
    if type(lf) is AndLF and type(lf.left) in clause and type(lf.right) in clause:
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
# those names (a profiler, say) sees the calls a trace makes. The renderers
# run only when ``_record`` misses, so such a profiler sees ``render_lf``
# once per distinct step, not once per recorded one.


def _fmt_alts(alts: AlternativeSet) -> str:
    """The set's members with their tags. ``_value_`` is the member's own
    attribute, where ``.value`` is a Python-level descriptor."""
    if not alts.members:
        return "(none)"
    return "; ".join(f"{alt.tag._value_} {render_lf(alt.form)}" for alt in alts.members)


def _fmt_forms(forms) -> str:
    rendered = [render_lf(f) for f in forms]
    return "; ".join(rendered) if rendered else "(none)"


def _fmt_form(lf: LogicalForm) -> str:
    return render_lf(lf)


def _fmt_ignorance(disjuncts) -> str:
    """The ignorance implicature not-certain(d) of each live disjunct d."""
    rendered = [f"(not (know {render_lf(d)}))" for d in disjuncts]
    return "; ".join(rendered) if rendered else "(none)"


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
VARIANT = InputKind(lambda v: v._value_, lambda text, ctx, preds: PresupVariant(text))
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
        lambda ctx, lf, variant: presupposition(lf, variant),
        lambda p: "undefined" if p is None else render_lf(p),
    ),
    "presup-strength": Rule(
        (FORM, FORM),
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
        lambda gate: f"{gate[0]._value_}: {'predictor skipped' if gate[1] is None else 'proceed'}",
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
    "ignorance": Rule((FORM,), lambda ctx, disj: disjunction_ignorance(disj, ctx), _fmt_ignorance),
    "clash-check": Rule(
        (FORM,),
        lambda ctx, lf: k_holds(ctx, lf),
        _words("certain in context: contradiction", "not certain: no clash"),
    ),
}


def _step(trace: list[TraceStep], ctx: ContextState, rule: str, *inputs):
    """Compute ``rule`` on the inputs, append the step to the trace and
    return the value. Only the step's text comes from a memo."""
    value = RULES[rule].compute(ctx, *inputs)
    trace.append(_record(rule, value, *inputs))
    return value


@lru_cache(maxsize=8192)
def _record(rule: str, value, *inputs) -> TraceStep:
    """The trace step of ``rule`` on the inputs with the value it computed:
    the inputs rendered by their kinds, the value by the rule's renderer.
    No renderer reads the context, so the arguments are the whole key, with
    no tuple of inputs inside it, and a repeated step costs one lookup.
    ``replay_step`` never reads this memo: it renders what it recomputes
    itself."""
    kinds, _, output = RULES[rule]
    # Every rule takes one or two inputs; spelled out, rendering them costs
    # no comprehension frame.
    if len(inputs) == 1:
        rendered = (kinds[0].render(inputs[0]),)
    else:
        (first, second), (x, y) = kinds, inputs
        rendered = (first.render(x), second.render(y))
    # tuple.__new__ skips the Python frame of the namedtuple's own __new__.
    return tuple.__new__(TraceStep, (rule, rendered, output(value)))


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
                and _step(trace, ctx, "contextual-entailment", alt_presup)
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
        joint = _step(trace, ctx, "presupposition-update", p, clause)
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
            _step(trace, ctx, "expansion-licensed", prejacent, expansion)
            for disjunct in _step(trace, ctx, "ignorance", expansion):
                if _step(trace, ctx, "clash-check", disjunct):
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
    return TheoryVerdict(theory, fired[0] if fired else Mechanism.NONE, tuple(trace))


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
    """Run every enabled predictor on the scenario target, once per theory:
    of repeated names the first is kept, as ``(theories ...)`` and
    ``--theories`` keep it.

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
    theories = dict.fromkeys(scenario.enabled_theories)
    verdicts = tuple(_PREDICTORS[n](scenario.target, ctx) for n in theories)
    continuations = tuple(
        (c, continuation_felicity(ctx, scenario.target, c))
        for c in scenario.continuations
    )
    return Judgment(reading, verdicts, continuations)
