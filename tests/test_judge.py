"""The five predictors, reading analysis, aggregation, and trace integrity."""

from __future__ import annotations

import random

import pytest

from felicity import (
    ALL,
    AndConc,
    AndLF,
    AndSeq,
    Atom,
    ContextState,
    Mechanism,
    NO,
    NotLF,
    Only,
    ParseError,
    Quant,
    Reading,
    Scenario,
    SOME,
    TRUE,
    TraceStep,
    Verdict,
    analyze_reading,
    consistent,
    judge,
    parse_pexpr,
    predict_del_pinal,
    predict_indirect_contradiction,
    predict_logical_integrity,
    predict_magri_blind,
    predict_presupposed_ignorance,
    replay_step,
)
from conftest import (
    BLOND,
    ITALIAN,
    ITALIAN_PREDS,
    LEFT,
    PORTUGAL,
    TALL,
    WARM,
    WON,
)


def some(r, s):
    return Quant(SOME, r, s)


def all_(r, s):
    return Quant(ALL, r, s)


ALL_WARM = all_(ITALIAN, Atom(WARM))
SOME_WARM = some(ITALIAN, Atom(WARM))
EXIST = some(ITALIAN, TRUE)
CONJ = AndConc(Atom(WARM), Atom(BLOND))
SOME_CONJ = some(ITALIAN, CONJ)

SENTENCE_1 = SOME_WARM
SENTENCE_3 = Only(SOME_WARM)
SENTENCE_4 = Only(SOME_CONJ)
SENTENCE_14 = AndLF(SOME_WARM, some(ITALIAN, Atom(BLOND)))
SENTENCE_15 = AndLF(ALL_WARM, Only(some(ITALIAN, Atom(BLOND))))
SENTENCE_16 = some(PORTUGAL, AndConc(Atom(WON), Atom(TALL)))
SENTENCE_17 = some(PORTUGAL, AndSeq(Atom(WON), Atom(LEFT)))


@pytest.fixture
def italian_ctx(short_registry):
    return ContextState(
        common_knowledge=(ALL_WARM, EXIST),
        preds=ITALIAN_PREDS,
        scales=short_registry,
    )


@pytest.fixture
def repaired_ctx(short_registry):
    return ContextState(
        common_knowledge=(ALL_WARM, EXIST),
        discourse=(ALL_WARM,),
        preds=ITALIAN_PREDS,
        scales=short_registry,
    )


@pytest.fixture
def portugal_ctx(short_registry):
    return ContextState(
        common_knowledge=(all_(PORTUGAL, Atom(WON)), some(PORTUGAL, TRUE)),
        preds=(PORTUGAL, WON, TALL, LEFT),
        scales=short_registry,
    )


class TestAnalyzeReading:
    def test_concurrent_collective(self):
        assert analyze_reading(SOME_CONJ) is Reading.CONCURRENT_COLLECTIVE
        assert analyze_reading(SENTENCE_4) is Reading.CONCURRENT_COLLECTIVE

    def test_sequenced_split(self):
        assert analyze_reading(SENTENCE_17) is Reading.SEQUENCED_SPLIT

    def test_sequencing_dominates_concurrency(self):
        nested = some(PORTUGAL, AndConc(Atom(TALL), AndSeq(Atom(WON), Atom(LEFT))))
        assert analyze_reading(nested) is Reading.SEQUENCED_SPLIT

    def test_distributive_sentential(self):
        assert analyze_reading(SENTENCE_14) is Reading.DISTRIBUTIVE_SENTENTIAL
        assert analyze_reading(SENTENCE_15) is Reading.DISTRIBUTIVE_SENTENTIAL

    def test_simple(self):
        assert analyze_reading(SOME_WARM) is Reading.SIMPLE
        assert analyze_reading(NotLF(ALL_WARM)) is Reading.SIMPLE


class TestMagriBlind:
    def test_bare_some_clashes(self, italian_ctx):
        v = predict_magri_blind(SENTENCE_1, italian_ctx)
        assert v.verdict is Verdict.ODD
        assert v.mechanism is Mechanism.MISMATCHING_SI

    def test_only_some_is_direct_contradiction(self, italian_ctx):
        v = predict_magri_blind(SENTENCE_3, italian_ctx)
        assert v.verdict is Verdict.ODD
        assert v.mechanism is Mechanism.DIRECT_CONTEXTUAL_CONTRADICTION

    def test_conjoined_scope_is_silent(self, italian_ctx):
        # the negated conjoined alternative is consistent with the context
        for lf in (SOME_CONJ, SENTENCE_4):
            v = predict_magri_blind(lf, italian_ctx)
            assert v.verdict is Verdict.FELICITOUS

    def test_preceding_utterance_keeps_it_silent(self, repaired_ctx):
        v = predict_magri_blind(SOME_CONJ, repaired_ctx)
        assert v.verdict is Verdict.FELICITOUS

    def test_distributive_conjunct_fires(self, italian_ctx):
        v = predict_magri_blind(SENTENCE_14, italian_ctx)
        assert v.verdict is Verdict.ODD
        assert v.mechanism is Mechanism.MISMATCHING_SI

    def test_pruned_alternative_disarms_the_clash(self, short_registry):
        # the settled universal is no longer an alternative, so its negation
        # never enters the strengthened meaning
        ctx = ContextState(
            common_knowledge=(ALL_WARM, EXIST),
            discourse=(ALL_WARM,),
            preds=ITALIAN_PREDS,
            scales=short_registry,
        )
        v = predict_magri_blind(SOME_WARM, ctx)
        assert v.verdict is Verdict.FELICITOUS


class TestPresupposedIgnorance:
    def test_bare_some_fires(self, italian_ctx):
        v = predict_presupposed_ignorance(SENTENCE_1, italian_ctx)
        assert v.verdict is Verdict.ODD
        assert v.mechanism is Mechanism.PRESUPPOSED_IGNORANCE

    def test_conjoined_scope_silent_under_stated_condition(self, italian_ctx):
        # the stronger presupposition (all warm-and-blond) is not contextually
        # established by warmth-only knowledge; the trace shows the failed step
        v = predict_presupposed_ignorance(SENTENCE_4, italian_ctx)
        assert v.verdict is Verdict.FELICITOUS
        failed = [
            s
            for s in v.trace
            if s.rule == "contextual-entailment" and s.output == "not-entailed"
        ]
        assert failed

    def test_empty_context_silent(self, short_registry):
        ctx = ContextState(preds=ITALIAN_PREDS, scales=short_registry)
        v = predict_presupposed_ignorance(SENTENCE_1, ctx)
        assert v.verdict is Verdict.FELICITOUS


class TestLogicalIntegrity:
    def test_bare_some_fires(self, italian_ctx):
        v = predict_logical_integrity(SENTENCE_1, italian_ctx)
        assert v.verdict is Verdict.ODD
        assert v.mechanism is Mechanism.LOGICAL_INTEGRITY

    def test_conjoined_scope_silent(self, italian_ctx):
        v = predict_logical_integrity(SENTENCE_4, italian_ctx)
        assert v.verdict is Verdict.FELICITOUS

    def test_universal_silent_despite_entailed_weaker_mates(self, full_registry):
        # all(A)(B) logically entails its weaker mates once the restrictor is
        # granted import, so contextual entailment of them cannot fire
        ctx = ContextState(
            common_knowledge=(ALL_WARM, EXIST),
            preds=ITALIAN_PREDS,
            scales=full_registry,
        )
        v = predict_logical_integrity(ALL_WARM, ctx)
        assert v.verdict is Verdict.FELICITOUS


class TestDelPinal:
    def test_conjoined_scope_silent(self, italian_ctx):
        v = predict_del_pinal(SENTENCE_4, italian_ctx)
        assert v.verdict is Verdict.FELICITOUS

    def test_bare_some_fires_via_degenerate_update(self, italian_ctx):
        # the exhaustified presupposition embeds the assertion, so the joint
        # update collapses to presupposition-versus-common-ground
        v = predict_del_pinal(SENTENCE_1, italian_ctx)
        assert v.verdict is Verdict.ODD
        assert v.mechanism is Mechanism.PRESUPPOSITION_UPDATE_CLASH

    def test_empty_context_silent(self, short_registry):
        ctx = ContextState(preds=ITALIAN_PREDS, scales=short_registry)
        for lf in (SENTENCE_1, SOME_CONJ, ALL_WARM):
            assert predict_del_pinal(lf, ctx).verdict is Verdict.FELICITOUS


class TestIndirectContradiction:
    def test_conjoined_scope_fires_on_settled_branch(self, italian_ctx):
        v = predict_indirect_contradiction(SENTENCE_4, italian_ctx)
        assert v.verdict is Verdict.ODD
        assert v.mechanism is Mechanism.INDIRECT_CONTEXTUAL_CONTRADICTION
        # the chain is visible: expansion, license, ignorance, clash
        rules = [s.rule for s in v.trace]
        for rule in ("qi-expansion", "expansion-licensed", "ignorance", "clash-check"):
            assert rule in rules
        clash = [s for s in v.trace if s.rule == "clash-check" and "contradiction" in s.output]
        assert clash and clash[0].inputs == ("(all italian warm)",)

    def test_preceding_utterance_repairs(self, repaired_ctx):
        for lf in (SOME_CONJ, SENTENCE_4):
            v = predict_indirect_contradiction(lf, repaired_ctx)
            assert v.verdict is Verdict.FELICITOUS

    def test_sequencing_gate_blocks(self, portugal_ctx):
        v = predict_indirect_contradiction(SENTENCE_17, portugal_ctx)
        assert v.verdict is Verdict.FELICITOUS
        gate = [s for s in v.trace if s.rule == "reading-gate"]
        assert gate and gate[0].output == "sequenced-split: predictor skipped"

    def test_concurrent_portugal_fires(self, portugal_ctx):
        v = predict_indirect_contradiction(SENTENCE_16, portugal_ctx)
        assert v.verdict is Verdict.ODD

    def test_simple_some_never_fires(self, italian_ctx):
        v = predict_indirect_contradiction(SENTENCE_1, italian_ctx)
        assert v.verdict is Verdict.FELICITOUS

    def test_gate_blocks_regardless_of_context_fuzz(self, short_registry):
        # any sequenced scope is immune, whatever the context says
        rng = random.Random(3)
        preds = (PORTUGAL, WON, TALL, LEFT)
        pool = [
            all_(PORTUGAL, Atom(WON)),
            some(PORTUGAL, TRUE),
            some(PORTUGAL, Atom(LEFT)),
            all_(PORTUGAL, Atom(TALL)),
            NotLF(all_(PORTUGAL, Atom(LEFT))),
        ]
        for _ in range(30):
            ck = tuple(rng.sample(pool, rng.randint(0, len(pool))))
            if not consistent(ck, preds):
                continue
            ctx = ContextState(common_knowledge=ck, preds=preds, scales=short_registry)
            v = predict_indirect_contradiction(SENTENCE_17, ctx)
            assert v.verdict is Verdict.FELICITOUS

    def test_repair_is_monotone_in_settling_discourse(self, short_registry):
        # additions that settle disjuncts never flip a repaired verdict back
        base = ContextState(
            common_knowledge=(ALL_WARM, EXIST),
            discourse=(ALL_WARM,),
            preds=ITALIAN_PREDS,
            scales=short_registry,
        )
        assert predict_indirect_contradiction(SENTENCE_4, base).verdict is Verdict.FELICITOUS
        more = (
            all_(ITALIAN, CONJ),
            some(ITALIAN, Atom(BLOND)),
            NotLF(all_(ITALIAN, Atom(BLOND))),
        )
        discourse = list(base.discourse)
        for fact in more:
            discourse.append(fact)
            if not consistent(base.common_knowledge + tuple(discourse), ITALIAN_PREDS):
                discourse.pop()
                continue
            ctx = ContextState(
                common_knowledge=base.common_knowledge,
                discourse=tuple(discourse),
                preds=ITALIAN_PREDS,
                scales=short_registry,
            )
            assert (
                predict_indirect_contradiction(SENTENCE_4, ctx).verdict
                is Verdict.FELICITOUS
            )

    def test_distributive_input_routes_per_conjunct(self, italian_ctx):
        v = predict_indirect_contradiction(SENTENCE_14, italian_ctx)
        assert v.verdict is Verdict.FELICITOUS
        gates = [s for s in v.trace if s.rule == "reading-gate"]
        assert len(gates) == 2


class TestJudge:
    def _scenario(self, name, target, preds, ck, registry, **kwargs):
        return Scenario(
            name=name,
            preds=preds,
            target=target,
            scales=registry,
            common_knowledge=ck,
            **kwargs,
        )

    def test_core_contrast(self, short_registry):
        # the bare sentence trips the blind theory; the conjoined one is odd
        # only through the indirect route
        ck = (ALL_WARM, EXIST)
        j1 = judge(self._scenario("bare", SENTENCE_1, ITALIAN_PREDS, ck, short_registry))
        j4 = judge(self._scenario("conj", SENTENCE_4, ITALIAN_PREDS, ck, short_registry))
        by_name_1 = {v.theory: v for v in j1.theories}
        by_name_4 = {v.theory: v for v in j4.theories}
        assert by_name_1["magri-blind"].fired
        assert not by_name_1["indirect-contradiction"].fired
        assert not by_name_4["magri-blind"].fired
        assert by_name_4["indirect-contradiction"].fired
        assert j1.aggregate is Verdict.ODD and j4.aggregate is Verdict.ODD

    def test_enabled_subset_controls_aggregate(self, short_registry):
        ck = (ALL_WARM, EXIST)
        s = self._scenario(
            "conj-blind-only",
            SENTENCE_4,
            ITALIAN_PREDS,
            ck,
            short_registry,
            enabled_theories=("magri-blind",),
        )
        j = judge(s)
        assert [v.theory for v in j.theories] == ["magri-blind"]
        assert j.aggregate is Verdict.FELICITOUS

    def test_continuations_judged_after_target(self, short_registry):
        s = self._scenario(
            "conj-continued",
            SENTENCE_4,
            ITALIAN_PREDS,
            (ALL_WARM, EXIST),
            short_registry,
            continuations=(ALL_WARM, NotLF(ALL_WARM)),
        )
        j = judge(s)
        assert [v.value for _, v in j.continuations] == ["felicitous", "odd"]

    def test_inconsistent_scenario_rejected_before_predictors(self, short_registry):
        from felicity import InconsistentContextError

        s = self._scenario(
            "broken",
            SOME_WARM,
            ITALIAN_PREDS,
            (ALL_WARM, EXIST, Quant(NO, ITALIAN, Atom(WARM))),
            short_registry,
        )
        with pytest.raises(InconsistentContextError):
            judge(s)

    def test_blindness_split_under_ck_mutation(self, short_registry):
        # mutating common knowledge may flip verdicts but never the computed
        # strengthened forms or alternative sets inside the traces
        rng = random.Random(5)
        pool = [
            ALL_WARM,
            EXIST,
            some(ITALIAN, Atom(BLOND)),
            NotLF(all_(ITALIAN, Atom(BLOND))),
        ]
        baseline = None
        for _ in range(40):
            ck = tuple(rng.sample(pool, rng.randint(0, len(pool))))
            if not consistent(ck, ITALIAN_PREDS):
                continue
            j = judge(self._scenario("mut", SENTENCE_4, ITALIAN_PREDS, ck, short_registry))
            blind = next(v for v in j.theories if v.theory == "magri-blind")
            shape = tuple(
                (s.rule, s.inputs, s.output)
                for s in blind.trace
                if s.rule in ("alternatives", "prune-settled", "exh")
            )
            if baseline is None:
                baseline = shape
            assert shape == baseline


class TestScaleInsensitivity:
    def test_fixture_verdicts_survive_a_richer_scale(self, full_registry):
        # the shipped fixtures pin the two-member scale for exact
        # strengthened forms; the verdicts themselves must not depend on it
        from pathlib import Path

        from felicity import parse_scenario

        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        for path in sorted(fixtures.glob("*.sexp")):
            scenario = parse_scenario(path.read_text(), source=str(path))
            baseline = judge(scenario)
            richer = judge(scenario._replace(scales=full_registry))
            assert richer.aggregate == baseline.aggregate, path.name
            assert [
                (v.theory, v.verdict, v.mechanism) for v in richer.theories
            ] == [(v.theory, v.verdict, v.mechanism) for v in baseline.theories], path.name


class TestTraceIntegrity:
    def test_every_recorded_step_replays(self, short_registry, full_registry):
        cases = [
            (SENTENCE_1, ITALIAN_PREDS, (ALL_WARM, EXIST), short_registry),
            (SENTENCE_3, ITALIAN_PREDS, (ALL_WARM, EXIST), short_registry),
            (SENTENCE_4, ITALIAN_PREDS, (ALL_WARM, EXIST), short_registry),
            (SENTENCE_4, ITALIAN_PREDS, (ALL_WARM, EXIST), full_registry),
            (SENTENCE_14, ITALIAN_PREDS, (ALL_WARM, EXIST), short_registry),
            (SENTENCE_15, ITALIAN_PREDS, (ALL_WARM, EXIST), short_registry),
            (
                SENTENCE_17,
                (PORTUGAL, WON, TALL, LEFT),
                (all_(PORTUGAL, Atom(WON)), some(PORTUGAL, TRUE)),
                short_registry,
            ),
        ]
        for target, preds, ck, registry in cases:
            ctx = ContextState(common_knowledge=ck, preds=preds, scales=registry)
            scenario = Scenario(
                name="replay", preds=preds, target=target, scales=registry,
                common_knowledge=ck,
            )
            j = judge(scenario)
            for verdict in j.theories:
                for step in verdict.trace:
                    assert replay_step(step, ctx) == step.output, (
                        verdict.theory,
                        step,
                    )

    @pytest.mark.parametrize(
        "step, message",
        [
            (TraceStep("ck-consistency", ("(some italian warm)", "junk"), "consistent"),
             "takes 1 inputs, got 2"),
            (TraceStep("logical-entailment", ("(some italian warm)",), "entailed"),
             "takes 2 inputs, got 1"),
            (TraceStep("guess", ("(some italian warm)",), "odd"), "unknown trace rule"),
        ],
        ids=["extra input", "missing input", "unknown rule"],
    )
    def test_a_malformed_step_is_rejected(self, italian_ctx, step, message):
        with pytest.raises(ValueError, match=message):
            replay_step(step, italian_ctx)

    def test_an_undeclared_restrictor_raises_the_parsers_error(self, italian_ctx):
        step = TraceStep("qi-expansion", ("german", "(and-conc warm blond)"), "(none)")
        with pytest.raises(ParseError) as replayed:
            replay_step(step, italian_ctx)
        with pytest.raises(ParseError) as parsed:
            parse_pexpr("german", ITALIAN_PREDS)
        assert str(replayed.value) == str(parsed.value)
        assert "undeclared predicate 'german'" in str(replayed.value)
