"""Two-tier context: construction, certainty/possibility, updates, settledness."""

from __future__ import annotations

import random

import pytest

from felicity import (
    ALL,
    AndConc,
    Atom,
    ContextState,
    InconsistentContextError,
    NO,
    NotLF,
    OrLF,
    Quant,
    ResourceBudgetError,
    SOME,
    TRUE,
    UpdateContradictionError,
    Verdict,
    consistent,
    contextually_entails,
    continuation_felicity,
    k_holds,
    p_holds,
    render_lf,
    settled_by_discourse,
    update_discourse,
)
from felicity import context
from conftest import BLOND, ITALIAN, ITALIAN_PREDS, WARM


def some(r, s):
    return Quant(SOME, r, s)


def all_(r, s):
    return Quant(ALL, r, s)


ALL_WARM = all_(ITALIAN, Atom(WARM))
EXIST = some(ITALIAN, TRUE)
SOME_WARM = some(ITALIAN, Atom(WARM))
POOL = [ALL_WARM, SOME_WARM, EXIST, NotLF(ALL_WARM)]


def ctx_with(ck=(), discourse=(), preds=(ITALIAN, WARM), bound=4):
    return ContextState(
        common_knowledge=tuple(ck), discourse=tuple(discourse), preds=preds, bound=bound
    )


def _knows_less(updated, ctx):
    """Over the pool, updated is certain of all that ctx is certain of, and
    finds possible only what ctx finds possible."""
    for lf in POOL:
        assert not k_holds(ctx, lf) or k_holds(updated, lf), lf
        assert not p_holds(updated, lf) or p_holds(ctx, lf), lf


class TestConstruction:
    def test_unconstrained_single_pred_bound_one(self):
        ctx = ctx_with(preds=(ITALIAN,), bound=1)
        for lf in (EXIST, NotLF(EXIST)):
            assert p_holds(ctx, lf) and not k_holds(ctx, lf)

    def test_constrained_worlds_satisfy_facts(self):
        ctx = ctx_with(ck=(ALL_WARM, EXIST))
        assert k_holds(ctx, ALL_WARM) and k_holds(ctx, EXIST)
        assert k_holds(ctx, SOME_WARM) and not p_holds(ctx, NotLF(ALL_WARM))

    def test_inconsistent_construction_rejected(self):
        with pytest.raises(InconsistentContextError):
            ctx_with(ck=(SOME_WARM,), discourse=(Quant(NO, ITALIAN, Atom(WARM)),))

    def test_bound_over_budget_rejected_without_predicates(self):
        with pytest.raises(ResourceBudgetError):
            ContextState(bound=25)


class TestCertaintyAndPossibility:
    def test_ck_makes_universal_certain(self):
        ctx = ctx_with(ck=(ALL_WARM, EXIST))
        assert k_holds(ctx, ALL_WARM) is True

    def test_empty_context_leaves_existential_open(self):
        ctx = ctx_with()
        assert k_holds(ctx, SOME_WARM) is False

    def test_certain_implies_possible(self):
        ctx = ctx_with(ck=(ALL_WARM, EXIST))
        for lf in (ALL_WARM, SOME_WARM, EXIST):
            if k_holds(ctx, lf):
                assert p_holds(ctx, lf)

    def test_some_leaves_all_possible(self):
        # witness world: one italian, warm
        ctx = ctx_with(ck=(SOME_WARM,))
        assert p_holds(ctx, ALL_WARM) is True

    def test_no_rules_out_all_on_nonempty(self):
        ctx = ctx_with(ck=(Quant(NO, ITALIAN, Atom(WARM)), EXIST))
        assert p_holds(ctx, ALL_WARM) is False

    def test_possibility_of_established_fact(self):
        ctx = ctx_with(ck=(EXIST,))
        assert p_holds(ctx, EXIST) is True

    def test_duality_exhaustive_small_bound(self):
        # not certain(x) <=> possibly not(x), over a formula pool at bound 3
        pool = [ALL_WARM, SOME_WARM, EXIST, Quant(NO, ITALIAN, Atom(WARM))]
        contexts = [
            ctx_with(bound=3),
            ctx_with(ck=(SOME_WARM,), bound=3),
            ctx_with(ck=(ALL_WARM, EXIST), bound=3),
            ctx_with(ck=(Quant(NO, ITALIAN, Atom(WARM)),), bound=3),
        ]
        for ctx in contexts:
            for lf in pool:
                assert (not k_holds(ctx, lf)) == p_holds(ctx, NotLF(lf))

    def test_modus_ponens_under_certainty(self):
        # material implication encoded as or(not x, y)
        ctx = ctx_with(ck=(ALL_WARM, EXIST))
        implication = OrLF((NotLF(ALL_WARM), SOME_WARM))
        assert k_holds(ctx, implication)
        assert k_holds(ctx, ALL_WARM)
        assert k_holds(ctx, SOME_WARM)


class TestQueriesTakeFormsOnly:
    """Context queries and updates hand their form to the logic's front
    door, which rejects anything that is not a logical form."""

    @pytest.mark.parametrize(
        "query", [k_holds, p_holds, settled_by_discourse, update_discourse],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize(
        "bad", [Atom(WARM), [SOME_WARM], WARM], ids=["atom", "list", "predicate"]
    )
    def test_a_non_form_is_rejected(self, query, bad):
        ctx = ctx_with(discourse=(SOME_WARM,))
        with pytest.raises(TypeError, match="^not a logical form: "):
            query(ctx, bad)
        assert ctx.discourse == (SOME_WARM,)


class TestContextualEntailment:
    def test_entails_own_common_knowledge(self):
        ctx = ctx_with(ck=(ALL_WARM,))
        assert contextually_entails(ctx, ALL_WARM) is True

    def test_some_plus_universal_ck_entails_universal(self):
        ctx = ctx_with(ck=(ALL_WARM,), discourse=(SOME_WARM,))
        assert contextually_entails(ctx, ALL_WARM) is True

    def test_conjoined_universal_not_entailed(self):
        # countermodel: a warm non-blond italian
        ctx = ContextState(common_knowledge=(ALL_WARM,), preds=ITALIAN_PREDS)
        target = all_(ITALIAN, AndConc(Atom(WARM), Atom(BLOND)))
        assert contextually_entails(ctx, target) is False


class TestSettledByDiscourse:
    def test_explicit_utterance_settles(self):
        ctx = ctx_with(discourse=(ALL_WARM,))
        assert settled_by_discourse(ctx, ALL_WARM) is True

    def test_common_knowledge_does_not_settle(self):
        ctx = ctx_with(ck=(ALL_WARM,))
        assert settled_by_discourse(ctx, ALL_WARM) is False

    def test_negative_settling(self):
        ctx = ctx_with(discourse=(Quant(NO, ITALIAN, Atom(WARM)),))
        assert settled_by_discourse(ctx, SOME_WARM) is True

    def test_blindness_under_ck_fuzzing(self):
        # adding any consistent background fact never changes settledness
        rng = random.Random(7)
        base_discourse = (SOME_WARM,)
        queries = [ALL_WARM, SOME_WARM, EXIST]
        fact_pool = [
            ALL_WARM,
            EXIST,
            some(ITALIAN, Atom(BLOND)),
            NotLF(all_(ITALIAN, Atom(BLOND))),
            all_(ITALIAN, AndConc(Atom(WARM), Atom(WARM))),
        ]
        baseline_ctx = ContextState(
            common_knowledge=(), discourse=base_discourse, preds=ITALIAN_PREDS
        )
        baseline = [settled_by_discourse(baseline_ctx, q) for q in queries]
        for _ in range(50):
            ck = tuple(rng.sample(fact_pool, rng.randint(0, len(fact_pool))))
            if not consistent(ck + base_discourse, ITALIAN_PREDS):
                continue
            ctx = ContextState(
                common_knowledge=ck, discourse=base_discourse, preds=ITALIAN_PREDS
            )
            assert [settled_by_discourse(ctx, q) for q in queries] == baseline


class TestUpdate:
    def test_update_shrinks_worlds(self):
        ctx = ctx_with()
        updated = update_discourse(ctx, ALL_WARM)
        assert ctx.discourse == ()  # original untouched
        _knows_less(updated, ctx)
        assert k_holds(updated, ALL_WARM) and not k_holds(ctx, ALL_WARM)

    def test_contradictory_update_raises(self):
        ctx = ctx_with(ck=(ALL_WARM, EXIST))
        with pytest.raises(UpdateContradictionError) as err:
            update_discourse(ctx, NotLF(ALL_WARM))
        # the form is named in the concrete syntax, not as a Python repr
        assert str(err.value).endswith(": (not (all italian warm))")

    @pytest.mark.parametrize("lf", POOL, ids=render_lf)
    def test_the_new_state_is_the_class_built_one(self, lf):
        # update_discourse builds the state without the class call; it must
        # equal what _replace, which runs ContextState's checks, builds
        ctx = ctx_with(ck=(EXIST,), discourse=(SOME_WARM,))
        updated = update_discourse(ctx, lf)
        assert updated == ctx._replace(discourse=ctx.discourse + (lf,))
        assert type(updated) is ContextState
        assert updated.scales is ctx.scales and updated.common_knowledge is ctx.common_knowledge

    def test_an_update_asks_the_oracle_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return consistent(*args)

        ctx = ctx_with(ck=(EXIST,))
        monkeypatch.setattr(context, "consistent", counted)
        update_discourse(ctx, SOME_WARM)
        assert calls == [((EXIST, SOME_WARM), ctx.preds, ctx.bound, ctx.scales)]

    def test_a_contradiction_is_an_update_error_before_any_state_is_built(self):
        ctx = ctx_with(ck=(ALL_WARM, EXIST), discourse=(SOME_WARM,))
        with pytest.raises(UpdateContradictionError) as err:
            update_discourse(ctx, NotLF(ALL_WARM))
        assert type(err.value) is UpdateContradictionError and err.value.lf == NotLF(ALL_WARM)
        assert ctx.discourse == (SOME_WARM,)

    def test_tautology_leaves_worlds_unchanged(self):
        ctx = ctx_with(ck=(SOME_WARM,))
        updated = update_discourse(ctx, OrLF((ALL_WARM, NotLF(ALL_WARM))))
        for lf in POOL:
            assert k_holds(updated, lf) == k_holds(ctx, lf), lf
            assert p_holds(updated, lf) == p_holds(ctx, lf), lf

    def test_update_is_monotone_over_pool(self):
        ctx = ctx_with()
        for lf in POOL:
            updated = update_discourse(ctx, lf)
            _knows_less(updated, ctx)
            assert k_holds(updated, lf)


class TestContinuationFelicity:
    def setup_method(self):
        self.ctx = ContextState(
            common_knowledge=(ALL_WARM, EXIST), preds=ITALIAN_PREDS
        )
        self.prior = some(ITALIAN, AndConc(Atom(WARM), Atom(BLOND)))

    def test_affirming_the_universal_is_fine(self):
        assert (
            continuation_felicity(self.ctx, self.prior, ALL_WARM) is Verdict.FELICITOUS
        )

    def test_denying_the_universal_is_odd(self):
        assert (
            continuation_felicity(self.ctx, self.prior, NotLF(ALL_WARM)) is Verdict.ODD
        )

    def test_repetition_is_felicitous(self):
        assert (
            continuation_felicity(self.ctx, self.prior, self.prior)
            is Verdict.FELICITOUS
        )

    def test_exhaustive_marking_flips_the_continuation_pattern(self):
        # in a neutral context, "only some are warm" excludes the universal,
        # so following up with "all are warm" contradicts what was said;
        # "only some are warm-and-blond" excludes only the conjoined
        # universal, leaving the warm-only follow-up open
        from felicity import Only

        neutral = ContextState(preds=ITALIAN_PREDS)
        plain_only = Only(SOME_WARM)
        conjoined_only = Only(some(ITALIAN, AndConc(Atom(WARM), Atom(BLOND))))
        assert continuation_felicity(neutral, plain_only, ALL_WARM) is Verdict.ODD
        assert (
            continuation_felicity(neutral, plain_only, NotLF(ALL_WARM))
            is Verdict.FELICITOUS
        )
        assert (
            continuation_felicity(neutral, conjoined_only, ALL_WARM)
            is Verdict.FELICITOUS
        )

    def test_discourse_order_is_preserved(self):
        first = update_discourse(ContextState(preds=ITALIAN_PREDS), SOME_WARM)
        second = update_discourse(first, ALL_WARM)
        assert second.discourse == (SOME_WARM, ALL_WARM)
