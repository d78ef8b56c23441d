"""Alternative generation, exhaustification, ignorance inferences, presuppositions."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from felicity import (
    ALL,
    AndConc,
    AndLF,
    Atom,
    ContextState,
    DeclarationError,
    MOST,
    NO,
    NotLF,
    Only,
    OrLF,
    PresupVariant,
    QI,
    Quant,
    SOME,
    Scale,
    ScaleError,
    ScaleRegistry,
    TRUE,
    Tag,
    consistent,
    disjunction_ignorance,
    entails,
    evaluate,
    enumerate_models,
    exh,
    expand_qi,
    presup_strictly_stronger,
    presupposition,
    prune_settled,
    render_lf,
    substitution_alternatives,
)
from felicity.alternatives import _presupposition
from felicity.syntax import _expand_qi, lf_predicates
from conftest import BLOND, ITALIAN, ITALIAN_PREDS, WARM


def some(r, s):
    return Quant(SOME, r, s)


def all_(r, s):
    return Quant(ALL, r, s)


SOME_WARM = some(ITALIAN, Atom(WARM))
ALL_WARM = all_(ITALIAN, Atom(WARM))
MOST_WARM = Quant(MOST, ITALIAN, Atom(WARM))
CONJ = AndConc(Atom(WARM), Atom(BLOND))
SOME_CONJ = some(ITALIAN, CONJ)
ALL_CONJ = all_(ITALIAN, CONJ)


def ctx_with(ck=(), discourse=(), preds=ITALIAN_PREDS, scales=None):
    kwargs = {} if scales is None else {"scales": scales}
    return ContextState(
        common_knowledge=tuple(ck), discourse=tuple(discourse), preds=preds, **kwargs
    )


class TestSubstitutionAlternatives:
    def test_some_warm_full_scale(self, full_registry):
        alts = substitution_alternatives(SOME_WARM, full_registry)
        forms = dict((a.form, a.tag) for a in alts.members)
        assert set(forms) == {MOST_WARM, ALL_WARM}
        assert forms[ALL_WARM] is Tag.STRONGER
        assert forms[MOST_WARM] is Tag.STRONGER

    def test_conjoined_scope_keeps_conjunction(self, full_registry):
        # the bare-first-conjunct sentence is never generated: substitution
        # swaps quantifiers, it does not delete material
        alts = substitution_alternatives(SOME_CONJ, full_registry)
        forms = set(alts.forms())
        assert forms == {Quant(MOST, ITALIAN, CONJ), ALL_CONJ}
        assert ALL_WARM not in forms

    def test_universal_gets_weaker_mates(self, full_registry):
        alts = substitution_alternatives(ALL_WARM, full_registry)
        tags = {a.form: a.tag for a in alts.members}
        assert tags == {MOST_WARM: Tag.WEAKER, SOME_WARM: Tag.WEAKER}

    def test_no_scalar_item_yields_empty_set(self, full_registry):
        lf = Quant(NO, ITALIAN, Atom(WARM))
        alts = substitution_alternatives(lf, full_registry)
        assert alts.members == ()

    def test_conjoined_clauses_vary_each_conjunct(self, short_registry):
        lf = AndLF(SOME_WARM, some(ITALIAN, Atom(BLOND)))
        alts = substitution_alternatives(lf, short_registry)
        assert AndLF(ALL_WARM, some(ITALIAN, Atom(BLOND))) in alts.forms()
        assert AndLF(SOME_WARM, all_(ITALIAN, Atom(BLOND))) in alts.forms()
        assert AndLF(ALL_WARM, all_(ITALIAN, Atom(BLOND))) in alts.forms()

    def test_substitutes_every_scale_mate_and_nothing_else(self, full_registry):
        # every quantifier is one lexical item, so no mate is too complex
        for origin in (SOME_WARM, SOME_CONJ, ALL_WARM, Only(SOME_WARM)):
            alts = substitution_alternatives(origin, full_registry)
            for alt in alts.members:
                for q_alt, q_orig in _paired_quantifiers(alt.form, origin):
                    assert q_alt in full_registry.scale_for(q_orig)
            assert len(alts.members) == 2  # the two other members of (some most all)


def _per_class_variants(lf, scales):
    """The variants as a recursion written out per node class computes
    them; the generic walk in ``alternatives`` must give them in this order."""
    if isinstance(lf, Quant):
        out = [lf]
        scale = scales.scale_for(lf.quantifier)
        if scale is not None:
            out += [
                Quant(q, lf.restrictor, lf.scope) for q in scale.members if q is not lf.quantifier
            ]
        return out
    if isinstance(lf, Only):
        return [Only(b) for b in _per_class_variants(lf.body, scales)]
    if isinstance(lf, NotLF):
        return [NotLF(b) for b in _per_class_variants(lf.body, scales)]
    if isinstance(lf, AndLF):
        return [
            AndLF(l, r)
            for l in _per_class_variants(lf.left, scales)
            for r in _per_class_variants(lf.right, scales)
        ]
    if isinstance(lf, OrLF):
        def expand(ds):
            if not ds:
                return [()]
            return [(head,) + rest for head in _per_class_variants(ds[0], scales)
                    for rest in expand(ds[1:])]

        return [OrLF(ds) for ds in expand(lf.disjuncts)]
    raise TypeError(f"cannot generate alternatives for {lf!r}")


# Registries whose scales all hold some and all, so that only over either
# is defined; the last puts qi on a second scale.
_REGISTRIES = [
    ScaleRegistry((Scale((SOME, MOST, ALL)),)),
    ScaleRegistry((Scale((SOME, ALL)),)),
    ScaleRegistry((Scale((SOME, ALL)), Scale((QI, MOST, ALL)))),
]
_SCOPES = st.sampled_from([Atom(WARM), Atom(BLOND), CONJ, TRUE])
_CLAUSES = st.builds(
    Quant, st.sampled_from([SOME, MOST, ALL, NO, QI]), st.just(ITALIAN), _SCOPES
)


def _nested_forms(depth):
    only = st.builds(Only, st.builds(Quant, st.sampled_from([SOME, ALL]), st.just(ITALIAN), _SCOPES))
    if depth == 0:
        return st.one_of(_CLAUSES, only)
    sub = _nested_forms(depth - 1)
    return st.one_of(
        _CLAUSES,
        only,
        st.builds(NotLF, sub),
        st.builds(AndLF, sub, sub),
        st.builds(OrLF, st.lists(sub, min_size=1, max_size=3).map(tuple)),
    )


@settings(max_examples=200, deadline=None)
@given(_nested_forms(2), st.sampled_from(_REGISTRIES))
def test_alternatives_of_nested_forms_come_in_per_class_order(lf, scales):
    expected = dict.fromkeys(v for v in _per_class_variants(lf, scales) if v is not lf)
    assert substitution_alternatives(lf, scales, 2).forms() == tuple(expected)


@settings(max_examples=200, deadline=None)
@given(_nested_forms(2), st.sampled_from(_REGISTRIES))
def test_every_alternative_names_its_origins_predicates_in_order(lf, scales):
    # exh declares the origin's predicates for each member's query
    def names(form):
        return list(dict.fromkeys(p.name for p in lf_predicates(form)))

    for alt in substitution_alternatives(lf, scales, 2).forms():
        assert names(alt) == names(lf)


def _paired_quantifiers(alt, orig):
    if isinstance(alt, Quant):
        yield alt.quantifier, orig.quantifier
    elif isinstance(alt, (Only, NotLF)):
        yield from _paired_quantifiers(alt.body, orig.body)
    elif isinstance(alt, AndLF):
        yield from _paired_quantifiers(alt.left, orig.left)
        yield from _paired_quantifiers(alt.right, orig.right)


class TestPruneSettled:
    def test_discourse_settles_warm_universal(self, short_registry):
        ctx = ctx_with(
            ck=(ALL_WARM, some(ITALIAN, TRUE)),
            discourse=(ALL_WARM,),
            scales=short_registry,
        )
        from felicity import Alternative, AlternativeSet

        alts = AlternativeSet(
            origin=SOME_CONJ,
            members=(
                Alternative(ALL_CONJ, Tag.STRONGER),
                Alternative(ALL_WARM, Tag.STRONGER),
            ),
        )
        pruned = prune_settled(alts, ctx)
        assert pruned.forms() == (ALL_CONJ,)

    def test_empty_discourse_is_identity(self, full_registry):
        ctx = ctx_with()
        alts = substitution_alternatives(SOME_WARM, full_registry)
        assert prune_settled(alts, ctx) == alts

    def test_negative_settling_prunes(self, full_registry):
        ctx = ctx_with(discourse=(Quant(NO, ITALIAN, Atom(BLOND)),))
        alts = substitution_alternatives(some(ITALIAN, Atom(BLOND)), full_registry)
        pruned = prune_settled(alts, ctx)
        assert all_(ITALIAN, Atom(BLOND)) not in pruned.forms()


class TestExh:
    def test_strengthens_some_to_some_but_not_all(self, short_registry):
        alts = substitution_alternatives(SOME_WARM, short_registry)
        out = exh(SOME_WARM, alts)
        assert out == AndLF(SOME_WARM, NotLF(ALL_WARM))

    def test_conjoined_some_strengthens_within_conjunction(self, short_registry):
        alts = substitution_alternatives(SOME_CONJ, short_registry)
        out = exh(SOME_CONJ, alts)
        assert out == AndLF(SOME_CONJ, NotLF(ALL_CONJ))
        # the strengthened meaning is still compatible with a warm-only universal
        assert consistent([out, ALL_WARM], ITALIAN_PREDS) is True

    def test_vacuous_without_stronger_alternatives(self, full_registry):
        alts = substitution_alternatives(ALL_WARM, full_registry)
        assert exh(ALL_WARM, alts) == ALL_WARM

    def test_always_entails_prejacent(self, full_registry, short_registry):
        for registry in (full_registry, short_registry):
            for lf in (SOME_WARM, SOME_CONJ, ALL_WARM, MOST_WARM):
                alts = substitution_alternatives(lf, registry)
                out = exh(lf, alts)
                assert entails([out], lf, ITALIAN_PREDS) is True

    def test_idempotent_up_to_equivalence(self, full_registry, short_registry):
        for registry in (full_registry, short_registry):
            for lf in (SOME_WARM, SOME_CONJ, MOST_WARM):
                once = exh(lf, substitution_alternatives(lf, registry))
                twice = exh(once, substitution_alternatives(once, registry))
                assert entails([once], twice, ITALIAN_PREDS)
                assert entails([twice], once, ITALIAN_PREDS)

    def test_blind_to_common_knowledge(self, short_registry):
        # exhaustification has no context parameter at all; pruning (the only
        # context-sensitive stage) ignores common knowledge by construction
        rng = random.Random(11)
        fact_pool = [
            ALL_WARM,
            some(ITALIAN, TRUE),
            some(ITALIAN, Atom(BLOND)),
            NotLF(all_(ITALIAN, Atom(BLOND))),
            Quant(NO, ITALIAN, Atom(BLOND)),
        ]
        alts = substitution_alternatives(SOME_CONJ, short_registry)
        baseline = render_lf(exh(SOME_CONJ, prune_settled(alts, ctx_with())))
        for _ in range(60):
            ck = tuple(rng.sample(fact_pool, rng.randint(0, 3)))
            if not consistent(ck, ITALIAN_PREDS):
                continue
            ctx = ctx_with(ck=ck, scales=short_registry)
            out = render_lf(exh(SOME_CONJ, prune_settled(alts, ctx)))
            assert out == baseline

    def test_only_matches_exh_on_every_model(self, full_registry):
        # the overt marker and covert strengthening agree model by model
        for q in (SOME, MOST, ALL):
            clause = Quant(q, ITALIAN, Atom(WARM))
            strengthened = exh(
                clause,
                substitution_alternatives(clause, full_registry),
                scales=full_registry,
            )
            for m in enumerate_models((ITALIAN, WARM), 4):
                assert evaluate(Only(clause), m, full_registry) == evaluate(
                    strengthened, m, full_registry
                ), (q, m)

    def test_wrong_origin_rejected(self, full_registry):
        alts = substitution_alternatives(SOME_WARM, full_registry)
        with pytest.raises(ValueError):
            exh(ALL_WARM, alts)

    def test_a_stronger_member_over_another_predicate_is_undeclared(self, short_registry):
        # exh declares its origin's predicates only: a member that
        # substitution could not have built names one the oracle lacks
        from felicity import Alternative, AlternativeSet

        alts = AlternativeSet(SOME_WARM, (Alternative(ALL_CONJ, Tag.STRONGER),))
        with pytest.raises(DeclarationError, match=r"undeclared predicates \['blond'\]"):
            exh(SOME_WARM, alts, 3, short_registry)


class TestDisjunctionIgnorance:
    def test_unsettled_universal_disjunct_yields_ignorance(self, short_registry):
        ctx = ctx_with(scales=short_registry)
        expansion = expand_qi(ITALIAN, Atom(WARM), short_registry.scales[0])
        out = disjunction_ignorance(expansion, ctx)
        assert ALL_WARM in out

    def test_discourse_prunes_settled_disjunct(self, short_registry):
        ctx = ctx_with(
            ck=(ALL_WARM, some(ITALIAN, TRUE)),
            discourse=(ALL_WARM,),
            scales=short_registry,
        )
        expansion = expand_qi(ITALIAN, Atom(WARM), short_registry.scales[0])
        assert disjunction_ignorance(expansion, ctx) == ()

    def test_disjunct_forced_by_whole_is_excluded(self, short_registry):
        # the weakest mate is what the disjunction amounts to; no ignorance
        ctx = ctx_with(scales=short_registry)
        expansion = expand_qi(ITALIAN, Atom(WARM), short_registry.scales[0])
        assert SOME_WARM not in disjunction_ignorance(expansion, ctx)

    def test_a_single_disjunct_has_no_ignorance_inference(self, short_registry):
        # a one-member scale expands to one disjunct, which the whole forces
        from felicity import OrLF, Scale

        ctx = ctx_with(scales=short_registry)
        assert disjunction_ignorance(OrLF((ALL_WARM,)), ctx) == ()
        expansion = expand_qi(ITALIAN, Atom(WARM), Scale((SOME,)))
        assert expansion == OrLF((SOME_WARM,))
        assert disjunction_ignorance(expansion, ctx) == ()


class TestPresuppositions:
    def test_universal_presupposes_existence_and_content(self):
        p = presupposition(ALL_CONJ, PresupVariant.WEAK)
        assert p == AndLF(some(ITALIAN, TRUE), ALL_CONJ)

    def test_exhaustified_some_adds_but_not_all(self):
        p = presupposition(SOME_CONJ, PresupVariant.EXHAUSTIFIED)
        assert p == AndLF(
            AndLF(some(ITALIAN, TRUE), SOME_CONJ), NotLF(ALL_CONJ)
        )

    def test_weak_existential_collapses_to_existence(self):
        exist = some(ITALIAN, TRUE)
        p = presupposition(exist, PresupVariant.WEAK)
        assert entails([p], exist, (ITALIAN,))
        assert entails([exist], p, (ITALIAN,))

    @pytest.mark.parametrize("variant", list(PresupVariant), ids=lambda v: v.value)
    @pytest.mark.parametrize("lf", [ALL_WARM, SOME_WARM], ids=["all", "some"])
    def test_presupposition_is_a_form_entailing_existence_and_the_clause(self, lf, variant):
        p = presupposition(lf, variant)
        assert entails([p], some(ITALIAN, TRUE), ITALIAN_PREDS)
        assert entails([p], lf, ITALIAN_PREDS)
        # only the exhaustified some also denies the universal
        denies_all = not consistent([p, ALL_WARM], ITALIAN_PREDS)
        assert denies_all is (lf is SOME_WARM and variant is PresupVariant.EXHAUSTIFIED)

    def test_only_strips_to_prejacent(self):
        assert presupposition(Only(SOME_WARM), PresupVariant.WEAK) == presupposition(
            SOME_WARM, PresupVariant.WEAK
        )

    def test_undefined_for_other_quantifiers(self):
        assert presupposition(MOST_WARM, PresupVariant.WEAK) is None
        assert presupposition(NotLF(SOME_WARM), PresupVariant.WEAK) is None

    def test_universal_presup_strictly_stronger_than_weak_some(self):
        p1 = presupposition(ALL_WARM, PresupVariant.WEAK)
        p2 = presupposition(SOME_WARM, PresupVariant.WEAK)
        assert presup_strictly_stronger(p1, p2, (ITALIAN, WARM)) is True

    def test_not_strictly_stronger_than_itself(self):
        p = presupposition(ALL_WARM, PresupVariant.WEAK)
        assert presup_strictly_stronger(p, p, (ITALIAN, WARM)) is False

    def test_exhaustified_variants_are_jointly_inconsistent(self):
        # the strength comparison degrades to incomparability against the
        # exhaustified variant: the two contents exclude each other
        p1 = presupposition(ALL_CONJ, PresupVariant.WEAK)
        p2 = presupposition(SOME_CONJ, PresupVariant.EXHAUSTIFIED)
        assert consistent([p1, p2], ITALIAN_PREDS) is False
        assert presup_strictly_stronger(p1, p2, ITALIAN_PREDS) is False


class TestSyntaxMemos:
    # presupposition and expand_qi look their answers up; a lookup must give
    # the very node a fresh build gives, and a call the memo cannot key must
    # be answered as before, without it.
    def test_a_memo_returns_the_node_a_fresh_build_returns(self, short_registry):
        scale = short_registry.scales[0]
        _presupposition.cache_clear()
        _expand_qi.cache_clear()
        for lf in (ALL_CONJ, SOME_CONJ, Only(SOME_WARM)):
            for variant in PresupVariant:
                built = _presupposition.__wrapped__(lf, variant)
                assert presupposition(lf, variant) is built
                assert presupposition(lf, variant) is built
        assert _presupposition.cache_info().hits > 0
        built = _expand_qi.__wrapped__(ITALIAN, CONJ, scale)
        assert expand_qi(ITALIAN, CONJ, scale) is built
        assert expand_qi(ITALIAN, CONJ, scale) is built
        assert _expand_qi.cache_info().hits == 1

    def test_an_unhashable_argument_is_answered_uncached(self, short_registry):
        scale = short_registry.scales[0]
        assert presupposition([SOME_WARM], PresupVariant.WEAK) is None
        assert presupposition(SOME_WARM, []) is presupposition(SOME_WARM, PresupVariant.WEAK)
        # A scale read by its members only, not hashable.
        scale_like = SimpleNamespace(members=[SOME, ALL])
        assert expand_qi(ITALIAN, Atom(WARM), scale_like) is expand_qi(ITALIAN, Atom(WARM), scale)
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            expand_qi(ITALIAN, [Atom(WARM)], scale)

    def test_a_refused_expansion_is_refused_every_time(self):
        for _ in range(2):
            with pytest.raises(ScaleError, match="must contain 'some'"):
                expand_qi(ITALIAN, Atom(WARM), Scale((MOST, ALL)))
