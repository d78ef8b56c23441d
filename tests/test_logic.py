"""Truth conditions, model enumeration, and the bounded entailment oracle.

Derived expectations are checked against independent set-theoretic
computations on explicit models before the engine's own answer is
asserted, so the two routes never collapse into one.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import os
import pickle
import subprocess
import sys
import threading
from functools import lru_cache

import pytest
from hypothesis import event, given, settings, strategies as st

from felicity import (
    ALL,
    AndConc,
    AndLF,
    AndSeq,
    Atom,
    DeclarationError,
    Model,
    MOST,
    NO,
    NotLF,
    NotP,
    Only,
    OrLF,
    PredicateSym,
    PresupVariant,
    QI,
    Quant,
    Quantifier,
    Reading,
    ResourceBudgetError,
    Scale,
    ScaleError,
    ScaleRegistry,
    SOME,
    TRUE,
    Tag,
    TruePred,
    WellFormednessError,
    analyze_reading,
    consistent,
    entails,
    enumerate_models,
    evaluate,
    expand_qi,
    parse_lf,
    render_lf,
    substitution_alternatives,
)
from felicity import logic, syntax
from conftest import BLOND, ITALIAN, ITALIAN_PREDS, LEFT, TALL, WARM, WON


def some(r, s):
    return Quant(SOME, r, s)


def all_(r, s):
    return Quant(ALL, r, s)


def most(r, s):
    return Quant(MOST, r, s)


def no(r, s):
    return Quant(NO, r, s)


# ---------------------------------------------------------------------------
# Predicate expressions
# ---------------------------------------------------------------------------


def holds_of_one(p, extensions):
    """Whether the only individual, a, satisfies p: ``(some italian p)`` in
    a model whose universe and whose italians are just a."""
    return evaluate(some(ITALIAN, p), Model(["a"], {"italian": ["a"], **extensions}))


class TestPredicateExpressions:
    def test_atom_membership(self):
        assert holds_of_one(Atom(WARM), {"warm": ["a"]}) is True

    def test_conc_empty_intersection_at_individual(self):
        conc = AndConc(Atom(WARM), Atom(BLOND))
        assert holds_of_one(conc, {"warm": ["a"], "blond": []}) is False

    def test_conc_intersection_member(self):
        # direct evaluation of the warm-and-blond intersection
        conc = AndConc(Atom(WARM), Atom(BLOND))
        assert holds_of_one(conc, {"warm": ["a"], "blond": ["a"]}) is True

    def test_negation_is_complement(self):
        assert holds_of_one(NotP(Atom(WARM)), {"warm": []}) is True
        assert holds_of_one(NotP(Atom(WARM)), {"warm": ["a"]}) is False

    def test_true_holds_everywhere(self):
        assert holds_of_one(TRUE, {"warm": []}) is True

    def test_undeclared_atom_raises(self):
        with pytest.raises(DeclarationError):
            holds_of_one(Atom(BLOND), {"warm": ["a"]})

    def test_andseq_truth_is_conjunction(self):
        seq = AndSeq(Atom(WON), Atom(LEFT))
        assert holds_of_one(seq, {"won": ["a"], "left": ["a"]}) is True

    def test_andseq_requires_eventive_conjuncts(self):
        with pytest.raises(WellFormednessError):
            AndSeq(Atom(WARM), Atom(BLOND))
        with pytest.raises(WellFormednessError):
            AndSeq(Atom(WON), Atom(TALL))


# ---------------------------------------------------------------------------
# Quantified forms
# ---------------------------------------------------------------------------


class TestEvaluate:
    def test_some_nonempty_intersection(self, full_registry):
        m = Model(["a", "b"], {"italian": ["a", "b"], "warm": ["b"]})
        assert evaluate(some(ITALIAN, Atom(WARM)), m, full_registry) is True

    def test_only_some_false_when_all_mate_true(self, full_registry):
        # hand check: every italian is warm, so the exhaustive reading fails
        m = Model(["a", "b"], {"italian": ["a", "b"], "warm": ["a", "b"]})
        assert evaluate(Only(some(ITALIAN, Atom(WARM))), m, full_registry) is False

    def test_only_some_true_on_proper_subset(self, full_registry):
        m = Model(["a", "b"], {"italian": ["a", "b"], "warm": ["a"]})
        assert evaluate(Only(some(ITALIAN, Atom(WARM))), m, full_registry) is True

    def test_all_with_conjunction_fails_on_nonblond(self, full_registry):
        m = Model(["a"], {"italian": ["a"], "warm": ["a"], "blond": []})
        lf = all_(ITALIAN, AndConc(Atom(WARM), Atom(BLOND)))
        assert evaluate(lf, m, full_registry) is False

    def test_most_is_strict_majority(self, full_registry):
        m = Model(["a", "b"], {"italian": ["a", "b"], "warm": ["a"]})
        assert evaluate(most(ITALIAN, Atom(WARM)), m, full_registry) is False
        m2 = Model(["a", "b", "c"], {"italian": ["a", "b", "c"], "warm": ["a", "b"]})
        assert evaluate(most(ITALIAN, Atom(WARM)), m2, full_registry) is True

    def test_no_means_empty_intersection(self, full_registry):
        m = Model(["a", "b"], {"italian": ["a"], "warm": ["b"]})
        assert evaluate(no(ITALIAN, Atom(WARM)), m, full_registry) is True

    def test_qi_is_existential(self, full_registry):
        m = Model(["a"], {"italian": ["a"], "warm": ["a"]})
        assert evaluate(Quant(QI, ITALIAN, Atom(WARM)), m, full_registry) is True

    def test_empty_restrictor_all_vacuously_true(self, full_registry):
        m = Model(["a"], {"italian": [], "warm": []})
        assert evaluate(all_(ITALIAN, Atom(WARM)), m, full_registry) is True

    def test_only_without_scale_rejected(self):
        m = Model(["a"], {"italian": ["a"], "warm": ["a"]})
        with pytest.raises(ScaleError):
            evaluate(Only(some(ITALIAN, Atom(WARM))), m, None)

    def test_classical_connectives(self, full_registry):
        m = Model(["a", "b"], {"italian": ["a", "b"], "warm": ["a"]})
        s, a = some(ITALIAN, Atom(WARM)), all_(ITALIAN, Atom(WARM))
        assert evaluate(NotLF(a), m, full_registry) is True
        assert evaluate(AndLF(s, NotLF(a)), m, full_registry) is True
        assert evaluate(OrLF((a, s)), m, full_registry) is True


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


class TestEnumerateModels:
    def test_count_two_preds_size_two(self):
        models = [m for m in enumerate_models((ITALIAN, WARM), 2) if len(m.universe) == 2]
        assert len(models) == 16  # 2^(2*2)

    def test_count_one_pred_sizes_zero_and_one(self):
        models = list(enumerate_models((ITALIAN,), 1))
        assert len(models) == 1 + 2

    def test_count_three_preds_size_four(self):
        models = [m for m in enumerate_models(ITALIAN_PREDS, 4) if len(m.universe) == 4]
        assert len(models) == 4096  # 2^(4*3)

    def test_budget_guard(self):
        preds = tuple(PredicateSym(f"p{i}") for i in range(5))
        with pytest.raises(ResourceBudgetError):
            list(enumerate_models(preds, 5))

    def test_deterministic_order(self):
        first = [m.extensions for m in enumerate_models((ITALIAN, WARM), 2)]
        second = [m.extensions for m in enumerate_models((ITALIAN, WARM), 2)]
        assert first == second

    def test_every_model_distinct(self):
        models = list(enumerate_models((ITALIAN, WARM), 2))
        assert len(set(models)) == len(models)

    def test_duplicate_predicate_names_rejected(self):
        with pytest.raises(WellFormednessError):
            list(enumerate_models((ITALIAN, PredicateSym("italian")), 2))


class TestModelConstruction:
    def test_extension_member_outside_universe(self):
        with pytest.raises(DeclarationError):
            Model(["a"], {"warm": ["z"]})

    def test_duplicate_universe_labels(self):
        with pytest.raises(WellFormednessError):
            Model(["a", "a"], {"warm": []})

    def test_extensions_materialize_as_frozensets(self):
        m = Model(["a", "b"], {"warm": ["b"], "blond": []})
        assert m.extensions == {"warm": frozenset({"b"}), "blond": frozenset()}
        assert m.predicates() == ("warm", "blond")


# ---------------------------------------------------------------------------
# Entailment and consistency
# ---------------------------------------------------------------------------


class TestEntails:
    def test_conjoined_scope_entails_single_conjunct(self):
        premise = some(ITALIAN, AndConc(Atom(WARM), Atom(BLOND)))
        conclusion = some(ITALIAN, Atom(WARM))
        assert entails([premise], conclusion, ITALIAN_PREDS, bound=4) is True

    def test_conjoined_scope_entails_indefinite(self):
        premise = some(ITALIAN, AndConc(Atom(WARM), Atom(BLOND)))
        conclusion = Quant(QI, ITALIAN, Atom(WARM))
        assert entails([premise], conclusion, ITALIAN_PREDS, bound=4) is True

    def test_some_does_not_entail_all(self):
        # countermodel first: the engine must agree with it
        counter = Model(["a", "b"], {"italian": ["a", "b"], "warm": ["a"]})
        assert evaluate(some(ITALIAN, Atom(WARM)), counter) is True
        assert evaluate(all_(ITALIAN, Atom(WARM)), counter) is False
        assert (
            entails([some(ITALIAN, Atom(WARM))], all_(ITALIAN, Atom(WARM)), (ITALIAN, WARM))
            is False
        )

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            entails([], some(ITALIAN, Atom(WARM)), (ITALIAN, WARM), bound=0)

    def test_budget_exceeded(self):
        preds = tuple(PredicateSym(f"p{i}") for i in range(7))
        with pytest.raises(ResourceBudgetError):
            entails([], some(preds[0], TRUE), preds, bound=4)

    def test_zero_predicates_count_as_one_against_the_budget(self):
        # The class table still grows with the bound when there are no
        # predicates, so 25 individuals are over the 24-bit budget.
        with pytest.raises(ResourceBudgetError):
            consistent([], (), 25)
        with pytest.raises(ResourceBudgetError):
            list(enumerate_models((), 25))
        assert consistent([], (), 24) is True

    def test_reflexive(self):
        forms = [
            some(ITALIAN, Atom(WARM)),
            all_(ITALIAN, AndConc(Atom(WARM), Atom(BLOND))),
            NotLF(most(ITALIAN, Atom(BLOND))),
        ]
        for lf in forms:
            assert entails([lf], lf, ITALIAN_PREDS) is True

    def test_transitive_on_pool(self):
        pool = [
            all_(ITALIAN, Atom(WARM)),
            most(ITALIAN, Atom(WARM)),
            some(ITALIAN, Atom(WARM)),
            no(ITALIAN, Atom(WARM)),
            NotLF(all_(ITALIAN, Atom(WARM))),
        ]
        preds = (ITALIAN, WARM)
        for x in pool:
            for y in pool:
                for z in pool:
                    if entails([x], y, preds) and entails([y], z, preds):
                        assert entails([x], z, preds)


class TestConsistent:
    def test_some_with_not_all(self):
        witness = Model(["a", "b"], {"italian": ["a", "b"], "warm": ["a"]})
        lfs = [some(ITALIAN, Atom(WARM)), NotLF(all_(ITALIAN, Atom(WARM)))]
        assert all(evaluate(lf, witness) for lf in lfs)
        assert consistent(lfs, (ITALIAN, WARM)) is True

    def test_all_nonempty_refutes_not_some(self):
        lfs = [
            all_(ITALIAN, Atom(WARM)),
            NotLF(some(ITALIAN, Atom(WARM))),
            some(ITALIAN, TRUE),
        ]
        assert consistent(lfs, (ITALIAN, WARM)) is False

    def test_not_all_conjoined_compatible_with_all_warm(self):
        # the negated conjoined universal lives happily with a warm-only universal
        lfs = [
            NotLF(all_(ITALIAN, AndConc(Atom(WARM), Atom(BLOND)))),
            all_(ITALIAN, Atom(WARM)),
        ]
        assert consistent(lfs, ITALIAN_PREDS) is True

    def test_cross_check_against_entails(self):
        # the set is unsatisfiable iff, for every choice of member, the rest
        # refute it; one refutation suffices and unsatisfiability forces all
        pool = [
            some(ITALIAN, Atom(WARM)),
            NotLF(all_(ITALIAN, Atom(WARM))),
            all_(ITALIAN, Atom(WARM)),
            no(ITALIAN, Atom(BLOND)),
            some(ITALIAN, AndConc(Atom(WARM), Atom(BLOND))),
        ]
        import itertools

        for lfs in itertools.combinations(pool, 3):
            sat = consistent(list(lfs), ITALIAN_PREDS)
            refutations = [
                entails(
                    [lf for j, lf in enumerate(lfs) if j != i],
                    NotLF(lfs[i]),
                    ITALIAN_PREDS,
                )
                for i in range(len(lfs))
            ]
            assert (not sat) == all(refutations)
            assert (not sat) == any(refutations)


# ---------------------------------------------------------------------------
# Quantifier properties
# ---------------------------------------------------------------------------


def _sets(m: Model) -> tuple[frozenset, frozenset]:
    return m.extension("italian"), m.extension("warm")


def _oracle(q, a: frozenset, b: frozenset) -> bool:
    if q is SOME or q is QI:
        return len(a & b) >= 1
    if q is ALL:
        return a <= b
    if q is MOST:
        return len(a & b) > len(a - b)
    if q is NO:
        return not (a & b)
    raise AssertionError(q)


class TestQuantifierProperties:
    def test_conservativity_exhaustive(self):
        # q(A)(B) <=> q(A)(A and B) on every model up to size 4, exactly
        preds = (ITALIAN, WARM)
        scope_b = Atom(WARM)
        scope_ab = AndConc(Atom(ITALIAN), Atom(WARM))
        for q in (SOME, ALL, MOST, NO):
            for m in enumerate_models(preds, 4):
                left = evaluate(Quant(q, ITALIAN, scope_b), m)
                right = evaluate(Quant(q, ITALIAN, scope_ab), m)
                assert left == right, (q, m)

    def test_quantifiers_match_set_oracle(self):
        for q in (SOME, ALL, MOST, NO, QI):
            for m in enumerate_models((ITALIAN, WARM), 3):
                a, b = _sets(m)
                assert evaluate(Quant(q, ITALIAN, Atom(WARM)), m) == _oracle(q, a, b)

    def test_some_conjunction_is_intersection(self):
        # some(A)(B' and B'') is the nonemptiness of the triple intersection
        lf = some(ITALIAN, AndConc(Atom(WARM), Atom(BLOND)))
        for m in enumerate_models(ITALIAN_PREDS, 4):
            expected = bool(
                m.extension("italian") & m.extension("warm") & m.extension("blond")
            )
            assert evaluate(lf, m) == expected

    def test_conc_commutes_everywhere(self):
        left = some(ITALIAN, AndConc(Atom(WARM), Atom(BLOND)))
        right = some(ITALIAN, AndConc(Atom(BLOND), Atom(WARM)))
        for m in enumerate_models(ITALIAN_PREDS, 3):
            assert evaluate(left, m) == evaluate(right, m)

    def test_seq_non_intersective_regardless_of_order(self):
        # the seq fact: an and-seq occurs, so the scope is no intersection
        assert syntax.node_facts(AndSeq(Atom(WON), Atom(LEFT))).seq is True
        assert syntax.node_facts(AndSeq(Atom(LEFT), Atom(WON))).seq is True
        assert syntax.node_facts(AndConc(Atom(WARM), Atom(BLOND))).seq is False
        assert syntax.node_facts(Atom(WARM)).seq is False
        assert syntax.node_facts(AndConc(Atom(WON), AndSeq(Atom(WON), Atom(LEFT)))).seq is True

    def test_scale_monotonicity_on_nonempty_restrictors(self):
        preds = (ITALIAN, WARM)
        exists = some(ITALIAN, TRUE)
        assert entails([all_(ITALIAN, Atom(WARM)), exists], most(ITALIAN, Atom(WARM)), preds)
        assert entails([most(ITALIAN, Atom(WARM))], some(ITALIAN, Atom(WARM)), preds)


# ---------------------------------------------------------------------------
# Indefinite-number expansion
# ---------------------------------------------------------------------------


class TestExpandQi:
    def test_three_member_scale(self, full_registry):
        expansion = expand_qi(ITALIAN, Atom(WARM), full_registry.scales[0])
        assert render_lf(expansion) == (
            "(or (all italian warm) (most italian warm) (some italian warm))"
        )

    def test_two_member_scale(self, short_registry):
        expansion = expand_qi(ITALIAN, Atom(WARM), short_registry.scales[0])
        assert render_lf(expansion) == "(or (all italian warm) (some italian warm))"

    def test_expansion_entailed_by_conjoined_some(self, full_registry):
        premise = some(ITALIAN, AndConc(Atom(WARM), Atom(BLOND)))
        expansion = expand_qi(ITALIAN, Atom(WARM), full_registry.scales[0])
        assert entails([premise], expansion, ITALIAN_PREDS, bound=4) is True

    def test_scale_without_some_rejected(self):
        from felicity import Scale

        scale = Scale((MOST, ALL))
        with pytest.raises(ScaleError):
            expand_qi(ITALIAN, Atom(WARM), scale)


class TestScales:
    def test_default_order_verified(self, full_registry):
        scale = full_registry.scales[0]
        assert scale.members == (SOME, MOST, ALL)
        assert scale.stronger_mates(SOME) == (MOST, ALL)
        assert scale.stronger_mates(ALL) == ()

    def test_unordered_scale_rejected(self):
        from felicity import Scale

        with pytest.raises(ScaleError):
            Scale((ALL, SOME))  # wrong direction
        with pytest.raises(ScaleError):
            Scale((SOME, QI))  # equivalent members, not strictly ordered
        with pytest.raises(ScaleError):
            Scale(())

    def test_duplicate_members_rejected(self):
        from felicity import Scale

        with pytest.raises(ScaleError):
            Scale((SOME, SOME, ALL))

    def test_only_on_quantifier_outside_every_scale(self, full_registry):
        m = Model(["a"], {"italian": ["a"], "warm": []})
        with pytest.raises(ScaleError):
            evaluate(Only(no(ITALIAN, Atom(WARM))), m, full_registry)


# ---------------------------------------------------------------------------
# The class-bitset oracle against the labeled models
# ---------------------------------------------------------------------------

# The first predicate is eventive, so and-seq is available at every k.
_POOL = (
    PredicateSym("e", "eventive"),
    PredicateSym("s"),
    PredicateSym("f", "eventive"),
)


def _scopes(preds, depth):
    leaf = st.sampled_from([Atom(p) for p in preds] + [TRUE])
    eventive = [Atom(p) for p in preds if p.temporal_class == "eventive"]
    if depth <= 0:
        return leaf
    sub = _scopes(preds, depth - 1)
    options = [leaf, st.builds(NotP, sub), st.builds(AndConc, sub, sub)]
    if eventive:  # and-seq only over eventive atoms
        ev = st.sampled_from(eventive)
        conjunct = st.one_of(ev, st.builds(NotP, ev), st.builds(AndConc, ev, sub))
        options.append(st.builds(AndSeq, conjunct, conjunct))
    return st.one_of(options)


def _forms(preds, depth):
    quants = st.builds(
        Quant, st.sampled_from([SOME, ALL, MOST, NO, QI]), st.sampled_from(preds),
        _scopes(preds, 2),
    )
    # only over a member of the (some most all) scale, where it is defined
    scalar = st.builds(
        Quant, st.sampled_from([SOME, MOST, ALL]), st.sampled_from(preds), _scopes(preds, 2)
    )
    if depth <= 0:
        return st.one_of(quants, st.builds(Only, scalar))
    sub = _forms(preds, depth - 1)
    return st.one_of(
        quants,
        st.builds(Only, scalar),
        st.builds(NotLF, sub),
        st.builds(AndLF, sub, sub),
        st.builds(OrLF, st.tuples(sub, sub)),
        st.builds(OrLF, st.tuples(sub, sub, sub)),
    )


_FORMS = {k: st.lists(_forms(_POOL[:k], 1), min_size=1, max_size=3) for k in (1, 2, 3)}


# Names a sequent draws its predicates from, any subset in any order.
_WIDE_POOL = _POOL + (PredicateSym("t"), PredicateSym("h", "eventive"))


@lru_cache(maxsize=None)
def _form_lists(preds):
    return st.lists(_forms(preds, 1), min_size=1, max_size=3)


@st.composite
def _sequents(draw):
    k = draw(st.integers(1, 4))
    preds = tuple(draw(st.permutations(_WIDE_POOL))[:k])
    # 4 predicates at bound 4 would scan 69,905 labeled models per example
    bound = draw(st.integers(1, min(4, 12 // k)))
    return preds, bound, draw(_form_lists(preds))


# Names that no form of _sequents mentions.
_UNMENTIONED = (PredicateSym("u"), PredicateSym("v", "eventive"))


@st.composite
def _padded_sequents(draw):
    """A sequent, and its predicates with some that none of its forms
    mentions mixed in, in any order."""
    preds, bound, forms = draw(_sequents())
    extra = draw(st.lists(st.sampled_from(_UNMENTIONED), min_size=1, unique=True))
    return preds, tuple(draw(st.permutations(preds + tuple(extra)))), bound, forms


# Eight predicates at bound 3: inside the budget, but past MAX_TABLE_BITS.
_EIGHT = ITALIAN_PREDS + tuple(PredicateSym(n) for n in ("tall", "rich", "quiet", "young", "kind"))


@contextlib.contextmanager
def _counting_walks():
    """List every walk over the classes, which only a space without a
    table makes: each call of ``_count_vectors`` adds its arguments."""
    walks = []
    count_vectors = logic._count_vectors
    logic._count_vectors = lambda *args: walks.append(args) or count_vectors(*args)
    try:
        yield walks
    finally:
        logic._count_vectors = count_vectors


class TestClassOracle:
    @settings(max_examples=150, deadline=None)
    @given(_sequents())
    def test_matches_brute_force_over_labeled_models(self, full_registry, sequent):
        # No cache is cleared between examples: forms over other names, in
        # another order, share the quantifier bitsets of earlier examples,
        # so a bitset shared under the wrong key gives a wrong answer here.
        preds, bound, forms = sequent
        models = list(enumerate_models(preds, bound))
        rows = [[evaluate(lf, m, full_registry) for lf in forms] for m in models]
        *premises, conclusion = forms
        assert entails(premises, conclusion, preds, bound, full_registry) == all(
            row[-1] for row in rows if all(row[:-1])
        )
        assert consistent(forms, preds, bound, full_registry) == any(all(row) for row in rows)

    @pytest.mark.parametrize("table", [True, False], ids=["table", "no-table"])
    @settings(max_examples=100, deadline=None)
    @given(_padded_sequents())
    def test_unmentioned_predicates_change_no_answer(self, full_registry, table, sequent):
        # The fragment is monadic: declaring predicates that no form
        # mentions changes no answer. Without a table (forced here at small
        # sizes) the oracle decides the query over the mentioned ones only.
        preds, padded, bound, forms = sequent
        *premises, conclusion = forms

        def answers(declared):
            return (
                entails(premises, conclusion, declared, bound, full_registry),
                consistent(forms, declared, bound, full_registry),
            )

        expected = answers(preds)
        with pytest.MonkeyPatch.context() as mp, _counting_walks() as walks:
            if not table:
                mp.setattr(logic, "MAX_TABLE_BITS", 0)
                logic._classes.cache_clear()
                logic._satisfiable.cache_clear()
            try:
                assert answers(padded) == expected
            finally:
                logic._classes.cache_clear()
        assert all(cells <= 1 << len(preds) for cells, _ in walks)
        assert not walks or not table

    def test_a_space_without_a_table_is_decided_over_the_mentioned_predicates(
        self, short_registry
    ):
        assert logic._classes(len(_EIGHT), 3)[1] is None
        target = Only(some(ITALIAN, AndConc(Atom(WARM), Atom(BLOND))))
        known = [all_(ITALIAN, Atom(WARM)), some(ITALIAN, TRUE)]
        with _counting_walks() as walks:
            for forms in (
                [*known, target], [*known, NotLF(target)], [target, all_(ITALIAN, Atom(BLOND))]
            ):
                assert consistent(forms, _EIGHT, 3, short_registry) == consistent(
                    forms, ITALIAN_PREDS, 3, short_registry
                )
            assert entails(known, some(ITALIAN, Atom(WARM)), _EIGHT, 3, short_registry)
        assert all(cells <= 1 << 3 for cells, _ in walks)

    def test_only_without_scale_rejected(self):
        with pytest.raises(ScaleError):
            consistent([Only(some(ITALIAN, Atom(WARM)))], (ITALIAN, WARM))

    def test_duplicate_predicate_names_rejected(self):
        with pytest.raises(WellFormednessError):
            consistent([some(ITALIAN, Atom(WARM))], (ITALIAN, WARM, PredicateSym("warm")))

    @pytest.mark.parametrize("preds, bound, error", [
        (ITALIAN_PREDS, 9, ResourceBudgetError),
        ((ITALIAN, WARM, PredicateSym("warm")), 3, WellFormednessError),
    ])
    def test_an_invalid_space_raises_every_time_and_is_not_cached(self, preds, bound, error):
        before = logic._space.cache_info()
        errors = []
        for _ in range(2):
            with pytest.raises(error) as info:
                consistent([some(ITALIAN, Atom(WARM))], preds, bound)
            errors.append(str(info.value))
        after = logic._space.cache_info()
        assert errors[0] == errors[1]
        # the second call was not answered from the cache, nor did it grow
        assert (after.hits, after.currsize) == (before.hits, before.currsize)

    def test_walk_without_table_matches_table(self, full_registry, monkeypatch):
        # past MAX_TABLE_BITS there is no per-cell table and every quantifier
        # walks the classes; both routes must give the same bitsets. most
        # over warm or (not blond) has individuals on both sides of its
        # comparison, so the margin count meets negative margins too.
        scopes = (
            Atom(WARM), NotP(Atom(ITALIAN)), NotP(Atom(BLOND)),
            AndConc(Atom(WARM), Atom(BLOND)), AndConc(Atom(WARM), NotP(Atom(BLOND))),
        )

        def truths():
            for cache in (logic._classes, logic._truth, logic._quant):
                cache.cache_clear()
            with _counting_walks() as walks:
                bitsets = [
                    logic._truth(Quant(q, ITALIAN, scope), preds, bound, full_registry)
                    for preds in (ITALIAN_PREDS, ITALIAN_PREDS + (TALL,))
                    for q in (SOME, ALL, MOST, NO)
                    for scope in scopes
                    for bound in (1, 2, 3)
                ]
            return bitsets, logic._quant.cache_info().misses, len(walks)

        with_table, computed, walked = truths()
        assert computed > 0 and walked == 0
        monkeypatch.setattr(logic, "MAX_TABLE_BITS", 0)
        # every bitset computed afresh, each by a walk over the classes
        assert truths() == (with_table, computed, computed)
        monkeypatch.undo()
        for cache in (logic._classes, logic._truth, logic._quant):
            cache.cache_clear()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_margin_count_matches_walk(self, data):
        # _more compares the cells of yes against the cells of no; the table
        # route counts margins over exact-count rows, the walk visits vectors
        k = data.draw(st.integers(1, 4))
        bound = data.draw(st.integers(1, 5))
        sides = data.draw(st.lists(st.sampled_from("yn-"), min_size=1 << k, max_size=1 << k))
        yes = sum(1 << c for c, side in enumerate(sides) if side == "y")
        no = sum(1 << c for c, side in enumerate(sides) if side == "n")
        saved = logic.MAX_TABLE_BITS
        try:
            with _counting_walks() as walks:
                with_table = logic._more(yes, no, k, bound)
                assert not walks
                logic.MAX_TABLE_BITS = 0
                logic._classes.cache_clear()
                walked = logic._more(yes, no, k, bound)
                assert walks == [(1 << k, bound)]  # the walk route did walk
        finally:
            logic.MAX_TABLE_BITS = saved
            logic._classes.cache_clear()
        assert with_table == walked

    def test_table_rows_count_each_cell(self):
        # rows[c][m] holds class i iff vector i puts exactly m individuals in c
        for k, bound in ((1, 4), (2, 3), (3, 2)):
            full, rows = logic._classes(k, bound)
            vectors = list(logic._count_vectors(1 << k, bound))
            assert full == (1 << len(vectors)) - 1
            for i, vector in enumerate(vectors):
                counts = dict(vector)
                for cell, row in enumerate(rows):
                    held = [m for m, bits in enumerate(row) if bits >> i & 1]
                    assert held == [counts.get(cell, 0)]


# ---------------------------------------------------------------------------
# Interned forms
# ---------------------------------------------------------------------------

_MAGRI_4 = "(only (some italian (and-conc warm blond)))"


class TestInterning:
    def test_independent_parses_give_one_object(self):
        assert parse_lf(_MAGRI_4, ITALIAN_PREDS) is parse_lf(_MAGRI_4, ITALIAN_PREDS)
        assert Atom(PredicateSym("warm")) is Atom(WARM)

    def test_equal_forms_hash_equal(self):
        built = Only(some(ITALIAN, AndConc(Atom(WARM), Atom(BLOND))))
        assert built == parse_lf(_MAGRI_4, ITALIAN_PREDS)
        assert hash(built) == hash(parse_lf(_MAGRI_4, ITALIAN_PREDS))
        assert PredicateSym("won", temporal_class="eventive") is WON

    def test_pickle_copy_deepcopy_and_replace_give_the_same_object(self):
        form = parse_lf(_MAGRI_4, ITALIAN_PREDS)
        assert pickle.loads(pickle.dumps(form)) is form
        assert copy.copy(form) is form
        assert copy.deepcopy(form) is form
        assert copy.deepcopy([form, (form.body,)]) == [form, (form.body,)]
        assert form.body._replace(quantifier=ALL) is all_(
            ITALIAN, AndConc(Atom(WARM), Atom(BLOND))
        )
        assert form._replace() is form

    def test_equality_and_hash_are_identity(self):
        # equal live nodes are one object, so object's own slots decide
        assert "__eq__" not in vars(syntax.Interned)
        assert "__hash__" not in vars(syntax.Interned)
        assert all(type(node).__hash__ is object.__hash__ for node in _NODES)
        assert Quantifier.__hash__ is object.__hash__
        # alternative sets hold tags, and the per-set memos hash the sets;
        # readings and variants sit in the keys of judge's trace-step memo
        assert Tag.__hash__ is object.__hash__
        assert Reading.__hash__ is object.__hash__
        assert PresupVariant.__hash__ is object.__hash__
        form = parse_lf(_MAGRI_4, ITALIAN_PREDS)
        assert not hasattr(form, "_hash")
        assert hash(form) == object.__hash__(form)
        # object.__new__ bypasses the table and is not a supported
        # constructor: what it makes equals nothing but itself
        twin = object.__new__(Only)
        object.__setattr__(twin, "body", form.body)
        assert twin != form and not twin == form and twin == twin

    @settings(max_examples=200, deadline=None)
    @given(_forms(_POOL, 2), _forms(_POOL, 2), st.booleans())
    def test_independent_builds_are_one_object_iff_structurally_equal(self, form, other, same):
        # one side parsed from text, the other built by constructors
        built = _rebuild(form) if same else other
        parsed = parse_lf(render_lf(form), _POOL)
        assert (parsed is built) is _structurally_equal(form, built)
        assert (parsed == built) is (parsed is built)

    @settings(max_examples=150, deadline=None)
    @given(_forms(_POOL, 2))
    def test_parsing_a_rendering_gives_back_the_same_object(self, form):
        assert parse_lf(render_lf(form), _POOL) is form

    def test_memoized_alternatives_match_an_uncached_call(self, full_registry):
        clause = parse_lf("(some italian (and-conc warm blond))", ITALIAN_PREDS)
        cached = substitution_alternatives(clause, full_registry, 4)
        assert substitution_alternatives(clause, full_registry, 4) is cached
        assert substitution_alternatives.__wrapped__(clause, full_registry, 4) == cached

    def test_list_of_disjuncts_acts_as_a_tuple(self, full_registry):
        disjuncts = [some(ITALIAN, Atom(WARM)), all_(ITALIAN, Atom(BLOND))]
        listed = OrLF(disjuncts)
        assert listed is OrLF(tuple(disjuncts))
        # a list cannot be looked up, so _intern builds, normalizes, and
        # gets the live node back, as the class call does
        assert syntax._intern(OrLF, disjuncts) is listed
        assert syntax._INTERNED[(OrLF, tuple(disjuncts))]() is listed
        assert render_lf(listed) == "(or (some italian warm) (all italian blond))"
        model = Model(["a"], {"italian": ["a"], "warm": [], "blond": ["a"]})
        assert evaluate(listed, model) is True
        assert consistent([listed], ITALIAN_PREDS, 2, full_registry)
        with pytest.raises(WellFormednessError):
            OrLF([])

    def test_scales_are_interned_too(self):
        from felicity import Scale, ScaleRegistry

        scale = Scale((SOME, ALL))
        assert Scale([SOME, ALL]) is scale  # a list call, stored as a tuple
        assert ScaleRegistry([scale]) is ScaleRegistry((Scale((SOME, ALL)),))

    def test_a_repeated_scale_clause_is_a_table_hit(self, monkeypatch):
        from pathlib import Path

        from felicity import Scale, parse_scenario

        text = (Path(__file__).resolve().parent.parent / "fixtures" / "magri-1.sexp").read_text()
        first = parse_scenario(text)
        runs = []
        post_init = Scale.__post_init__

        def counted(self):
            runs.append(self.members)
            post_init(self)

        monkeypatch.setattr(Scale, "__post_init__", counted)
        second = parse_scenario(text)
        assert runs == []
        assert second.scales is first.scales
        # a repeated call is a table hit; the first is a miss only once no
        # cache or earlier test still holds a live (some most) scale
        for module in [m for name, m in sys.modules.items() if name.startswith("felicity")]:
            for value in vars(module).values():
                getattr(value, "cache_clear", lambda: None)()
        gc.collect()
        scale = Scale((SOME, MOST))
        assert Scale((SOME, MOST)) is scale
        assert runs == [(SOME, MOST)]

    def test_a_dead_nodes_entry_goes_and_a_replaced_entry_stays(self):
        # each entry is one weak reference that carries its own key, and
        # its callback drops the entry only while the entry is still it
        table, key = syntax._INTERNED, (PredicateSym, "intern-probe", "stative")
        node = PredicateSym("intern-probe")
        ref = table[key]
        assert type(ref) is syntax._KeyedRef and ref.key == key and ref() is node
        del node
        gc.collect()
        assert ref() is None and key not in table
        # another value took the key while the first one's callback was
        # pending (which keeps that reference alive): the new entry stays
        node = PredicateSym("intern-probe")
        pending = table[key]
        stand_in = object.__new__(PredicateSym)  # outside the table
        replacement = syntax._KeyedRef(stand_in, syntax._forget)
        replacement.key = key
        with syntax._TABLE_LOCK:
            table[key] = replacement
        del node
        gc.collect()
        assert pending() is None and table.get(key) is replacement
        del stand_in
        gc.collect()
        assert key not in table

    def test_a_call_omitting_a_default_is_a_table_hit(self, monkeypatch):
        runs = []
        post_init = PredicateSym.__post_init__

        def counted(self):
            runs.append(self.name)
            post_init(self)

        monkeypatch.setattr(PredicateSym, "__post_init__", counted)
        # the call binds the omitted temporal_class before the lookup, so
        # the repeat and the full call both hit the table
        pred = PredicateSym("omitted-default")
        assert PredicateSym("omitted-default") is pred
        assert PredicateSym("omitted-default", "stative") is pred
        assert runs == ["omitted-default"]

    def test_a_keyword_call_or_replace_of_a_live_value_builds_nothing(self, monkeypatch):
        from felicity import Scale

        members = (MOST, ALL)
        scale = Scale(members)
        runs = []
        post_init = Scale.__post_init__

        def counted(self):
            runs.append(self.members)
            post_init(self)

        monkeypatch.setattr(Scale, "__post_init__", counted)
        assert Scale(members=members) is scale
        assert scale._replace() is scale
        assert scale._replace(members=members) is scale
        clause = some(ITALIAN, Atom(WARM))
        assert clause._replace(scope=Atom(WARM)) is clause
        assert runs == []

    def test_concurrent_builds_agree(self):
        # threads race to build the same new forms, round after round; as
        # a round starts, the previous round's forms lose their last
        # reference, so their weak-reference callbacks run while the other
        # threads look up and insert the same keys
        texts = [f"(not (or (some italian warm) (most italian (not blond)) (no warm {i})))"
                 for i in ("italian", "blond", "warm")]
        preds = {p.name: p for p in ITALIAN_PREDS}
        rounds, workers = 1000, 4
        start = threading.Barrier(workers, timeout=60)
        kept: dict[int, list] = {}
        agreed: list[bool] = []

        def build(worker):
            for r in range(rounds):
                start.wait()
                if worker == 0:
                    kept.pop(r - 1, None)
                forms = [parse_lf(t, preds) for t in texts]
                first = kept.setdefault(r, forms)
                agreed.append(all(a is b for a, b in zip(forms, first)))
                del forms, first

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(w,)) for w in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(agreed) == rounds * workers
        assert all(agreed)
        # the table holds each form, and it is the one a new parse returns
        forms = [parse_lf(t, preds) for t in texts]
        assert all(a is b for a, b in zip(forms, kept[rounds - 1]))
        for form in forms:
            assert syntax._INTERNED[(type(form), *form._fields())]() is form


def _rebuild(node):
    """node built again bottom-up, every node through its constructor."""
    if isinstance(node, tuple):
        return tuple(_rebuild(x) for x in node)
    if isinstance(node, syntax.Interned):
        return type(node)(*(_rebuild(getattr(node, name)) for name in node.__match_args__))
    return node


def _structurally_equal(a, b) -> bool:
    """Equality of two trees decided by walking both, never by a node's ==."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return (
            isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b)
            and all(_structurally_equal(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, syntax.Interned) or isinstance(b, syntax.Interned):
        return type(a) is type(b) and all(
            _structurally_equal(getattr(a, name), getattr(b, name))
            for name in a.__match_args__
        )
    return type(a) is type(b) and a == b


def _interned_classes(cls=syntax.Interned):
    for sub in cls.__subclasses__():
        yield sub
        yield from _interned_classes(sub)


_CLAUSE = some(ITALIAN, Atom(WARM))
_NODES = [
    WARM, Atom(WARM), TRUE, NotP(Atom(WARM)), AndConc(Atom(WARM), TRUE),
    AndSeq(Atom(WON), Atom(LEFT)), _CLAUSE, Only(_CLAUSE), NotLF(_CLAUSE),
    AndLF(_CLAUSE, _CLAUSE), OrLF((_CLAUSE, _CLAUSE)),
    Scale((SOME, ALL)), ScaleRegistry((Scale((SOME, ALL)),)),
]
_NODE_IDS = [type(node).__name__ for node in _NODES]


class TestInternedContract:
    """What ``Interned`` gives every node class: fields read from its
    annotations, ``__init__``, ``__repr__``, ``_replace`` and a frozen
    ``__setattr__``, written once for all of them."""

    def test_the_sample_covers_every_node_class(self):
        assert sorted(_NODE_IDS) == sorted(c.__name__ for c in _interned_classes())
        assert len(_NODES) == 13

    @pytest.mark.parametrize("node", _NODES, ids=_NODE_IDS)
    def test_fields_cannot_be_assigned_or_deleted(self, node):
        assert issubclass(syntax.FrozenInstanceError, AttributeError)
        for name in type(node).__match_args__ + ("other",):
            with pytest.raises(syntax.FrozenInstanceError):
                setattr(node, name, None)
            with pytest.raises(syntax.FrozenInstanceError):
                delattr(node, name)
        assert node == type(node)(*node._fields())

    @pytest.mark.parametrize("node", _NODES, ids=_NODE_IDS)
    def test_repr_has_the_dataclass_format(self, node):
        fields = ", ".join(f"{name}={getattr(node, name)!r}" for name in node.__match_args__)
        assert repr(node) == f"{type(node).__qualname__}({fields})"

    def test_repr_of_a_nested_form(self):
        assert repr(Only(some(ITALIAN, TRUE))) == (
            "Only(body=Quant(quantifier=<Quantifier.SOME: 'some'>,"
            " restrictor=PredicateSym(name='italian', temporal_class='stative'),"
            " scope=TruePred()))"
        )

    @pytest.mark.parametrize("node", _NODES, ids=_NODE_IDS)
    def test_fields_match_args_and_replace(self, node):
        names = type(node).__match_args__
        assert names == tuple(type(node).__annotations__)
        assert node._fields() == tuple(getattr(node, name) for name in names)
        assert node._replace() is node
        assert type(node)(**dict(zip(names, node._fields()))) is node
        assert pickle.loads(pickle.dumps(node)) is node
        # the intern table holds it under the key of its fields
        assert syntax._INTERNED[(type(node), *node._fields())]() is node

    def test_keywords_and_defaults_bind_as_a_dataclass_does(self):
        assert PredicateSym("won", temporal_class="eventive") is WON
        assert PredicateSym(name="warm") is WARM
        assert PredicateSym("warm").temporal_class == "stative"
        clause = Quant(SOME, ITALIAN, Atom(WARM))
        assert Quant(scope=Atom(WARM), quantifier=SOME, restrictor=ITALIAN) is clause
        assert Quant(SOME, ITALIAN, scope=Atom(WARM)) is clause
        assert "temporal_class" in vars(PredicateSym("fresh"))  # a default is stored too
        members = (SOME, MOST, ALL)
        assert Scale(list(members)) is Scale(members=members)  # __post_init__ rebinds to a tuple
        assert clause._replace(quantifier=ALL) is all_(ITALIAN, Atom(WARM))
        assert PredicateSym._defaults == {"temporal_class": "stative"}
        assert Scale._defaults == {} and Quant._defaults == {}
        with pytest.raises(TypeError, match=r"Quant\(\): got an unexpected keyword argument 'x'"):
            clause._replace(x=1)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Atom(), "Atom\\(\\): missing a required argument: 'pred'"),
            (lambda: Quant(SOME, ITALIAN), "missing a required argument: 'scope'"),
            (lambda: PredicateSym(temporal_class="stative"), "missing a required argument: 'name'"),
            (lambda: PredicateSym("x", kind="stative"), "unexpected keyword argument 'kind'"),
            (lambda: Atom(WARM, colour="red"), "unexpected keyword argument 'colour'"),
            (lambda: Atom(WARM, pred=WARM), "multiple values for argument 'pred'"),
            (lambda: Atom(WARM, WARM), "too many positional arguments"),
            (lambda: TruePred(WARM), "too many positional arguments"),
        ],
    )
    def test_bad_arguments_raise_type_error(self, build, message):
        with pytest.raises(TypeError, match=message):
            build()

    @pytest.mark.parametrize("node", _NODES, ids=_NODE_IDS)
    def test_intern_with_the_stored_fields_is_the_class_call(self, node):
        # the engine's warm paths call _intern with fields exactly as stored
        cls, fields = type(node), node._fields()
        assert syntax._intern(cls, *fields) is cls(*fields) is node

    @pytest.mark.parametrize(
        "cls, fields",
        [
            (AndSeq, (Atom(WARM), Atom(LEFT))),  # no eventive atom on the left
            (AndSeq, (Atom(WON), TRUE)),
            (Only, (NotLF(_CLAUSE),)),  # only over a non-clause
            (OrLF, ((),)),
            (OrLF, ([],)),
            (PredicateSym, ("two words", "stative")),
            (PredicateSym, ("some", "stative")),
            (PredicateSym, (3, "stative")),
            (PredicateSym, ("fine", "timeless")),
            (Scale, ((SOME, SOME),)),
            (Scale, ((ALL, SOME),)),
        ],
    )
    def test_a_miss_through_intern_raises_what_the_class_call_raises(self, cls, fields):
        with pytest.raises(Exception) as by_class:
            cls(*fields)
        with pytest.raises(Exception) as by_intern:
            syntax._intern(cls, *fields)
        assert type(by_intern.value) is type(by_class.value)
        assert str(by_intern.value) == str(by_class.value)

    def test_a_wrapped_init_sees_each_new_scale_and_no_table_hit(self, monkeypatch):
        # as perfbench/tracer.py counts scale builds
        built = []
        init = Scale.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Scale, "__init__", counted)
        first = Scale((QI, ALL))  # scales no other test uses
        assert Scale((QI, ALL)) is first
        second = Scale((QI, MOST))
        assert Scale((QI, MOST)) is second
        assert built == [((QI, ALL),), ((QI, MOST),)]


class TestRecords:
    """The engine's records (``syntax.record``) are slotted namedtuples that
    equal only records of their own class, and whose ``_replace`` builds
    through the constructor."""

    def test_records_of_different_classes_with_equal_fields_differ(self):
        from felicity import Alternative

        class Twin(syntax.record("Alternative", "form tag")):
            __slots__ = ()

        clause = some(ITALIAN, Atom(WARM))
        alt = Alternative(clause, Tag.STRONGER)
        assert alt == Alternative(form=clause, tag=Tag.STRONGER)
        assert hash(alt) == hash(Alternative(clause, Tag.STRONGER)) == hash((clause, Tag.STRONGER))
        assert alt != Twin(clause, Tag.STRONGER) and not alt == Twin(clause, Tag.STRONGER)
        assert alt != (clause, Tag.STRONGER) and not alt == (clause, Tag.STRONGER)
        assert (clause, Tag.STRONGER) != alt and not (clause, Tag.STRONGER) == alt
        assert [alt] != [(clause, Tag.STRONGER)]

    def test_fields_replace_and_no_instance_dict(self):
        from felicity import ContextState, default_registry

        ctx = ContextState(preds=ITALIAN_PREDS)
        assert ContextState._fields == ("common_knowledge", "discourse", "preds", "bound", "scales")
        assert ctx._asdict()["bound"] == 4
        assert ctx.scales is default_registry()  # a None default, normalized
        assert ctx._replace(bound=3) == ContextState(preds=ITALIAN_PREDS, bound=3)
        assert not hasattr(ctx, "__dict__")
        with pytest.raises(AttributeError):
            ctx.bound = 3

    def test_replace_normalizes_and_validates(self):
        from felicity import AlternativeSet, Alternative, ContextState
        from felicity.context import InconsistentContextError

        clause = some(ITALIAN, Atom(WARM))
        ctx = ContextState(preds=ITALIAN_PREDS)
        assert ctx._replace(discourse=[clause]).discourse == (clause,)
        with pytest.raises(InconsistentContextError):
            ctx._replace(discourse=(clause, NotLF(clause)))
        alts = AlternativeSet(clause, ())
        with pytest.raises(ValueError, match="not its own alternative"):
            alts._replace(members=(Alternative(clause, Tag.WEAKER),))


# The error every oracle must raise, and the (premises, conclusion, preds,
# bound) of a query that raises it.
_ONE = [some(ITALIAN, Atom(WARM))]
_INVALID = {
    "undeclared predicate": (DeclarationError, _ONE, some(ITALIAN, Atom(BLOND)),
                             (ITALIAN, WARM), 3),
    "bound 0": (ValueError, _ONE, _ONE[0], ITALIAN_PREDS, 0),
    "over budget": (ResourceBudgetError, _ONE, _ONE[0], ITALIAN_PREDS, 9),
    "duplicate names": (WellFormednessError, _ONE, _ONE[0],
                        (ITALIAN, WARM, PredicateSym("warm")), 3),
    "predicate expression as a form": (TypeError, [Atom(WARM)], _ONE[0], ITALIAN_PREDS, 3),
    "list as a form": (TypeError, [_ONE], _ONE[0], ITALIAN_PREDS, 3),
    "predicate expression under not": (TypeError, [NotLF(Atom(WARM))], _ONE[0], ITALIAN_PREDS, 3),
}

_ORACLES = {
    "entails": entails,
    "consistent": lambda prem, concl, *rest: consistent([*prem, concl], *rest),
    "with-import": logic.entails_with_existential_import,
}


def _count_validations(monkeypatch, module=logic, memo="_satisfiable") -> list:
    """Give the oracle (or another memo) an empty cache whose misses are
    listed: each miss runs the uncached body once, and with it every check
    the query gets."""
    misses = []
    body = getattr(module, memo).__wrapped__
    counted = lru_cache(maxsize=None)(lambda *args: misses.append(args) or body(*args))
    monkeypatch.setattr(module, memo, counted)
    return misses


def _validate_then_compute(holds, fails, preds, bound, scales):
    """The satisfiability test with every check made up front, in order, as
    the oracle made them before it checked a query's forms only on failure:
    the reference for the order in which an invalid query's faults are
    reported."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    declared = {p.name for p in preds}
    for lf in holds + fails:
        used = {p.name for p in syntax._form_facts(lf).preds}
        if not used <= declared:
            raise DeclarationError(
                f"undeclared predicates {sorted(used - declared)} in {lf!r}"
            )
    logic.check_budget(bound, len(preds))
    logic._check_names(preds)
    models = logic._classes(len(preds), bound)[0]
    for lf in holds:
        models &= logic._truth(lf, preds, bound, scales)
    for lf in fails:
        models &= ~logic._truth(lf, preds, bound, scales)
    return models != 0


def _ask_oracle(holds, fails, preds, bound, scales):
    """The oracle's memo asked the way its front doors ask it: the space,
    the number of forms that must fail, then every form flat."""
    return syntax._ask(logic._satisfiable, preds, bound, scales, len(fails), *holds, *fails)


def _outcome(f, *args):
    """What f(*args) returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


_REGISTRY = ScaleRegistry((Scale((SOME, MOST, ALL)),))
_UNDECLARED = some(ITALIAN, Atom(BLOND))  # blond is not in _TWO
_TWO = (ITALIAN, WARM)
# Queries with two faults, the error that the first of them raises, and
# the query as (holds, fails, preds, bound, scales).
_DOUBLY_INVALID = {
    "bound 0 and an undeclared name": (ValueError, (_UNDECLARED,), (), _TWO, 0, None),
    "over budget and an undeclared name": (DeclarationError, tuple(_ONE), (_UNDECLARED,), _TWO,
                                           13, None),
    "a non-form after an undeclared form": (DeclarationError, (_UNDECLARED, Atom(WARM)), (),
                                            _TWO, 3, None),
    "a list in form position after an undeclared form": (DeclarationError, (_UNDECLARED,),
                                                         (_ONE,), _TWO, 3, None),
    "a list in form position, then an undeclared form": (TypeError, (_ONE, _UNDECLARED), (),
                                                         _TWO, 3, None),
    "only over an unscaled quantifier, then an undeclared name": (
        DeclarationError, (Only(no(ITALIAN, Atom(WARM))),), (_UNDECLARED,), _TWO, 3, _REGISTRY),
    "a repeated name and an undeclared name": (DeclarationError, (_UNDECLARED,), (),
                                               (ITALIAN, WARM, PredicateSym("warm")), 3, None),
}

# Queries on a space without a table (_EIGHT at bound 3), the error each
# raises, and the query as (holds, fails, preds, bound, scales).
_NO_TABLE_INVALID = {
    "undeclared predicate": (DeclarationError, (some(ITALIAN, Atom(LEFT)),), (), _EIGHT, 3, None),
    "a non-form": (TypeError, (_ONE[0], Atom(WARM)), (), _EIGHT, 3, None),
    "repeated names": (WellFormednessError, tuple(_ONE), (),
                       _EIGHT[:7] + (PredicateSym("warm"),), 3, None),
    "over budget": (ResourceBudgetError, tuple(_ONE), (), _EIGHT + (PredicateSym("extra"),), 3,
                    None),
}

# A predicate that the queries below never declare.
_STRAY = PredicateSym("stray")
_STRAY_FORMS = _forms(_POOL[:1] + (_STRAY,), 1)
# What a query over a prefix of _POOL may hold in form position besides
# its forms: forms that may be undeclared, things that are not forms, and
# forms that have no truth conditions without a scale.
_ITEMS = {
    k: st.one_of(
        _STRAY_FORMS,
        st.sampled_from([Atom(_POOL[0]), _POOL[0], NotLF(Atom(_POOL[0])), "(some e s)", None]),
        _FORMS[k].map(lambda forms: forms[:1]),  # a list in form position
        st.builds(Only, st.builds(Quant, st.just(NO), st.sampled_from(_POOL[:k]),
                                  _scopes(_POOL[:k], 1))),
    )
    for k in (1, 2, 3)
}


@st.composite
def _queries(draw):
    """Queries valid and invalid in any number of ways: forms or not,
    declared or not, a bound below 1 or over budget, a repeated name, with
    or without a scale for only."""
    k = draw(st.integers(1, 3))
    form = _FORMS[k].map(lambda forms: forms[0])
    if not draw(st.booleans()):  # half of the queries are valid
        holds = tuple(draw(st.lists(form, max_size=3)))
        fails = tuple(draw(st.lists(form, max_size=2)))
        return holds, fails, _POOL[:k], draw(st.integers(1, 3)), _REGISTRY
    preds = _POOL[:k] + draw(st.sampled_from([(), (PredicateSym("e"),)]))
    items = st.one_of(form, _ITEMS[k])
    holds = tuple(draw(st.lists(items, max_size=3)))
    fails = tuple(draw(st.lists(items, max_size=2)))
    bound = draw(st.sampled_from([3, 2, 1, 0, -1, 25]))
    return holds, fails, preds, bound, draw(st.sampled_from([_REGISTRY, None]))


class TestFrontDoor:
    """Each public oracle answers a repeated query from its caches and
    validates only on a miss; invalid queries are never cached."""

    @pytest.mark.parametrize("oracle", sorted(_ORACLES))
    @pytest.mark.parametrize("case", sorted(_INVALID))
    def test_an_invalid_query_raises_the_same_error_every_time(self, oracle, case):
        expected, *query = _INVALID[case]
        errors = []
        for _ in range(2):
            with pytest.raises(expected) as info:
                _ORACLES[oracle](*query)
            errors.append((info.type, str(info.value)))
        assert errors[0] == errors[1]
        assert errors[0][0] is expected
        if expected is TypeError:
            assert errors[0][1].startswith("not a logical form: ")

    @pytest.mark.parametrize("oracle", sorted(_ORACLES))
    def test_a_repeated_query_is_validated_once(self, oracle, monkeypatch):
        # predicates no other test uses, so the first call is a miss
        a, b = PredicateSym(f"door_{oracle}_a"), PredicateSym(f"door_{oracle}_b")
        query = ([some(a, Atom(b))], all_(a, Atom(b)), (a, b), 3)
        checks = _count_validations(monkeypatch)
        answer = _ORACLES[oracle](*query)
        assert len(checks) == 1
        assert _ORACLES[oracle](*query) is answer
        assert _ORACLES[oracle](query[0], query[1], list(query[2]), 3) is answer
        assert len(checks) == 1

    @pytest.mark.parametrize("oracle", ["entails", "consistent"])
    def test_a_hashable_invalid_query_is_validated_once_per_call(self, oracle, monkeypatch):
        checks = _count_validations(monkeypatch)
        _, *query = _INVALID["predicate expression as a form"]
        for calls in (1, 2):
            with pytest.raises(TypeError):
                _ORACLES[oracle](*query)
            assert len(checks) == calls

    @pytest.mark.parametrize("door, memo, query, message", [
        ("existence_premises", "_existence_premises", ((Atom(WARM),),), "^not a logical form: "),
        # a hashable scale whose members are None
        ("expand_qi", "_expand_qi", (ITALIAN, Atom(WARM), type("Scale", (), {"members": None})()),
         "is not iterable"),
    ], ids=["existence_premises", "expand_qi"])
    def test_a_syntax_memo_checks_a_hashable_invalid_query_once_per_call(
        self, door, memo, query, message, monkeypatch
    ):
        # the front door calls its memo directly; only an argument the memo
        # cannot hash sends the call to the uncached body
        checks = _count_validations(monkeypatch, syntax, memo)
        for calls in (1, 2):
            with pytest.raises(TypeError, match=message):
                getattr(syntax, door)(*query)
            assert len(checks) == calls

    def test_existence_premises_are_built_once_per_form_tuple(self):
        a, b = PredicateSym("door_import_a"), PredicateSym("door_import_b")
        forms = (some(b, Atom(a)), all_(a, Atom(b)))
        built = syntax.existence_premises(forms)
        assert built == (some(a, TRUE), some(b, TRUE))
        assert syntax.existence_premises(forms) is built  # looked up, not rebuilt
        assert syntax.existence_premises(list(forms)) is built
        assert syntax.existence_premises(iter(forms)) is built
        with pytest.raises(TypeError, match="^not a logical form: "):
            syntax.existence_premises([forms[0], [forms[1]]])

    @pytest.mark.parametrize("case", sorted(_DOUBLY_INVALID))
    def test_a_doubly_invalid_query_raises_its_first_fault(self, case):
        expected, *query = _DOUBLY_INVALID[case]
        for _ in range(2):  # never cached
            assert _outcome(_ask_oracle, *query) == _outcome(_validate_then_compute, *query)
        assert _outcome(_validate_then_compute, *query)[0] is expected

    @pytest.mark.parametrize("case", sorted(_NO_TABLE_INVALID))
    def test_a_space_without_a_table_raises_what_the_up_front_checks_raise(self, case):
        # the projection onto the mentioned predicates comes after the space's
        # checks, and a form's fault is still reported against the declared ones
        assert logic._classes(len(_EIGHT), 3)[1] is None
        expected, *query = _NO_TABLE_INVALID[case]
        for _ in range(2):  # never cached
            assert _outcome(_ask_oracle, *query) == _outcome(_validate_then_compute, *query)
        assert _outcome(_validate_then_compute, *query)[0] is expected

    def test_a_subclass_of_a_form_class_is_not_a_form(self):
        # node_facts counts only the form classes themselves as forms, and so
        # must the bitsets, the only check a query gets unless they raise.
        # In a fresh interpreter, since a node class cannot be undeclared.
        code = "\n".join([
            "from felicity import Atom, NotLF, Only, PredicateSym, Quant, SOME, logic",
            "class Sub(Quant):",
            "    quantifier: object",
            "    restrictor: object",
            "    scope: object",
            "a, b = PredicateSym('a'), PredicateSym('b')",
            "sub = Sub(SOME, a, Atom(b))",
            "for form in (sub, NotLF(sub), Only(sub)):",
            "    for holds, fails in (((form,), ()), ((), (form,))):",
            "        try:",
            "            print(logic._satisfiable((a, b), 2, None, len(fails), *holds, *fails))",
            "        except TypeError as exc:",
            "            print(str(exc).partition('(')[0])",
        ])
        src = os.path.dirname(os.path.dirname(logic.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines() == ["not a logical form: Sub"] * 6

    @settings(max_examples=400, deadline=None)
    @given(_queries())
    def test_checks_made_on_failure_give_the_up_front_outcome(self, query):
        expected = _outcome(_validate_then_compute, *query)
        for _ in range(2):
            assert _outcome(_ask_oracle, *query) == expected
        event(f"outcome: {expected if type(expected) is bool else expected[0].__name__}")

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_forms(_POOL, 3), _scopes(_POOL, 3), st.sampled_from(_POOL)))
    def test_form_facts_match_a_whole_tree_walk(self, node):
        facts = _walk_facts(node)
        assert syntax.node_facts(node) == facts
        if facts[0]:
            assert syntax.lf_predicates(node) == facts[1]
            assert analyze_reading(node) is _walk_reading(node)
        else:
            with pytest.raises(TypeError, match="^not a logical form: "):
                syntax.lf_predicates(node)


def _walk(node):
    """Every node under node, itself included, in order of occurrence."""
    nodes = []

    def visit(x):
        if isinstance(x, tuple):
            for y in x:
                visit(y)
        elif isinstance(x, syntax.Interned):
            nodes.append(x)
            if not isinstance(x, PredicateSym):
                for name in x.__match_args__:
                    visit(getattr(x, name))

    visit(node)
    return nodes


def _walk_facts(node):
    """Reference for the stored node facts, from a generic walk over every
    node's fields: (a logical form, every predicate symbol, every
    restrictor, an eventive symbol, an and-seq, an and-conc), symbols in
    order of occurrence."""
    nodes = _walk(node)
    return (
        isinstance(node, (Quant, Only, NotLF, AndLF, OrLF)),
        tuple(n for n in nodes if isinstance(n, PredicateSym)),
        tuple(n.restrictor for n in nodes if isinstance(n, Quant)),
        any(isinstance(n, PredicateSym) and n.temporal_class == "eventive" for n in nodes),
        any(isinstance(n, AndSeq) for n in nodes),
        any(isinstance(n, AndConc) for n in nodes),
    )


def _walk_reading(form):
    """Reference for analyze_reading: a conjunction of two clauses is
    distributive; otherwise an and-seq in any quantifier scope makes the
    reading sequenced, else an and-conc in one makes it concurrent."""
    clause = (Quant, Only)
    if isinstance(form, AndLF) and isinstance(form.left, clause) and isinstance(form.right, clause):
        return Reading.DISTRIBUTIVE_SENTENTIAL
    scopes = [_walk(n.scope) for n in _walk(form) if isinstance(n, Quant)]
    if any(isinstance(n, AndSeq) for scope in scopes for n in scope):
        return Reading.SEQUENCED_SPLIT
    if any(isinstance(n, AndConc) for scope in scopes for n in scope):
        return Reading.CONCURRENT_COLLECTIVE
    return Reading.SIMPLE
