"""Scalar alternatives, exhaustification, ignorance inferences, presuppositions.

Alternatives come from quantifier substitution only: at each quantified node
a scale-mate no more complex than the original may be swapped in. Deletion
and ellipsis alternatives are out; that is exactly why a conjoined-scope
sentence has no bare-first-conjunct alternative.

Exhaustification is blind by design: it is a pure function of the sentence
and its alternative set, with no context parameter. Context enters earlier
(discourse-based pruning) or later (clash detection), never here.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum
from functools import lru_cache, reduce

from .logic import (
    ALL,
    AndLF,
    DEFAULT_BOUND,
    FelicityError,
    Know,
    LogicalForm,
    NotLF,
    Only,
    OrLF,
    PredicateSym,
    Quant,
    SOME,
    TRUE,
    consistent,
    entails,
    entails_with_existential_import,
    lf_predicates,
    record,
)
from .context import ContextState, settled_by_discourse
from .scales import ScaleRegistry


class PresuppositionUndefinedError(FelicityError):
    """The form has no presupposition rule."""


class Tag(Enum):
    STRONGER = "stronger"
    WEAKER = "weaker"
    INCOMPARABLE = "incomparable"


class Alternative(record("Alternative", "form tag")):
    """An alternative form with its strength relative to the origin."""

    __slots__ = ()


class AlternativeSet(record("AlternativeSet", "origin members")):
    """The tagged alternatives of one origin form, the origin excluded."""

    __slots__ = ()

    def __new__(cls, origin, members):
        if any(alt.form == origin for alt in members):
            raise ValueError("the origin is not its own alternative")
        return tuple.__new__(cls, (origin, members))

    def forms(self) -> tuple[LogicalForm, ...]:
        return tuple(alt.form for alt in self.members)

    def stronger(self) -> tuple[LogicalForm, ...]:
        return tuple(alt.form for alt in self.members if alt.tag is Tag.STRONGER)


class PresupVariant(Enum):
    WEAK = "weak"
    EXHAUSTIFIED = "exhaustified"


class Presup(record("Presup", "content variant")):
    """A presupposition and the variant that produced it."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Alternative generation
# ---------------------------------------------------------------------------


def _variants(lf: LogicalForm, scales: ScaleRegistry) -> list[LogicalForm]:
    """All trees obtainable by independently substituting scale-mates of at
    most the original complexity at each quantified node (original included)."""
    if isinstance(lf, Quant):
        out = [lf]
        scale = scales.scale_for(lf.quantifier)
        if scale is not None:
            out += [
                Quant(q, lf.restrictor, lf.scope)
                for q in scale.mates_at_most_as_complex(lf.quantifier)
            ]
        return out
    if isinstance(lf, Only):
        return [Only(b) for b in _variants(lf.body, scales)]
    if isinstance(lf, NotLF):
        return [NotLF(b) for b in _variants(lf.body, scales)]
    if isinstance(lf, AndLF):
        return [
            AndLF(l, r)
            for l in _variants(lf.left, scales)
            for r in _variants(lf.right, scales)
        ]
    if isinstance(lf, OrLF):
        def expand(ds: tuple[LogicalForm, ...]) -> list[tuple[LogicalForm, ...]]:
            if not ds:
                return [()]
            return [(head,) + rest for head in _variants(ds[0], scales) for rest in expand(ds[1:])]

        return [OrLF(ds) for ds in expand(lf.disjuncts)]
    raise TypeError(f"cannot generate alternatives for {lf!r}")


def _declared(*forms: LogicalForm) -> tuple[PredicateSym, ...]:
    """The predicate symbols of the forms, one per name, first seen first:
    the declarations an oracle query about just these forms needs."""
    table: dict[str, PredicateSym] = {}
    for lf in forms:
        for p in lf_predicates(lf):
            table.setdefault(p.name, p)
    return tuple(table.values())


def _tag(
    member: LogicalForm,
    origin: LogicalForm,
    preds: tuple[PredicateSym, ...],
    bound: int,
    scales: ScaleRegistry,
) -> Tag:
    up = entails_with_existential_import([member], origin, preds, bound, scales)
    down = entails_with_existential_import([origin], member, preds, bound, scales)
    if up and not down:
        return Tag.STRONGER
    if down and not up:
        return Tag.WEAKER
    return Tag.INCOMPARABLE


@lru_cache(maxsize=1024)
def substitution_alternatives(
    lf: LogicalForm, scales: ScaleRegistry, bound: int = DEFAULT_BOUND
) -> AlternativeSet:
    """Scale-mate substitution alternatives of lf, tagged for strength.

    Tags compare against the origin by bounded entailment with existential
    import on the restrictors. A form with no scalar item on any scale gets
    an empty set, which is not an error. Memoized: every predictor asks for
    the alternatives of the same clauses, and the result is immutable.
    """
    preds = _declared(lf)
    seen: dict[LogicalForm, None] = {}
    for variant in _variants(lf, scales):
        if variant != lf:
            seen.setdefault(variant, None)
    members = tuple(
        Alternative(form, _tag(form, lf, preds, bound, scales)) for form in seen
    )
    return AlternativeSet(origin=lf, members=members)


def prune_settled(alts: AlternativeSet, ctx: ContextState) -> AlternativeSet:
    """Drop alternatives the discourse record has already decided.

    This is the relevance filter: a question settled by what was explicitly
    said is no longer on the table. Common knowledge is never consulted.
    """
    keep = tuple(
        alt for alt in alts.members if not settled_by_discourse(ctx, alt.form)
    )
    return AlternativeSet(origin=alts.origin, members=keep)


# ---------------------------------------------------------------------------
# Exhaustification and implicatures
# ---------------------------------------------------------------------------


def exh(
    lf: LogicalForm,
    alts: AlternativeSet,
    bound: int = DEFAULT_BOUND,
    scales: ScaleRegistry | None = None,
) -> LogicalForm:
    """Strengthen lf by negating every stronger alternative whose negation
    is consistent with it.

    Deliberately blind: no context argument exists. Each negation is tested
    on its own; there is no innocent exclusion. That is exact when the
    admitted negations are jointly consistent with lf, as for a single
    quantified clause. Disjunctive targets do reach this function, though:
    for ``(or (some a b) (some a c))`` on the (some all) scale, the negations
    of the stronger alternatives together contradict lf, so the result is
    inconsistent.
    """
    if alts.origin != lf:
        raise ValueError("alternative set was computed for a different origin")
    preds = _declared(lf, *alts.forms())
    negations = [
        NotLF(m)
        for m in alts.stronger()
        if consistent([lf, NotLF(m)], preds, bound, scales)
    ]
    return reduce(AndLF, negations, lf)


def disjunction_ignorance(disj: OrLF, ctx: ContextState) -> tuple[LogicalForm, ...]:
    """Ignorance implicatures not-certain(d) for the live disjuncts of disj.

    A disjunct is dropped when the disjunction itself forces it (with
    existential import on the restrictors, so the trivially weakest mate is
    not treated as open) or when the discourse record has already settled
    it. Only the surviving disjuncts carry ignorance inferences; the pruning
    is driven by explicit updates, never by background knowledge. So a
    one-disjunct expansion (over a one-member scale) has none: the
    disjunction forces its only disjunct.
    """
    out = []
    for d in disj.disjuncts:
        if entails_with_existential_import([disj], d, ctx.preds, ctx.bound, ctx.scales):
            continue
        if settled_by_discourse(ctx, d):
            continue
        out.append(NotLF(Know(d)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Presuppositions
# ---------------------------------------------------------------------------


def presupposition(lf: LogicalForm, variant: PresupVariant) -> Presup:
    """Existence-plus-content presupposition of a quantified clause.

    all(A)(S) presupposes that A is nonempty and that all of them are S;
    some(A)(S) presupposes existence plus some, with the exhaustified
    variant additionally carrying "but not all". An overt 'only' is stripped
    to its prejacent first. Other forms have no presupposition rule.
    """
    if isinstance(lf, Only):
        lf = lf.body
    if not isinstance(lf, Quant):
        raise PresuppositionUndefinedError(
            f"no presupposition rule for {type(lf).__name__}"
        )
    exist = Quant(SOME, lf.restrictor, TRUE)
    if lf.quantifier is ALL:
        return Presup(content=AndLF(exist, lf), variant=variant)
    if lf.quantifier is SOME:
        content: LogicalForm = AndLF(exist, lf)
        if variant is PresupVariant.EXHAUSTIFIED:
            content = AndLF(content, NotLF(Quant(ALL, lf.restrictor, lf.scope)))
        return Presup(content=content, variant=variant)
    raise PresuppositionUndefinedError(
        f"no presupposition rule for quantifier {lf.quantifier.value!r}"
    )


def presup_strictly_stronger(
    p1: Presup,
    p2: Presup,
    preds: Iterable[PredicateSym],
    bound: int = DEFAULT_BOUND,
    scales: ScaleRegistry | None = None,
) -> bool:
    """p1 entails p2 but not conversely, at the bound."""
    preds = tuple(preds)
    return entails([p1.content], p2.content, preds, bound, scales) and not entails(
        [p2.content], p1.content, preds, bound, scales
    )
