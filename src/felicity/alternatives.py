"""Scalar alternatives, exhaustification, ignorance inferences, presuppositions.

Alternatives come from quantifier substitution only: at each quantified node
any scale-mate may be swapped in. An alternative must be no more complex than
the original, and every quantifier here is one lexical item, so every
scale-mate qualifies. Deletion and ellipsis alternatives are out; that is
exactly why a conjoined-scope sentence has no bare-first-conjunct alternative.

Exhaustification is blind by design: it is a pure function of the sentence
and its alternative set, with no context parameter. Context enters earlier
(discourse-based pruning) or later (clash detection), never here.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum
from functools import lru_cache
from itertools import product

from .logic import DEFAULT_BOUND, entails, entails_with_existential_import
from .syntax import (
    ALL,
    AndLF,
    LogicalForm,
    NotLF,
    Only,
    OrLF,
    PredicateSym,
    Quant,
    SOME,
    TRUE,
    _intern,
    _uncached,
    children,
    existence_premises,
    lf_predicates,
    record,
)
from .context import ContextState, settled_by_discourse
from .scales import ScaleRegistry


class Tag(Enum):
    STRONGER = "stronger"
    WEAKER = "weaker"
    INCOMPARABLE = "incomparable"

    # Members are singletons, so identity hashing is exact; it runs in C,
    # and alternative sets, which hold tags, key judge's trace-step memo.
    __hash__ = object.__hash__


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

    # Identity hashing, as for Tag: a variant keys judge's trace-step memo.
    __hash__ = object.__hash__


# ---------------------------------------------------------------------------
# Alternative generation
# ---------------------------------------------------------------------------


def _variants(lf: LogicalForm, scales: ScaleRegistry) -> list[LogicalForm]:
    """All trees obtainable by independently substituting scale-mates at each
    quantified node (original included), in ``product`` order over the
    fields. Every quantifier is one lexical item, so no scale-mate is more
    complex than the original it replaces."""
    if type(lf) is Quant:
        scale = scales.scale_for(lf.quantifier)
        mates = scale.members if scale is not None else ()
        return [lf] + [Quant(q, lf.restrictor, lf.scope) for q in mates if q is not lf.quantifier]
    fields = [
        list(product(*(_variants(d, scales) for d in value)))
        if type(value) is tuple
        else _variants(value, scales)
        for value in lf._fields()
    ]
    return [type(lf)(*values) for values in product(*fields)]


# The most alternatives a target clause may have. ``_variants`` builds the
# product of the scale-mates at every quantified node, so the count grows
# exponentially with the clauses of a target; a parse refuses a target over
# this budget (``dsl``). It is 3**6: six clauses on a three-member scale.
ALTERNATIVE_BUDGET = 729


@lru_cache(maxsize=1024)
def alternative_count(lf: LogicalForm, scales: ScaleRegistry) -> int:
    """``len(_variants(lf, scales))``, without building them: the product,
    over lf's quantified nodes, of the size of each node's scale (1 for a
    quantifier on no scale). Memoized, so that a warm parse that checks the
    budget pays one lookup."""
    count = 1
    stack = [lf]
    while stack:
        node = stack.pop()
        if type(node) is Quant:
            scale = scales.scale_for(node.quantifier)
            if scale is not None:
                count *= len(scale.members)
        else:
            stack += children(node)
    return count


def _declared(lf: LogicalForm) -> tuple[PredicateSym, ...]:
    """The predicate symbols of lf, one per name, first seen first: the
    declarations an oracle query about lf and its variants needs, since a
    variant swaps quantifiers only."""
    table: dict[str, PredicateSym] = {}
    for p in lf_predicates(lf):
        table.setdefault(p.name, p)
    return tuple(table.values())


@lru_cache(maxsize=1024)
def substitution_alternatives(
    lf: LogicalForm, scales: ScaleRegistry, bound: int = DEFAULT_BOUND
) -> AlternativeSet:
    """Scale-mate substitution alternatives of lf, tagged for strength.

    Tags compare against the origin by bounded entailment with existential
    import on the restrictors. A member swaps quantifiers only, so it names
    lf's predicates in lf's first-seen order, and its oracle queries declare
    just those; it has lf's restrictors too, so one tuple of existence
    premises serves every question. A form with no scalar item on any
    scale gets an empty set, which is not an error. Memoized: every
    predictor asks for the alternatives of the same clauses, and the result
    is immutable.
    """
    preds = _declared(lf)
    existence = existence_premises((lf,))
    members = []
    # The first variant is lf itself; the others are distinct nodes.
    for form in _variants(lf, scales)[1:]:
        up = entails((form, *existence), lf, preds, bound, scales)
        down = entails((lf, *existence), form, preds, bound, scales)
        tag = Tag.INCOMPARABLE if up is down else Tag.STRONGER if up else Tag.WEAKER
        members.append(Alternative(form, tag))
    return AlternativeSet(origin=lf, members=tuple(members))


def prune_settled(alts: AlternativeSet, ctx: ContextState) -> AlternativeSet:
    """Drop alternatives the discourse record has already decided.

    This is the relevance filter: a question settled by what was explicitly
    said is no longer on the table. Common knowledge is never consulted.
    Each member is one ``settled_by_discourse`` query. The kept members
    are members of alts, so they mention exactly the origin's predicates.
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
    """Strengthen lf by negating every stronger alternative that lf does
    not entail.

    Deliberately blind: no context argument exists. Each negation is tested
    on its own; there is no innocent exclusion. That is exact when the
    admitted negations are jointly consistent with lf, as for a single
    quantified clause. Disjunctive targets do reach this function, though:
    for ``(or (some a b) (some a c))`` on the (some all) scale, the negations
    of the stronger alternatives together contradict lf, so the result is
    inconsistent.

    Each stronger alternative is one oracle query, on every call, which
    declares lf's predicates: a member of a set that
    ``substitution_alternatives`` or ``prune_settled`` builds swaps
    quantifiers only. A member that mentions a predicate lf lacks raises
    the oracle's ``DeclarationError``.
    """
    if alts.origin != lf:
        raise ValueError("alternative set was computed for a different origin")
    preds = _declared(lf)
    out = lf
    for m in alts.stronger():
        if not entails((lf,), m, preds, bound, scales):
            out = _intern(AndLF, out, _intern(NotLF, m))
    return out


def disjunction_ignorance(disj: OrLF, ctx: ContextState) -> tuple[LogicalForm, ...]:
    """The live disjuncts d of disj, each of which carries the ignorance
    implicature not-certain(d).

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
        out.append(d)
    return tuple(out)


# ---------------------------------------------------------------------------
# Presuppositions
# ---------------------------------------------------------------------------


def presupposition(lf: LogicalForm, variant: PresupVariant) -> LogicalForm | None:
    """Existence-plus-content presupposition of a quantified clause.

    all(A)(S) presupposes that A is nonempty and that all of them are S;
    some(A)(S) presupposes existence plus some, with the exhaustified
    variant additionally carrying "but not all". An overt 'only' is stripped
    to its prejacent first. Other forms have no presupposition rule: None.
    Built once per clause and variant, then looked up.
    """
    try:
        return _presupposition(lf, variant)
    except TypeError:
        return _uncached(_presupposition, (lf, variant))


@lru_cache(maxsize=1024)
def _presupposition(lf: LogicalForm, variant: PresupVariant) -> LogicalForm | None:
    # Exact types, as node_facts tests them: isinstance on a node class is slow.
    if type(lf) is Only:
        lf = lf.body
    if type(lf) is not Quant or lf.quantifier not in (ALL, SOME):
        return None
    content = AndLF(Quant(SOME, lf.restrictor, TRUE), lf)
    if lf.quantifier is SOME and variant is PresupVariant.EXHAUSTIFIED:
        content = AndLF(content, NotLF(Quant(ALL, lf.restrictor, lf.scope)))
    return content


def presup_strictly_stronger(
    p1: LogicalForm,
    p2: LogicalForm,
    preds: Iterable[PredicateSym],
    bound: int = DEFAULT_BOUND,
    scales: ScaleRegistry | None = None,
) -> bool:
    """Presupposition p1 entails p2 but not conversely, at the bound."""
    preds = tuple(preds)
    return entails([p1], p2, preds, bound, scales) and not entails([p2], p1, preds, bound, scales)
