"""Two-tier conversational context and epistemic evaluation.

Background common knowledge and the explicit discourse record are kept
apart on purpose: implicature computation is blind to the former but
sensitive to the latter. Everything that must ignore common knowledge
(relevance pruning, settledness) reads only the discourse tier, while
certainty/possibility and contextual entailment quantify over the worlds
compatible with both tiers.
"""

from __future__ import annotations

from enum import Enum

from .logic import (
    DEFAULT_BOUND,
    FelicityError,
    LogicalForm,
    consistent,
    entails,
    existence_premises,
    record,
)
from .scales import default_registry


class Verdict(Enum):
    FELICITOUS = "felicitous"
    ODD = "odd"


class InconsistentContextError(FelicityError):
    """Common knowledge plus discourse admit no world at the bound."""


class UpdateContradictionError(FelicityError):
    """A discourse update contradicts the context it extends."""

    def __init__(self, lf: LogicalForm):
        super().__init__(lf)
        self.lf = lf

    def __str__(self):
        # Rendered only when shown: continuation_felicity catches this
        # error as a verdict. dsl imports this module, hence the late import.
        from .dsl import render_lf

        return f"discourse update contradicts the context: {render_lf(self.lf)}"


class ContextState(record("ContextState", "common_knowledge discourse preds bound scales")):
    """Immutable context: updates return fresh states.

    ``common_knowledge`` is the background tier, invisible to
    exhaustification and settledness; ``discourse`` is the ordered record
    of explicit utterances. Their union must be consistent at the bound.
    ``scales`` defaults to ``default_registry()``.
    """

    __slots__ = ()

    def __new__(
        cls, common_knowledge=(), discourse=(), preds=(), bound=DEFAULT_BOUND, scales=None
    ):
        return tuple.__new__(cls, (
            tuple(common_knowledge),
            tuple(discourse),
            tuple(preds),
            bound,
            default_registry() if scales is None else scales,
        ))

    def __init__(self, *args, **kwargs):
        # Validation, kept apart from __new__'s normalization: the
        # benchmark's tracer times ContextState.__init__ as a context build.
        if not consistent(
            self.common_knowledge + self.discourse, self.preds, self.bound, self.scales
        ):
            raise InconsistentContextError(
                "common knowledge and discourse admit no world at the bound"
            )

    @property
    def facts(self) -> tuple[LogicalForm, ...]:
        return self.common_knowledge + self.discourse


def k_holds(ctx: ContextState, lf: LogicalForm) -> bool:
    """Certainty: lf is true in every world compatible with the context,
    i.e. the context (both tiers consulted) entails lf."""
    return entails(ctx.facts, lf, ctx.preds, ctx.bound, ctx.scales)


def p_holds(ctx: ContextState, lf: LogicalForm) -> bool:
    """Possibility: lf is true in at least one compatible world."""
    return consistent(ctx.facts + (lf,), ctx.preds, ctx.bound, ctx.scales)


# Contextual entailment is certainty; the two names serve different theories.
contextually_entails = k_holds


def settled_by_discourse(ctx: ContextState, lf: LogicalForm) -> bool:
    """The discourse record alone decides lf: it entails lf, or it is
    inconsistent with lf.

    Common knowledge is deliberately not consulted: this is the relevance
    test, and it must stay blind to the background tier. An utterance
    carries existential import for its own restrictors; without it,
    "no(A)(B)" would fail to settle "all(A)(B)" negatively through the
    empty-restrictor loophole. Those premises are one cached lookup.
    """
    premises = ctx.discourse + existence_premises(ctx.discourse)
    entailed = entails(premises, lf, ctx.preds, ctx.bound, ctx.scales)
    return entailed or not consistent(premises + (lf,), ctx.preds, ctx.bound, ctx.scales)


def update_discourse(ctx: ContextState, lf: LogicalForm) -> ContextState:
    """Append lf to the discourse record; the original state is unchanged."""
    if not consistent(ctx.facts + (lf,), ctx.preds, ctx.bound, ctx.scales):
        raise UpdateContradictionError(lf)
    return ctx._replace(discourse=ctx.discourse + (lf,))


def continuation_felicity(
    ctx: ContextState, prior: LogicalForm, continuation: LogicalForm
) -> Verdict:
    """Whether the continuation can follow the prior utterance in context.

    The prior is added to the discourse first; the continuation is then
    felicitous iff its own update goes through, and odd iff the update
    contradicts.
    """
    base = update_discourse(ctx, prior)
    try:
        update_discourse(base, continuation)
    except UpdateContradictionError:
        return Verdict.ODD
    return Verdict.FELICITOUS
