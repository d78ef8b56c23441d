"""Horn scales: quantifier inventories ordered from weakest to strongest.

A scale is only well-formed if its members are strictly ordered by logical
strength on nonempty restrictors; construction verifies this by bounded
entailment so that a bad declaration fails immediately rather than producing
silently wrong alternatives.
"""

from __future__ import annotations

from functools import lru_cache

from .logic import DEFAULT_BOUND, entails_with_existential_import
from .syntax import (
    ALL,
    Atom,
    Interned,
    MOST,
    PredicateSym,
    Quant,
    Quantifier,
    ScaleError,
    SOME,
)

_CHECK_A = PredicateSym("scale-check-a")
_CHECK_B = PredicateSym("scale-check-b")
_CHECK_PREDS = (_CHECK_A, _CHECK_B)


def _verify_strength_order(members: tuple[Quantifier, ...]):
    # Strictness of consecutive pairs gives strictness of the whole
    # chain by transitivity of bounded entailment.
    for weaker, stronger in zip(members, members[1:]):
        weak_clause = Quant(weaker, _CHECK_A, Atom(_CHECK_B))
        strong_clause = Quant(stronger, _CHECK_A, Atom(_CHECK_B))
        if not entails_with_existential_import(
            [strong_clause], weak_clause, _CHECK_PREDS, DEFAULT_BOUND
        ):
            raise ScaleError(
                f"{stronger.value!r} does not entail {weaker.value!r}"
                f" on nonempty restrictors; scale order is broken"
            )
        if entails_with_existential_import(
            [weak_clause], strong_clause, _CHECK_PREDS, DEFAULT_BOUND
        ):
            raise ScaleError(
                f"{weaker.value!r} and {stronger.value!r} are not strictly"
                f" ordered; scale members must differ in strength"
            )


class Scale(Interned):
    """A scale, interned like the forms. Building a scale that is not live
    validates it, its strength order included."""

    members: tuple[Quantifier, ...]

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ScaleError("a scale needs at least one member")
        if len(set(members)) != len(members):
            listed = " ".join(q.value for q in members)
            raise ScaleError(f"duplicate members in scale ({listed})")
        _verify_strength_order(members)

    def __contains__(self, q: Quantifier) -> bool:
        return q in self.members

    def stronger_mates(self, q: Quantifier) -> tuple[Quantifier, ...]:
        """Members strictly after q, i.e. strictly stronger than it."""
        try:
            i = self.members.index(q)
        except ValueError:
            raise ScaleError(f"{q.value!r} is not on this scale") from None
        return self.members[i + 1 :]


class ScaleRegistry(Interned):
    """The scales in force; a quantifier's scale is the first that holds it.
    The parser refuses a quantifier on two scales, but a registry built
    directly may hold overlapping scales: a later one is then dead for the
    quantifiers it shares."""

    scales: tuple[Scale, ...]

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(self.scales))

    def scale_for(self, q: Quantifier) -> Scale | None:
        for scale in self.scales:
            if q in scale:
                return scale
        return None


@lru_cache(maxsize=None)
def default_registry() -> ScaleRegistry:
    """The stock registry: the single scale (some, most, all)."""
    return ScaleRegistry((Scale((SOME, MOST, ALL)),))
