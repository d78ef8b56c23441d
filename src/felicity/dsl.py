"""Concrete syntax: parsing and canonical printing of formulas and scenarios.

Formula grammar:

    lf    ::= "(" quant ident pexpr ")" | "(only" lf ")" | "(not" lf ")"
            | "(and" lf lf ")" | "(or" lf+ ")"
    quant ::= "some" | "all" | "most" | "no" | "qi"
    pexpr ::= ident | "true" | "(not" pexpr ")"
            | "(and-conc" pexpr pexpr ")" | "(and-seq" pexpr pexpr ")"

Scenario form:

    (scenario NAME
      (individuals N)?
      (predicates (IDENT :stative|:eventive)...)
      (scales (QUANT...)...)?
      (common-knowledge LF...)?
      (discourse LF...)?
      (target LF)
      (continuations LF...)?
      (theories IDENT...)?
      (expect odd|felicitous)?)

Sections appear in that order, each at most once. Defaults: 4 individuals,
the (some most all) scale, every theory enabled.

Rendering is canonical (lowercase keywords, single spaces, one pair of
parentheses per form) and parsing inverts it structurally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping

from .context import Verdict
from .logic import (
    AndConc,
    AndLF,
    AndSeq,
    Atom,
    DEFAULT_BOUND,
    FelicityError,
    Know,
    LogicalForm,
    NotLF,
    NotP,
    Only,
    OrLF,
    Poss,
    PredExpr,
    PredicateSym,
    Quant,
    Quantifier,
    ResourceBudgetError,
    ScaleError,
    TRUE,
    TruePred,
    WellFormednessError,
    check_budget,
    consistent,
)
from .scales import Scale, ScaleRegistry, default_registry
from .sexpr import ParseError, SAtom, SList, SNode, read_one

THEORY_NAMES = (
    "magri-blind",
    "presupposed-ignorance",
    "logical-integrity",
    "del-pinal",
    "indirect-contradiction",
)

_QUANTS = {q.value: q for q in Quantifier}
_IDENT_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_-]*$")
_RESERVED = set(_QUANTS) | {"true", "not", "and", "or", "only", "and-conc", "and-seq"}


class ScenarioError(FelicityError):
    """A scenario parsed but failed semantic validation."""


def _expect_atom(node: SNode, what: str) -> SAtom:
    if not isinstance(node, SAtom):
        raise ParseError(f"expected {what}, got a list", node.line, node.col)
    return node


def _ident(node: SNode, what: str = "an identifier") -> str:
    atom = _expect_atom(node, what)
    if not _IDENT_RE.match(atom.text) or atom.text in _RESERVED:
        raise ParseError(f"expected {what}, got {atom.text!r}", atom.line, atom.col)
    return atom.text


def _lookup(preds: Mapping[str, PredicateSym], node: SNode) -> PredicateSym:
    name = _ident(node, "a predicate name")
    try:
        return preds[name]
    except KeyError:
        raise ParseError(f"undeclared predicate {name!r}", node.line, node.col) from None


def _build_pexpr(node: SNode, preds: Mapping[str, PredicateSym]) -> PredExpr:
    if isinstance(node, SAtom):
        if node.text == "true":
            return TRUE
        return Atom(_lookup(preds, node))
    if not node.items:
        raise ParseError("empty predicate expression", node.line, node.col)
    head = _expect_atom(node.items[0], "a predicate operator")
    if head.text == "not":
        if len(node.items) != 2:
            raise ParseError("not takes exactly one operand", node.line, node.col)
        return NotP(_build_pexpr(node.items[1], preds))
    if head.text in ("and-conc", "and-seq"):
        if len(node.items) != 3:
            raise ParseError(f"{head.text} takes exactly two operands", node.line, node.col)
        left = _build_pexpr(node.items[1], preds)
        right = _build_pexpr(node.items[2], preds)
        if head.text == "and-conc":
            return AndConc(left, right)
        try:
            return AndSeq(left, right)
        except WellFormednessError as exc:
            raise ParseError(str(exc), node.line, node.col) from None
    raise ParseError(
        f"unknown predicate operator {head.text!r}", head.line, head.col
    )


def _build_lf(
    node: SNode, preds: Mapping[str, PredicateSym], scales: ScaleRegistry | None = None
) -> LogicalForm:
    """Build a form; with ``scales``, reject an ``only`` over an unscaled quantifier."""
    if isinstance(node, SAtom):
        raise ParseError(
            f"expected a logical form, got bare atom {node.text!r}", node.line, node.col
        )
    if not node.items:
        raise ParseError("empty logical form", node.line, node.col)
    head = _expect_atom(node.items[0], "a form keyword or quantifier")
    if head.text in _QUANTS:
        if len(node.items) != 3:
            raise ParseError(
                f"a {head.text!r} clause takes a restrictor and a scope",
                node.line,
                node.col,
            )
        restrictor = _lookup(preds, node.items[1])
        scope = _build_pexpr(node.items[2], preds)
        return Quant(_QUANTS[head.text], restrictor, scope)
    if head.text == "only":
        if len(node.items) != 2:
            raise ParseError("only takes exactly one clause", node.line, node.col)
        try:
            only = Only(_build_lf(node.items[1], preds, scales))
        except WellFormednessError as exc:
            raise ParseError(str(exc), node.line, node.col) from None
        q = only.body.quantifier
        if scales is not None and scales.scale_for(q) is None:
            msg = f"only requires {q.value!r} to belong to a declared scale"
            raise ParseError(msg, node.line, node.col)
        return only
    if head.text == "not":
        if len(node.items) != 2:
            raise ParseError("not takes exactly one form", node.line, node.col)
        return NotLF(_build_lf(node.items[1], preds, scales))
    if head.text == "and":
        if len(node.items) != 3:
            raise ParseError("and takes exactly two forms", node.line, node.col)
        return AndLF(*(_build_lf(item, preds, scales) for item in node.items[1:]))
    if head.text == "or":
        if len(node.items) < 2:
            raise ParseError("or takes at least one form", node.line, node.col)
        return OrLF(tuple(_build_lf(item, preds, scales) for item in node.items[1:]))
    raise ParseError(f"unknown quantifier or form {head.text!r}", head.line, head.col)


def _pred_table(preds: Iterable[PredicateSym] | Mapping[str, PredicateSym]) -> dict[str, PredicateSym]:
    if isinstance(preds, Mapping):
        return dict(preds)
    return {p.name: p for p in preds}


def parse_lf(text: str, preds: Iterable[PredicateSym] | Mapping[str, PredicateSym]) -> LogicalForm:
    """Parse a single formula against a table of declared predicates."""
    return _build_lf(read_one(text), _pred_table(preds))


def parse_pexpr(text: str, preds: Iterable[PredicateSym] | Mapping[str, PredicateSym]) -> PredExpr:
    """Parse a single predicate expression (scope fragment)."""
    return _build_pexpr(read_one(text), _pred_table(preds))


def parse_predicate(text: str, preds: Iterable[PredicateSym] | Mapping[str, PredicateSym]) -> PredicateSym:
    """Parse the name of a declared predicate."""
    return _lookup(_pred_table(preds), read_one(text))


# Traces and reports render the same few forms many times over.
@lru_cache(maxsize=4096)
def render_pexpr(p: PredExpr) -> str:
    if isinstance(p, Atom):
        return p.pred.name
    if isinstance(p, TruePred):
        return "true"
    if isinstance(p, NotP):
        return f"(not {render_pexpr(p.body)})"
    if isinstance(p, AndConc):
        return f"(and-conc {render_pexpr(p.left)} {render_pexpr(p.right)})"
    if isinstance(p, AndSeq):
        return f"(and-seq {render_pexpr(p.left)} {render_pexpr(p.right)})"
    raise TypeError(f"not a predicate expression: {p!r}")


@lru_cache(maxsize=4096)
def render_lf(lf: LogicalForm) -> str:
    """Canonical text for a logical form; parse_lf(render_lf(x)) is x.

    Certainty/possibility wrappers render as (know ...)/(poss ...) for
    reports and traces, but are not part of the input grammar.
    """
    if isinstance(lf, Quant):
        return f"({lf.quantifier.value} {lf.restrictor.name} {render_pexpr(lf.scope)})"
    if isinstance(lf, Only):
        return f"(only {render_lf(lf.body)})"
    if isinstance(lf, NotLF):
        return f"(not {render_lf(lf.body)})"
    if isinstance(lf, AndLF):
        return f"(and {render_lf(lf.left)} {render_lf(lf.right)})"
    if isinstance(lf, OrLF):
        return f"(or {' '.join(render_lf(d) for d in lf.disjuncts)})"
    if isinstance(lf, Know):
        return f"(know {render_lf(lf.body)})"
    if isinstance(lf, Poss):
        return f"(poss {render_lf(lf.body)})"
    raise TypeError(f"not a logical form: {lf!r}")


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario file: declarations, context, target and expectation."""

    name: str
    preds: tuple[PredicateSym, ...]
    target: LogicalForm
    max_universe: int = DEFAULT_BOUND
    scales: ScaleRegistry = field(default_factory=default_registry)
    common_knowledge: tuple[LogicalForm, ...] = ()
    discourse: tuple[LogicalForm, ...] = ()
    continuations: tuple[LogicalForm, ...] = ()
    enabled_theories: tuple[str, ...] = THEORY_NAMES
    expect: Verdict | None = None


_SECTION_ORDER = (
    "individuals",
    "predicates",
    "scales",
    "common-knowledge",
    "discourse",
    "target",
    "continuations",
    "theories",
    "expect",
)


def _split_sections(items: tuple[SNode, ...]) -> dict[str, SList]:
    sections: dict[str, SList] = {}
    cursor = 0
    for node in items:
        if not isinstance(node, SList) or not node.items:
            raise ParseError("expected a (section ...) form", node.line, node.col)
        head = _expect_atom(node.items[0], "a section name")
        if head.text not in _SECTION_ORDER:
            raise ParseError(f"unknown section {head.text!r}", head.line, head.col)
        index = _SECTION_ORDER.index(head.text)
        if head.text in sections:
            raise ParseError(f"duplicate section {head.text!r}", head.line, head.col)
        if index < cursor:
            raise ParseError(
                f"section {head.text!r} out of order", head.line, head.col
            )
        cursor = index
        sections[head.text] = node
    return sections


def _parse_predicates(section: SList) -> dict[str, PredicateSym]:
    preds: dict[str, PredicateSym] = {}
    for node in section.items[1:]:
        if not isinstance(node, SList) or len(node.items) != 2:
            raise ParseError(
                "each predicate declaration is (name :stative|:eventive)",
                node.line,
                node.col,
            )
        name = _ident(node.items[0], "a predicate name")
        klass = _expect_atom(node.items[1], "a temporal class")
        if klass.text not in (":stative", ":eventive"):
            raise ParseError(
                f"temporal class must be :stative or :eventive, got {klass.text!r}",
                klass.line,
                klass.col,
            )
        if name in preds:
            raise ParseError(f"duplicate predicate {name!r}", node.line, node.col)
        preds[name] = PredicateSym(name, klass.text[1:])
    if not preds:
        raise ParseError("at least one predicate declaration required", section.line, section.col)
    return preds


def _parse_scales(section: SList) -> ScaleRegistry:
    scales = []
    for node in section.items[1:]:
        if not isinstance(node, SList) or not node.items:
            raise ParseError("each scale is a list of quantifiers", node.line, node.col)
        members = []
        for item in node.items:
            atom = _expect_atom(item, "a quantifier")
            if atom.text not in _QUANTS:
                raise ParseError(f"unknown quantifier {atom.text!r}", atom.line, atom.col)
            members.append(_QUANTS[atom.text])
        try:
            scales.append(Scale(tuple(members)))
        except ScaleError as exc:
            raise ParseError(str(exc), node.line, node.col) from None
    if not scales:
        raise ParseError("at least one scale required in (scales ...)", section.line, section.col)
    return ScaleRegistry(tuple(scales))


def _minimal_inconsistent_subset(
    facts: tuple[LogicalForm, ...], preds, bound, scales
) -> tuple[LogicalForm, ...] | None:
    if len(facts) > 8:
        return None
    for size in range(1, len(facts) + 1):
        for subset in combinations(facts, size):
            if not consistent(subset, preds, bound, scales):
                return subset
    return None


def parse_scenario(text: str, source: str = "<scenario>", bound: int | None = None) -> Scenario:
    """Parse and fully validate one (scenario ...) form.

    ``bound``, when given, replaces the scenario's model-size bound (its
    ``(individuals N)`` or the default), and every check runs at it.
    """
    root = read_one(text)
    if not isinstance(root, SList) or not root.items:
        raise ParseError("expected a (scenario ...) form", root.line, root.col)
    head = _expect_atom(root.items[0], "the scenario keyword")
    if head.text != "scenario":
        raise ParseError(f"expected 'scenario', got {head.text!r}", head.line, head.col)
    if len(root.items) < 2:
        raise ParseError("scenario needs a name", root.line, root.col)
    name = _ident(root.items[1], "a scenario name")
    sections = _split_sections(tuple(root.items[2:]))

    if "predicates" not in sections:
        raise ParseError("missing (predicates ...) section", root.line, root.col)
    preds = _parse_predicates(sections["predicates"])

    max_universe = DEFAULT_BOUND
    if "individuals" in sections:
        node = sections["individuals"]
        if len(node.items) != 2:
            raise ParseError("(individuals N) takes one number", node.line, node.col)
        atom = _expect_atom(node.items[1], "a positive integer")
        if not (atom.text.isascii() and atom.text.isdigit()) or not atom.text.strip("0"):
            raise ParseError(
                f"individuals must be a positive integer, got {atom.text!r}",
                atom.line,
                atom.col,
            )
        try:
            max_universe = int(atom.text)
        except ValueError:  # past the interpreter's limit on digits to convert
            raise ParseError(
                f"individuals has too many digits ({len(atom.text)})", atom.line, atom.col
            ) from None
    if bound is not None:
        max_universe = bound
    try:
        check_budget(max_universe, len(preds))
    except ResourceBudgetError as exc:
        # Point at the clause that set the bound, else at the predicates.
        node = sections["predicates"]
        if bound is None:
            node = sections.get("individuals", node)
        raise ParseError(str(exc), node.line, node.col) from None

    scales = _parse_scales(sections["scales"]) if "scales" in sections else default_registry()

    def lf_list(section_name: str) -> tuple[LogicalForm, ...]:
        if section_name not in sections:
            return ()
        return tuple(_build_lf(item, preds, scales) for item in sections[section_name].items[1:])

    common_knowledge = lf_list("common-knowledge")
    discourse = lf_list("discourse")

    if "target" not in sections:
        raise ParseError("missing (target LF) section", root.line, root.col)
    target_node = sections["target"]
    if len(target_node.items) != 2:
        raise ParseError("(target LF) takes exactly one form", target_node.line, target_node.col)
    target = _build_lf(target_node.items[1], preds, scales)

    continuations = lf_list("continuations")

    enabled = THEORY_NAMES
    if "theories" in sections:
        node = sections["theories"]
        picked = []
        for item in node.items[1:]:
            atom = _expect_atom(item, "a theory name")
            if atom.text not in THEORY_NAMES:
                raise ParseError(f"unknown theory {atom.text!r}", atom.line, atom.col)
            if atom.text not in picked:
                picked.append(atom.text)
        if not picked:
            raise ParseError("(theories ...) needs at least one name", node.line, node.col)
        enabled = tuple(picked)

    expect = None
    if "expect" in sections:
        node = sections["expect"]
        if len(node.items) != 2:
            raise ParseError("(expect odd|felicitous) takes one verdict", node.line, node.col)
        atom = _expect_atom(node.items[1], "a verdict")
        if atom.text not in ("odd", "felicitous"):
            raise ParseError(
                f"expect must be odd or felicitous, got {atom.text!r}", atom.line, atom.col
            )
        expect = Verdict(atom.text)

    pred_tuple = tuple(preds.values())
    facts = common_knowledge + discourse
    if not consistent(facts, pred_tuple, max_universe, scales):
        culprit = _minimal_inconsistent_subset(facts, pred_tuple, max_universe, scales)
        detail = (
            " minimal inconsistent subset: " + "; ".join(render_lf(f) for f in culprit)
            if culprit
            else ""
        )
        raise ScenarioError(
            f"{source}: common knowledge and discourse of {name!r} are jointly"
            f" inconsistent at bound {max_universe}.{detail}"
        )
    if continuations and not consistent(facts + (target,), pred_tuple, max_universe, scales):
        node = sections["continuations"]
        raise ParseError(
            f"continuations need a target the context admits, but {render_lf(target)}"
            f" contradicts common knowledge and discourse at bound {max_universe}",
            node.line,
            node.col,
        )

    return Scenario(
        name=name,
        preds=pred_tuple,
        target=target,
        max_universe=max_universe,
        scales=scales,
        common_knowledge=common_knowledge,
        discourse=discourse,
        continuations=continuations,
        enabled_theories=enabled,
        expect=expect,
    )
