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

from collections.abc import Iterable, Mapping
from itertools import combinations

from .alternatives import ALTERNATIVE_BUDGET, alternative_count
from .context import Verdict
from .logic import DEFAULT_BOUND, check_budget, consistent
from .syntax import (
    AndConc,
    AndLF,
    AndSeq,
    Atom,
    EVENTIVE,
    FelicityError,
    LogicalForm,
    NotLF,
    NotP,
    Only,
    OrLF,
    PredExpr,
    PredicateSym,
    Quant,
    Quantifier,
    ResourceBudgetError,
    ScaleError,
    STATIVE,
    TRUE,
    TruePred,
    WellFormednessError,
    _IDENT_RE,
    _RESERVED,
    _intern,
    children,
    record,
)
from .scales import Scale, ScaleRegistry, default_registry
from .sexpr import SNode, TokenError, read_one

THEORY_NAMES = (
    "magri-blind",
    "presupposed-ignorance",
    "logical-integrity",
    "del-pinal",
    "indirect-contradiction",
)

_QUANTS = {q.value: q for q in Quantifier}
_TEMPORAL_WORDS = {":stative": STATIVE, ":eventive": EVENTIVE}


class ScenarioError(FelicityError):
    """A scenario parsed but failed semantic validation."""


def _expect_atom(node: SNode, tokens: list[str], what: str) -> str:
    if type(node) is not int:
        raise TokenError(f"expected {what}, got a list", node)
    return tokens[node]


def _is_ident(text: str) -> bool:
    return bool(_IDENT_RE.match(text)) and text not in _RESERVED


def _ident(node: SNode, tokens: list[str], what: str = "an identifier") -> str:
    text = _expect_atom(node, tokens, what)
    if not _is_ident(text):
        raise TokenError(f"expected {what}, got {text!r}", node)
    return text


def _lookup(node: SNode, tokens: list[str], preds: Mapping[str, PredicateSym]) -> PredicateSym:
    """The checked path for a predicate name: the builders first try a bare
    ``preds.get`` on an atom's text, which is enough because every key of
    the table is an identifier (see ``_pred_table``), and come here with
    anything that lookup does not resolve."""
    name = _ident(node, tokens, "a predicate name")
    try:
        return preds[name]
    except KeyError:
        raise TokenError(f"undeclared predicate {name!r}", node) from None


def _build_pexpr(node: SNode, tokens: list[str], preds: Mapping[str, PredicateSym]) -> PredExpr:
    if type(node) is int:
        text = tokens[node]
        if text == "true":
            return TRUE
        pred = preds.get(text)
        if pred is None:
            pred = _lookup(node, tokens, preds)
        return _intern(Atom, pred)
    if len(node) == 1:
        raise TokenError("empty predicate expression", node)
    # The head is read inline, as _expect_atom would read it.
    head = node[1]
    if type(head) is not int:
        raise TokenError("expected a predicate operator, got a list", head)
    head = tokens[head]
    if head == "not":
        if len(node) != 3:
            raise TokenError("not takes exactly one operand", node)
        return _intern(NotP, _build_pexpr(node[2], tokens, preds))
    if head in ("and-conc", "and-seq"):
        if len(node) != 4:
            raise TokenError(f"{head} takes exactly two operands", node)
        left = _build_pexpr(node[2], tokens, preds)
        right = _build_pexpr(node[3], tokens, preds)
        if head == "and-conc":
            return _intern(AndConc, left, right)
        try:
            return _intern(AndSeq, left, right)
        except WellFormednessError as exc:
            raise TokenError(str(exc), node) from None
    raise TokenError(f"unknown predicate operator {head!r}", node[1])


def _build_lf(
    node: SNode,
    tokens: list[str],
    preds: Mapping[str, PredicateSym],
    scales: ScaleRegistry | None = None,
) -> LogicalForm:
    """Build a form; with ``scales``, reject an ``only`` over an unscaled quantifier."""
    if type(node) is int:
        raise TokenError(f"expected a logical form, got bare atom {tokens[node]!r}", node)
    if len(node) == 1:
        raise TokenError("empty logical form", node)
    head = node[1]
    if type(head) is not int:
        raise TokenError("expected a form keyword or quantifier, got a list", head)
    head = tokens[head]
    quantifier = _QUANTS.get(head)
    if quantifier is not None:
        if len(node) != 4:
            raise TokenError(f"a {head!r} clause takes a restrictor and a scope", node)
        name = node[2]
        restrictor = preds.get(tokens[name]) if type(name) is int else None
        if restrictor is None:
            restrictor = _lookup(name, tokens, preds)
        return _intern(Quant, quantifier, restrictor, _build_pexpr(node[3], tokens, preds))
    if head == "only":
        if len(node) != 3:
            raise TokenError("only takes exactly one clause", node)
        try:
            only = _intern(Only, _build_lf(node[2], tokens, preds, scales))
        except WellFormednessError as exc:
            raise TokenError(str(exc), node) from None
        q = only.body.quantifier
        if scales is not None and scales.scale_for(q) is None:
            raise TokenError(f"only requires {q.value!r} to belong to a declared scale", node)
        return only
    if head == "not":
        if len(node) != 3:
            raise TokenError("not takes exactly one form", node)
        return _intern(NotLF, _build_lf(node[2], tokens, preds, scales))
    if head == "and":
        if len(node) != 4:
            raise TokenError("and takes exactly two forms", node)
        return _intern(
            AndLF,
            _build_lf(node[2], tokens, preds, scales),
            _build_lf(node[3], tokens, preds, scales),
        )
    if head == "or":
        if len(node) < 3:
            raise TokenError("or takes at least one form", node)
        return _intern(OrLF, tuple([_build_lf(item, tokens, preds, scales) for item in node[2:]]))
    raise TokenError(f"unknown quantifier or form {head!r}", node[1])


def _pred_table(preds: Iterable[PredicateSym] | Mapping[str, PredicateSym]) -> dict[str, PredicateSym]:
    """The table a parse looks predicate names up in. It keeps only the keys
    that ``_ident`` accepts, so a name found by a bare lookup is a valid
    identifier; any other name misses and gets ``_lookup``'s message."""
    items = preds.items() if isinstance(preds, Mapping) else ((p.name, p) for p in preds)
    return {name: p for name, p in items if isinstance(name, str) and _is_ident(name)}


def _parse(text: str, build, *args):
    """Read one form from text and build it; place any error in the text."""
    tokens, node = read_one(text)
    try:
        return build(node, tokens, *args)
    except TokenError as exc:
        raise exc.place(text) from None


def parse_lf(text: str, preds: Iterable[PredicateSym] | Mapping[str, PredicateSym]) -> LogicalForm:
    """Parse a single formula against a table of declared predicates."""
    return _parse(text, _build_lf, _pred_table(preds))


def parse_pexpr(text: str, preds: Iterable[PredicateSym] | Mapping[str, PredicateSym]) -> PredExpr:
    """Parse a single predicate expression (scope fragment)."""
    return _parse(text, _build_pexpr, _pred_table(preds))


def parse_predicate(text: str, preds: Iterable[PredicateSym] | Mapping[str, PredicateSym]) -> PredicateSym:
    """Parse the name of a declared predicate."""
    return _parse(text, _lookup, _pred_table(preds))


def render_lf(node: LogicalForm | PredExpr) -> str:
    """Canonical text for a logical form or a predicate expression;
    parse_lf(render_lf(x)) is x, and so is parse_pexpr(render_lf(x)).

    A clause renders as (quantifier restrictor scope), an atom as its
    predicate's name, and every other node as (keyword operand...). Traces
    and reports render the same few forms many times over, so a node's
    text is built on its first call and then kept on it, as ``node_facts``
    keeps its facts.
    """
    text = getattr(node, "_text", None)
    if text is not None:
        return text
    cls = type(node)
    if cls is Quant:
        text = f"({node.quantifier.value} {node.restrictor.name} {render_lf(node.scope)})"
    elif cls is Atom:
        text = node.pred.name
    elif cls is TruePred:
        text = cls.keyword
    else:
        keyword = getattr(cls, "keyword", None)
        if keyword is None:
            raise TypeError(f"not a logical form or predicate expression: {node!r}")
        text = f"({keyword} {' '.join(map(render_lf, children(node)))})"
    object.__setattr__(node, "_text", text)
    return text


render_pexpr = render_lf


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


class Scenario(record(
    "Scenario",
    "name preds target max_universe scales common_knowledge discourse continuations"
    " enabled_theories expect",
    (DEFAULT_BOUND, None, (), (), (), THEORY_NAMES, None),
)):
    """A parsed scenario file: declarations, context, target and expectation.
    ``scales`` defaults to ``default_registry()``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        return self if self.scales is not None else self._replace(scales=default_registry())


# Each section's place in the order the sections must follow.
_SECTION_INDEX = {
    name: i
    for i, name in enumerate((
        "individuals",
        "predicates",
        "scales",
        "common-knowledge",
        "discourse",
        "target",
        "continuations",
        "theories",
        "expect",
    ))
}


def _split_sections(items: list[SNode], tokens: list[str]) -> dict[str, list]:
    sections: dict[str, list] = {}
    cursor = 0
    for node in items:
        if type(node) is int or len(node) == 1:
            raise TokenError("expected a (section ...) form", node)
        head = node[1]
        if type(head) is not int:
            raise TokenError("expected a section name, got a list", head)
        head = tokens[head]
        index = _SECTION_INDEX.get(head)
        if index is None:
            raise TokenError(f"unknown section {head!r}", node[1])
        if head in sections:
            raise TokenError(f"duplicate section {head!r}", node[1])
        if index < cursor:
            raise TokenError(f"section {head!r} out of order", node[1])
        cursor = index
        sections[head] = node
    return sections


def _parse_predicates(section: list, tokens: list[str]) -> dict[str, PredicateSym]:
    preds: dict[str, PredicateSym] = {}
    for node in section[2:]:
        if type(node) is int or len(node) != 3:
            raise TokenError("each predicate declaration is (name :stative|:eventive)", node)
        name = _ident(node[1], tokens, "a predicate name")
        klass = _expect_atom(node[2], tokens, "a temporal class")
        temporal_class = _TEMPORAL_WORDS.get(klass)
        if temporal_class is None:
            raise TokenError(
                f"temporal class must be :stative or :eventive, got {klass!r}", node[2]
            )
        if name in preds:
            raise TokenError(f"duplicate predicate {name!r}", node)
        preds[name] = _intern(PredicateSym, name, temporal_class)
    if not preds:
        raise TokenError("at least one predicate declaration required", section)
    return preds


def _parse_scales(section: list, tokens: list[str]) -> ScaleRegistry:
    scales = []
    earlier = set()  # the members of the scales before this one
    for node in section[2:]:
        if type(node) is int or len(node) == 1:
            raise TokenError("each scale is a list of quantifiers", node)
        members = []
        for item in node[1:]:
            quant = _expect_atom(item, tokens, "a quantifier")
            q = _QUANTS.get(quant)
            if q is None:
                raise TokenError(f"unknown quantifier {quant!r}", item)
            if q in earlier:
                raise TokenError(f"{quant!r} is already on an earlier scale", node)
            members.append(q)
        try:
            scale = _intern(Scale, tuple(members))
        except ScaleError as exc:
            raise TokenError(str(exc), node) from None
        scales.append(scale)
        earlier.update(scale.members)
    if not scales:
        raise TokenError("at least one scale required in (scales ...)", section)
    return _intern(ScaleRegistry, tuple(scales))


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
    ``(individuals N)`` or the default), and every check runs at it. It
    must be an ``int`` of at least 1; anything else is a ScenarioError.
    """
    if bound is not None and (type(bound) is not int or bound < 1):
        raise ScenarioError(f"{source}: bound must be an integer >= 1, got {bound!r}")
    return _parse(text, _build_scenario, source, bound)


def _build_scenario(root: SNode, tokens: list[str], source: str, bound: int | None) -> Scenario:
    if type(root) is int or len(root) == 1:
        raise TokenError("expected a (scenario ...) form", root)
    head = _expect_atom(root[1], tokens, "the scenario keyword")
    if head != "scenario":
        raise TokenError(f"expected 'scenario', got {head!r}", root[1])
    if len(root) < 3:
        raise TokenError("scenario needs a name", root)
    name = _ident(root[2], tokens, "a scenario name")
    sections = _split_sections(root[3:], tokens)

    if "predicates" not in sections:
        raise TokenError("missing (predicates ...) section", root)
    preds = _parse_predicates(sections["predicates"], tokens)

    max_universe = DEFAULT_BOUND
    if "individuals" in sections:
        node = sections["individuals"]
        if len(node) != 3:
            raise TokenError("(individuals N) takes one number", node)
        digits = _expect_atom(node[2], tokens, "a positive integer")
        if not (digits.isascii() and digits.isdigit()) or not digits.strip("0"):
            raise TokenError(f"individuals must be a positive integer, got {digits!r}", node[2])
        try:
            max_universe = int(digits)
        except ValueError:  # past the interpreter's limit on digits to convert
            raise TokenError(f"individuals has too many digits ({len(digits)})", node[2]) from None
    if bound is not None:
        max_universe = bound
    try:
        check_budget(max_universe, len(preds))
    except ResourceBudgetError as exc:
        # Point at the clause that set the bound, else at the predicates.
        node = sections["predicates"]
        if bound is None:
            node = sections.get("individuals", node)
        raise TokenError(str(exc), node) from None

    scales = (
        _parse_scales(sections["scales"], tokens) if "scales" in sections else default_registry()
    )

    def lf_list(section_name: str) -> tuple[LogicalForm, ...]:
        if section_name not in sections:
            return ()
        return tuple(_build_lf(item, tokens, preds, scales) for item in sections[section_name][2:])

    common_knowledge = lf_list("common-knowledge")
    discourse = lf_list("discourse")

    if "target" not in sections:
        raise TokenError("missing (target LF) section", root)
    target_node = sections["target"]
    if len(target_node) != 3:
        raise TokenError("(target LF) takes exactly one form", target_node)
    target = _build_lf(target_node[2], tokens, preds, scales)
    if alternative_count(target, scales) > ALTERNATIVE_BUDGET:
        raise TokenError(
            f"target has more than {ALTERNATIVE_BUDGET} scalar alternatives", target_node
        )

    continuations = lf_list("continuations")

    enabled = THEORY_NAMES
    if "theories" in sections:
        node = sections["theories"]
        picked = []
        for item in node[2:]:
            theory = _expect_atom(item, tokens, "a theory name")
            if theory not in THEORY_NAMES:
                raise TokenError(f"unknown theory {theory!r}", item)
            if theory not in picked:
                picked.append(theory)
        if not picked:
            raise TokenError("(theories ...) needs at least one name", node)
        enabled = tuple(picked)

    expect = None
    if "expect" in sections:
        node = sections["expect"]
        if len(node) != 3:
            raise TokenError("(expect odd|felicitous) takes one verdict", node)
        verdict = _expect_atom(node[2], tokens, "a verdict")
        if verdict not in ("odd", "felicitous"):
            raise TokenError(f"expect must be odd or felicitous, got {verdict!r}", node[2])
        expect = Verdict(verdict)

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
        raise TokenError(
            f"continuations need a target the context admits, but {render_lf(target)}"
            f" contradicts common knowledge and discourse at bound {max_universe}",
            sections["continuations"],
        )

    # Every field is bound and scales is set, so Scenario.__new__ would
    # change nothing; tuple.__new__ skips its keyword binding.
    return tuple.__new__(
        Scenario,
        (name, pred_tuple, target, max_universe, scales, common_knowledge, discourse,
         continuations, enabled, expect),
    )
