"""A deterministic small-scope sweep through the benchmark's reference checker.

Most faults show up on small inputs (the small-scope hypothesis: Jackson,
*Software Abstractions*, 2006). So this module builds every scenario of one
fixed slice in code, with no randomness, judges each one that parses, and
hands it to ``perfbench/checks.py::judgment_failures``. That checker shares
no code with ``felicity.logic``: it re-decides every trace step with its
own oracle, replays each step, round-trips the JSON report and checks the
continuation verdicts.

The slice, over ``a`` and ``b`` (stative) and ``c`` (eventive):

- 114 targets: ``some``, ``all``, ``most`` and ``no`` over ``a`` with six
  scopes; ``only`` over ``some``, ``most`` and ``all`` with three scopes;
  the negation of each of 9 small clauses; every pairwise ``or`` and
  ``and`` of those 9;
- 12 contexts (``_CONTEXTS``), with common knowledge, discourse or both,
  and each with and without two continuations;
- three scale settings, each at its own bound: the default scale at 3,
  ``(some all)`` at 4, and ``(some most) (all)`` at 2.

That is 2,736 scenarios per setting; 2,453, 2,402 and 2,433 of them parse.
The sweep takes about 6 s in all (Python 3.11.7, one core of a shared
2-vCPU host).

Every failure is an ``exh`` reason: ``alternatives.exh`` negates each
stronger alternative on its own, with no innocent exclusion, and on these
disjunctions the negations contradict the prejacent. ``_PINNED`` lists the
failing scenarios, keyed on scenario, not on the checker's text; in this
slice a continuation never changes whether one fails. Innocent exclusion
in ``exh`` must empty it.

Bound sensitivity, measured over the same slice and not gated here: each
scenario's verdict signature (aggregate, and each theory's verdict and
mechanism) at its setting's bound against bound 8. On the default scale
at bound 3, 4 of 2,453 differ; on ``(some all)`` at bound 4, none of
2,402; on ``(some most) (all)`` at bound 2, 145 of 2,433 differ and 23
more scenarios parse at one of the two bounds only. Every difference needs
``most``, whose truth depends on how many individuals a cell holds.
"""

from __future__ import annotations

import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from checks import judgment_failures  # noqa: E402

from felicity import (  # noqa: E402
    FelicityError,
    build_report,
    judge,
    parse_scenario,
    render_report,
)

_SCOPES = ("b", "c", "(not b)", "(and-conc b c)", "(and-seq c c)", "true")
_SMALL = (
    "(some a b)", "(all a b)", "(most a b)", "(no a b)", "(some a c)",
    "(all a (not b))", "(some b c)", "(only (some a b))", "(some a (and-conc b c))",
)


def _targets() -> list[str]:
    out = [f"({q} a {s})" for q in ("some", "all", "most", "no") for s in _SCOPES]
    out += [
        f"(only ({q} a {s}))" for q in ("some", "most", "all") for s in ("b", "c", "(and-conc b c)")
    ]
    out += [f"(not {x})" for x in _SMALL]
    for x, y in combinations(_SMALL, 2):
        out += [f"(or {x} {y})", f"(and {x} {y})"]
    return out


# (common knowledge, discourse); _PINNED names a context by its index here.
_CONTEXTS = (
    ((), ()),
    (("(some a b)",), ()),
    (("(all a b)",), ()),
    (("(no a b)",), ()),
    (("(most a b)",), ()),
    (("(some a (not b))",), ()),
    ((), ("(some a b)",)),
    ((), ("(not (all a b))",)),
    ((), ("(all a c)",)),
    ((), ("(some b c)",)),
    (("(some a c)",), ("(some a b)",)),
    (("(all a b)",), ("(some a c)",)),
)
_CONTINUATIONS = ("(all a b)", "(some a (not b))")
# Each setting's (scales ...) section, empty for the default, and bound.
_SETTINGS = {
    "default": ("", 3),
    "some-all": ("(scales (some all))", 4),
    "some-most/all": ("(scales (some most) (all))", 2),
}


def _every_context_but(*skipped: int) -> frozenset[int]:
    return frozenset(range(len(_CONTEXTS))) - set(skipped)


_OR_SOME_AB_SOME_AC = _every_context_but(6, 8, 10, 11)
_OR_SOME_AB_SOME_BC = _every_context_but(6, 9, 10)
_OR_SOME_AC_SOME_BC = _every_context_but(8, 9, 11)
# (setting, target) -> the contexts in which it fails, with or without
# continuations wherever that scenario parses.
_PINNED = {
    ("default", "(or (some a b) (some a c))"): _OR_SOME_AB_SOME_AC,
    ("default", "(or (some a b) (some b c))"): _OR_SOME_AB_SOME_BC,
    ("default", "(or (some a c) (some b c))"): _OR_SOME_AC_SOME_BC,
    ("default", "(or (some a b) (only (some a b)))"): _every_context_but(),
    ("default", "(or (most a b) (only (some a b)))"): _every_context_but(),
    ("default", "(or (most a b) (some a (and-conc b c)))"): _every_context_but(),
    ("default", "(or (most a b) (some a c))"): _every_context_but(8, 11),
    ("default", "(or (most a b) (some b c))"): _every_context_but(9),
    ("some-all", "(or (some a b) (some a c))"): _OR_SOME_AB_SOME_AC,
    ("some-all", "(or (some a b) (some b c))"): _OR_SOME_AB_SOME_BC,
    ("some-all", "(or (some a c) (some b c))"): _OR_SOME_AC_SOME_BC,
    ("some-most/all", "(or (some a b) (some a c))"): _OR_SOME_AB_SOME_AC,
    ("some-most/all", "(or (some a c) (some b c))"): _OR_SOME_AC_SOME_BC,
}


def _text(setting: str, target: str, context: int, continuations: bool) -> str:
    scales, bound = _SETTINGS[setting]
    ck, discourse = _CONTEXTS[context]
    parts = [
        "(scenario slice",
        f"(individuals {bound})",
        "(predicates (a :stative) (b :stative) (c :eventive))",
        scales,
        f"(common-knowledge {' '.join(ck)})" if ck else "",
        f"(discourse {' '.join(discourse)})" if discourse else "",
        f"(target {target})",
        f"(continuations {' '.join(_CONTINUATIONS)})" if continuations else "",
    ]
    return " ".join(part for part in parts if part) + ")"


def _sweep(setting: str) -> tuple[set, dict]:
    """The keys of the scenarios of a setting that parse, and the failures
    of each one that fails."""
    parsed, failing = set(), {}
    for target in _targets():
        for context in range(len(_CONTEXTS)):
            for continuations in (False, True):
                key = (setting, target, context, continuations)
                try:
                    scenario = parse_scenario(_text(*key))
                except FelicityError:
                    continue
                parsed.add(key)
                judgment = judge(scenario)
                report = build_report(scenario.name, judgment)
                fails = judgment_failures(scenario, judgment, report, render_report(report, "json"))
                if fails:
                    failing[key] = fails
    return parsed, failing


def test_every_judgment_of_the_slice_passes_the_reference_checker_but_known_exh_faults():
    assert len(set(_targets())) == 114
    parsed, failing = set(), {}
    for setting in _SETTINGS:
        more_parsed, more_failing = _sweep(setting)
        parsed |= more_parsed
        failing.update(more_failing)
    counts = {s: sum(1 for key in parsed if key[0] == s) for s in _SETTINGS}
    assert counts == {"default": 2453, "some-all": 2402, "some-most/all": 2433}
    other = {}
    for key, fails in failing.items():
        reasons = [r for r in fails if not r.startswith("exh output")]
        if reasons:
            other[key] = reasons
    assert other == {}
    pinned = {
        (setting, target, context, continuations)
        for (setting, target), contexts in _PINNED.items()
        for context in contexts
        for continuations in (False, True)
        if (setting, target, context, continuations) in parsed
    }
    assert set(failing) == pinned
