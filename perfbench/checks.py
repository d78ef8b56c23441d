"""Checks on the program's outputs, made apart from the program.

Nothing here compares against a stored copy of earlier output. A judgment
is checked by properties (aggregate against fired theories, trace replay,
JSON round trip, exh consistency), by the reference oracle re-deciding
every entailment or consistency verdict its trace records, and, for the
shipped fixtures, by the paper's judgment table.
"""

from __future__ import annotations

import json

import felicity
from felicity import Verdict, render_lf, replay_step, report_from_dict

from reforacle import Reference, read, restrictors, write
from worker import context_of

ODD, FELICITOUS = "odd", "felicitous"
INDIRECT = "indirect-contextual-contradiction"

# The paper's judgment table (README "Fixtures"): aggregate, the mechanisms
# that must fire, whether they are the only ones, the reading where the
# table names one, and the continuation verdicts.
PAPER_TABLE = {
    "magri-1": (ODD, {"mismatching-SI"}, False, None, ()),
    "magri-3": (ODD, {"direct-contextual-contradiction"}, False, None, ()),
    "magri-4": (ODD, {INDIRECT}, True, None, ()),
    "magri-5": (FELICITOUS, set(), True, None, ()),
    "magri-6": (FELICITOUS, set(), True, None, ()),
    "magri-13": (ODD, {INDIRECT}, True, None, (FELICITOUS, ODD)),
    "magri-14": (ODD, {"mismatching-SI"}, False, "distributive-sentential", ()),
    "magri-15": (FELICITOUS, set(), True, None, ()),
    "magri-16": (ODD, {INDIRECT}, True, None, ()),
    "magri-17": (FELICITOUS, set(), True, "sequenced-split", ()),
}

EXH_FAULT = "exh output inconsistent although its prejacent is consistent"
# Fault (a): the fixed input that trips it, and the one reason it must fail with.
KNOWN_FAULTS = {"fault-or-exh": [EXH_FAULT]}

_references: dict[tuple, Reference] = {}


def reference_for(scenario) -> Reference:
    key = (tuple(p.name for p in scenario.preds), scenario.max_universe,
           tuple(tuple(q.value for q in s.members) for s in scenario.scales.scales))
    if key not in _references:
        _references[key] = Reference(key[0], key[1], key[2])
    return _references[key]


def _items(output: str) -> list[str]:
    return [] if output == "(none)" else output.split("; ")


def _word(flag: bool, yes: str, no: str) -> str:
    return yes if flag else no


class _StepChecker:
    """Re-decides oracle verdicts of trace steps with the reference oracle."""

    def __init__(self, scenario, ref: Reference):
        self.ref = ref
        self.ck = [render_lf(f) for f in scenario.common_knowledge]
        self.discourse = [render_lf(f) for f in scenario.discourse]
        self.facts = self.ck + self.discourse
        names = sorted({r for f in self.discourse for r in restrictors(read(f))})
        self.said = self.discourse + [f"(some {r} true)" for r in names]
        self.alternatives: dict[str, list[str]] = {}
        self.pruned: dict[str, list[str]] = {}

    def settled(self, form: str) -> bool:
        return (self.ref.entails(self.said, form)
                or self.ref.entails(self.said, f"(not {form})"))

    def expected(self, rule: str, inputs, output: str) -> str | None:
        """The output the rule must give, or None if it decides nothing."""
        ref, i = self.ref, inputs
        if rule in ("ck-consistency", "assertion-consistency"):
            return _word(ref.consistent(self.ck + [i[0]]), "consistent", "inconsistent")
        if rule == "presupposition-update":
            return _word(ref.consistent(self.ck + [i[0], i[1]]), "consistent", "inconsistent")
        if rule == "presup-strength":
            strict = ref.entails([i[0]], i[1]) and not ref.entails([i[1]], i[0])
            return _word(strict, "strictly-stronger", "not-stronger")
        if rule == "contextual-entailment":
            return _word(ref.entails(self.facts, i[0]), "entailed", "not-entailed")
        if rule == "clash-check":
            return _word(ref.entails(self.facts, i[0]), "certain in context: contradiction",
                         "not certain: no clash")
        if rule == "logical-entailment":
            return _word(ref.entails([i[0]], i[1], True), "entailed", "not-entailed")
        if rule == "hypothetical-entailment":
            return _word(ref.entails(self.facts + [i[0]], i[1]), "entailed", "not-entailed")
        if rule == "expansion-licensed":
            return _word(ref.entails([i[0]], i[1]), "entailed", "not-entailed")
        if rule == "alternatives":
            forms = [item.split(" ", 1)[1] for item in _items(output)]
            self.alternatives[i[0]] = forms
            tagged = [f"{self.tag(form, i[0])} {form}" for form in forms]
            return "; ".join(tagged) if tagged else "(none)"
        if rule == "prune-settled":
            kept = [a for a in self.alternatives.get(i[0], []) if not self.settled(a)]
            self.pruned[i[0]] = kept
            tagged = [f"{self.tag(form, i[0])} {form}" for form in kept]
            return "; ".join(tagged) if tagged else "(none)"
        if rule == "ignorance":
            disjuncts = [write(d) for d in read(i[0])[1:]]
            live = [f"(not (know {d}))" for d in disjuncts
                    if not ref.entails([i[0]], d, True) and not self.settled(d)]
            return "; ".join(live) if live else "(none)"
        return None

    def tag(self, form: str, origin: str) -> str:
        up = self.ref.entails([form], origin, True)
        down = self.ref.entails([origin], form, True)
        return "stronger" if up and not down else "weaker" if down and not up else "incomparable"

    def exh_failures(self, prejacent: str, output: str) -> list[str]:
        ref = self.ref
        out = []
        expected = ref.truth(prejacent)
        for alt in self.pruned.get(prejacent, []):
            if self.tag(alt, prejacent) == "stronger" and ref.consistent([prejacent, f"(not {alt})"]):
                expected &= ~ref.truth(alt)
        if ref.truth(output) != expected:
            out.append(f"exh output {output} differs from the negated stronger alternatives")
        if ref.consistent([prejacent]) and not ref.consistent([output]):
            out.append(EXH_FAULT)
        return out


def judgment_failures(scenario, judgment, report, js: str) -> list[str]:
    """Every failed property or reference check of one judgment."""
    fails = []
    fired = [v for v in judgment.theories if v.fired]
    if (judgment.aggregate is Verdict.ODD) != bool(fired):
        fails.append("aggregate is odd iff some theory fired: violated")
    if report_from_dict(json.loads(js)) != report:
        fails.append("JSON report does not round-trip")
    ctx = context_of(felicity, scenario)
    ref = reference_for(scenario)
    for verdict in judgment.theories:
        steps = _StepChecker(scenario, ref)
        for step in verdict.trace:
            if replay_step(step, ctx) != step.output:
                fails.append(f"{verdict.theory}: {step.rule} step does not replay")
            want = steps.expected(step.rule, step.inputs, step.output)
            if want is not None and want != step.output:
                fails.append(f"{verdict.theory}: {step.rule} {step.inputs} gave"
                             f" {step.output!r}, reference says {want!r}")
            if step.rule == "exh":
                fails += steps.exh_failures(step.inputs[0], step.output)
    facts = [render_lf(f) for f in scenario.common_knowledge + scenario.discourse]
    target = render_lf(scenario.target)
    for form, verdict in judgment.continuations:
        ok = ref.consistent(facts + [target, render_lf(form)])
        if verdict.value != _word(ok, FELICITOUS, ODD):
            fails.append(f"continuation {render_lf(form)} judged {verdict.value}")
    return fails


def update_failures(scenario, accepted: bool) -> list[str]:
    """A dialogue update must go through exactly when the reference allows it."""
    facts = [render_lf(f) for f in scenario.common_knowledge + scenario.discourse]
    ok = reference_for(scenario).consistent(facts + [render_lf(scenario.target)])
    if ok != accepted:
        return [f"update {'accepted' if accepted else 'rejected'}, reference says"
                f" {'consistent' if ok else 'contradictory'}"]
    return []


def fixture_failures(name: str, scenario, judgment) -> list[str]:
    """The fixture's label and the paper's table for it."""
    aggregate, mechanisms, exact, reading, continuations = PAPER_TABLE[name]
    got = {v.mechanism.value for v in judgment.theories if v.fired}
    fails = []
    if scenario.expect is None or judgment.aggregate is not scenario.expect:
        fails.append(f"aggregate {judgment.aggregate.value} differs from (expect ...)")
    if judgment.aggregate.value != aggregate:
        fails.append(f"aggregate {judgment.aggregate.value}, paper table says {aggregate}")
    if not mechanisms <= got or (exact and got != mechanisms):
        fails.append(f"fired {sorted(got)}, paper table names {sorted(mechanisms)}")
    if reading is not None and judgment.reading.value != reading:
        fails.append(f"reading {judgment.reading.value}, paper table says {reading}")
    got_cont = tuple(v.value for _, v in judgment.continuations)
    if got_cont != continuations:
        fails.append(f"continuations {got_cont}, paper table says {continuations}")
    return fails


def signature(judgment) -> tuple:
    """What must not change with the bound: verdicts and mechanisms."""
    return (judgment.aggregate.value,
            tuple((v.theory, v.verdict.value, v.mechanism.value) for v in judgment.theories),
            tuple(v.value for _, v in judgment.continuations))
