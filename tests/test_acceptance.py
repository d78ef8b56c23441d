"""Acceptance gate: the full judgment table and the engine-level guarantees.

Each criterion prints one PASS line once its assertions have gone through;
a failure surfaces as an ordinary pytest failure naming the criterion.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from felicity import (
    ALL,
    AndConc,
    AndLF,
    AndSeq,
    Atom,
    ContextState,
    Mechanism,
    MOST,
    NO,
    NotLF,
    NotP,
    Only,
    OrLF,
    PredicateSym,
    Quant,
    QI,
    SOME,
    TRUE,
    Verdict,
    consistent,
    entails,
    enumerate_models,
    evaluate,
    exh,
    judge,
    parse_lf,
    parse_scenario,
    prune_settled,
    render_lf,
    substitution_alternatives,
)
from felicity.cli import main as cli_main
from conftest import BLOND, ITALIAN, WARM

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SUITE = [
    "magri-1",
    "magri-3",
    "magri-4",
    "magri-5",
    "magri-6",
    "magri-13",
    "magri-14",
    "magri-15",
    "magri-16",
    "magri-17",
]


def _passed(text: str):
    print(f"PASS {text}")


def load(name: str):
    return parse_scenario((FIXTURES / f"{name}.sexp").read_text(), source=name)


def judgments():
    return {name: judge(load(name)) for name in SUITE}


def by_theory(judgment):
    return {v.theory: v for v in judgment.theories}


# ---------------------------------------------------------------------------
# Criterion 1: the judgment fixture suite
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def js():
    return judgments()


class TestCriterion1JudgmentSuite:

    def test_aggregates_match_labels(self, js):
        expected = {
            "magri-1": Verdict.ODD,
            "magri-3": Verdict.ODD,
            "magri-4": Verdict.ODD,
            "magri-5": Verdict.FELICITOUS,
            "magri-6": Verdict.FELICITOUS,
            "magri-13": Verdict.ODD,
            "magri-14": Verdict.ODD,
            "magri-15": Verdict.FELICITOUS,
            "magri-16": Verdict.ODD,
            "magri-17": Verdict.FELICITOUS,
        }
        got = {name: j.aggregate for name, j in js.items()}
        assert got == expected

    def test_bare_some_trips_blind_theory(self, js):
        v = by_theory(js["magri-1"])["magri-blind"]
        assert v.fired and v.mechanism is Mechanism.MISMATCHING_SI

    def test_overt_only_is_direct_contradiction(self, js):
        v = by_theory(js["magri-3"])["magri-blind"]
        assert v.fired and v.mechanism is Mechanism.DIRECT_CONTEXTUAL_CONTRADICTION

    def test_conjoined_only_fires_indirect_alone(self, js):
        theories = by_theory(js["magri-4"])
        assert theories["indirect-contradiction"].mechanism is (
            Mechanism.INDIRECT_CONTEXTUAL_CONTRADICTION
        )
        for silent in ("magri-blind", "logical-integrity", "del-pinal"):
            assert not theories[silent].fired, silent

    def test_continuations_after_conjoined_target(self, js):
        verdicts = [v for _, v in js["magri-13"].continuations]
        assert verdicts == [Verdict.FELICITOUS, Verdict.ODD]

    def test_distributive_oddness_is_conjunct_level(self, js):
        theories = by_theory(js["magri-14"])
        assert theories["magri-blind"].mechanism is Mechanism.MISMATCHING_SI
        assert not theories["indirect-contradiction"].fired

    def test_sequenced_scope_blocks_indirect(self, js):
        theories = by_theory(js["magri-17"])
        assert not theories["indirect-contradiction"].fired
        gate = [
            s
            for s in theories["indirect-contradiction"].trace
            if s.rule == "reading-gate"
        ]
        assert gate[0].output == "sequenced-split: predictor skipped"

    def test_portugal_concurrent_fires_indirect(self, js):
        v = by_theory(js["magri-16"])["indirect-contradiction"]
        assert v.mechanism is Mechanism.INDIRECT_CONTEXTUAL_CONTRADICTION

    def test_check_command_exits_zero(self, capsys):
        paths = [str(FIXTURES / f"{name}.sexp") for name in SUITE]
        code = cli_main(["check", *paths])
        out = capsys.readouterr().out
        assert code == 0, out
        _passed("criterion 1: judgment fixture suite (check exits 0)")


# ---------------------------------------------------------------------------
# Criterion 2: conservativity
# ---------------------------------------------------------------------------


def test_criterion_2_conservativity():
    a_sym, b_sym = ITALIAN, WARM
    violations = 0
    checked = 0
    for q in (SOME, ALL, MOST, NO):
        direct = Quant(q, a_sym, Atom(b_sym))
        restricted = Quant(q, a_sym, AndConc(Atom(a_sym), Atom(b_sym)))
        for m in enumerate_models((a_sym, b_sym), 4):
            checked += 1
            if evaluate(direct, m) != evaluate(restricted, m):
                violations += 1
    assert checked == 4 * sum(2 ** (2 * n) for n in range(5))
    assert violations == 0
    _passed(f"criterion 2: conservativity ({checked} cases, 0 violations)")


# ---------------------------------------------------------------------------
# Criterion 3: the conjoined-scope entailment
# ---------------------------------------------------------------------------


def test_criterion_3_conjoined_scope_entails_indefinite():
    preds = (ITALIAN, WARM, BLOND)
    premise = Quant(SOME, ITALIAN, AndConc(Atom(WARM), Atom(BLOND)))
    conclusion = Quant(QI, ITALIAN, Atom(WARM))
    countermodels = 0
    checked = 0
    for m in enumerate_models(preds, 4):
        checked += 1
        # independent set-theoretic route
        premise_true = bool(
            m.extension("italian") & m.extension("warm") & m.extension("blond")
        )
        conclusion_true = bool(m.extension("italian") & m.extension("warm"))
        assert evaluate(premise, m) == premise_true
        assert evaluate(conclusion, m) == conclusion_true
        if premise_true and not conclusion_true:
            countermodels += 1
    assert checked == sum(2 ** (3 * n) for n in range(5))
    assert countermodels == 0
    assert entails([premise], conclusion, preds, bound=4) is True
    _passed(f"criterion 3: some(A)(B'&B'') entails the indefinite ({checked} models)")


# ---------------------------------------------------------------------------
# Criterion 4: exhaustification of the bare sentence
# ---------------------------------------------------------------------------


def test_criterion_4_exhaustification_of_bare_some():
    scenario = load("magri-1")
    target = scenario.target
    alts = substitution_alternatives(target, scenario.scales)
    out = exh(target, alts)
    expected = parse_lf(
        "(and (some italian warm) (not (all italian warm)))", scenario.preds
    )
    assert entails([out], expected, scenario.preds, bound=4)
    assert entails([expected], out, scenario.preds, bound=4)
    _passed(f"criterion 4: exh strengthens to {render_lf(expected)}")


# ---------------------------------------------------------------------------
# Criterion 5: blindness under common-knowledge mutation
# ---------------------------------------------------------------------------


def test_criterion_5_blindness_fuzz():
    rng = random.Random(20240809)
    fact_pool = [
        "(all italian warm)",
        "(some italian true)",
        "(some italian blond)",
        "(not (all italian blond))",
        "(no italian blond)",
        "(most italian warm)",
        "(some italian (and-conc warm blond))",
    ]
    cases = []
    for fixture in ("magri-1", "magri-4", "magri-5"):
        scenario = load(fixture)
        target = scenario.target
        alts = substitution_alternatives(target, scenario.scales)
        base_ctx = ContextState(
            common_knowledge=(),
            discourse=scenario.discourse,
            preds=scenario.preds,
            bound=scenario.max_universe,
            scales=scenario.scales,
        )
        pruned = prune_settled(alts, base_ctx)
        baseline_exh = render_lf(exh(target, pruned))
        # The primary implicatures not-certain(m), one per stronger alternative m.
        baseline_primary = pruned.stronger()
        pool = []
        for text in fact_pool:
            try:
                pool.append(parse_lf(text, scenario.preds))
            except Exception:
                continue  # fact mentions a predicate this fixture lacks
        cases.append((scenario, pool, alts, baseline_exh, baseline_primary))

    mutations = 0
    while mutations < 200:
        scenario, pool, alts, baseline_exh, baseline_primary = cases[
            mutations % len(cases)
        ]
        ck = tuple(rng.sample(pool, rng.randint(0, len(pool))))
        if not consistent(
            ck + scenario.discourse, scenario.preds, scenario.max_universe, scenario.scales
        ):
            continue
        ctx = ContextState(
            common_knowledge=ck,
            discourse=scenario.discourse,
            preds=scenario.preds,
            bound=scenario.max_universe,
            scales=scenario.scales,
        )
        pruned = prune_settled(alts, ctx)
        assert render_lf(exh(scenario.target, pruned)) == baseline_exh
        assert pruned.stronger() == baseline_primary
        mutations += 1
    _passed("criterion 5: blindness holds across 200 ck mutations")


# ---------------------------------------------------------------------------
# Criterion 6: the blind theory alone misses the conjoined case
# ---------------------------------------------------------------------------


def test_criterion_6_isolation_reproduces_the_gap(capsys):
    code = cli_main(
        ["check", "--theories", "magri-blind", str(FIXTURES / "magri-4.sexp")]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "MISMATCH magri-4" in out
    assert "expected odd, got felicitous" in out
    _passed("criterion 6: blind theory alone leaves the conjoined case felicitous")


# ---------------------------------------------------------------------------
# Criterion 7: parser round-trip over generated forms
# ---------------------------------------------------------------------------


def _random_pexpr(rng, statives, eventives, depth):
    choices = ["atom", "true"]
    if depth > 0:
        choices += ["not", "and-conc", "and-seq"]
    kind = rng.choice(choices)
    if kind == "atom":
        return Atom(rng.choice(statives + eventives))
    if kind == "true":
        return TRUE
    if kind == "not":
        return NotP(_random_pexpr(rng, statives, eventives, depth - 1))
    if kind == "and-conc":
        return AndConc(
            _random_pexpr(rng, statives, eventives, depth - 1),
            _random_pexpr(rng, statives, eventives, depth - 1),
        )
    return AndSeq(Atom(rng.choice(eventives)), Atom(rng.choice(eventives)))


def _random_lf(rng, statives, eventives, depth):
    choices = ["quant"]
    if depth > 1:
        choices += ["only", "not", "and", "or"]
    kind = rng.choice(choices)
    if kind == "quant":
        return Quant(
            rng.choice([SOME, ALL, MOST, NO, QI]),
            rng.choice(statives),
            _random_pexpr(rng, statives, eventives, depth - 1),
        )
    if kind == "only":
        return Only(
            Quant(
                rng.choice([SOME, ALL, MOST, NO, QI]),
                rng.choice(statives),
                _random_pexpr(rng, statives, eventives, max(depth - 2, 0)),
            )
        )
    if kind == "not":
        return NotLF(_random_lf(rng, statives, eventives, depth - 1))
    if kind == "and":
        return AndLF(
            _random_lf(rng, statives, eventives, depth - 1),
            _random_lf(rng, statives, eventives, depth - 1),
        )
    k = rng.randint(2, 3)
    return OrLF(
        tuple(_random_lf(rng, statives, eventives, depth - 1) for _ in range(k))
    )


def test_criterion_7_round_trip_thousand_forms():
    statives = [ITALIAN, WARM, BLOND]
    eventives = [PredicateSym("won", "eventive"), PredicateSym("left", "eventive")]
    preds = statives + eventives
    rng = random.Random(4711)
    failures = 0
    for _ in range(1000):
        lf = _random_lf(rng, statives, eventives, depth=5)
        if parse_lf(render_lf(lf), preds) != lf:
            failures += 1
    assert failures == 0
    _passed("criterion 7: 1000 generated forms round-trip exactly")


# ---------------------------------------------------------------------------
# Invariant: fixture judgments are stable across bounds 3, 4, 5
# ---------------------------------------------------------------------------


def test_small_bound_stability():
    for name in SUITE:
        scenario = load(name)
        outcomes = []
        for bound in (3, 4, 5):
            j = judge(scenario._replace(max_universe=bound))
            outcomes.append(
                (
                    j.aggregate,
                    tuple((v.theory, v.verdict, v.mechanism) for v in j.theories),
                    tuple(v for _, v in j.continuations),
                )
            )
        assert outcomes[0] == outcomes[1] == outcomes[2], name
    _passed("invariant: fixture judgments identical at bounds 3, 4, 5")
