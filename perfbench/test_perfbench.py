"""Tests of the benchmark's own parts: input determinism, the reference
oracle, host-speed scaling, and how a run counts its operations.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from checks import EXH_FAULT  # noqa: E402
from reforacle import Reference  # noqa: E402

import felicity  # noqa: E402
from felicity.logic import entails_with_existential_import  # noqa: E402


def test_one_seed_gives_identical_inputs_twice():
    for make in (gen.corpus_ops, gen.dialogue_ops):
        assert json.dumps(make(11)) == json.dumps(make(11))
        assert json.dumps(make(11)) != json.dumps(make(12))


def test_workload_sizes_do_not_depend_on_the_seed():
    for seed in (1, 2, 3):
        corpus = gen.corpus_ops(seed)
        assert len(corpus) == 3 * 2 * 5 * gen.CORPUS_PER_STRATUM + 1
        assert corpus[-1]["text"] == gen.FAULT_OR_EXH
        turns = [t for d in gen.dialogue_ops(seed) for t in d["turns"]]
        assert len(turns) == gen.DIALOGUES * len(gen.TURN_KINDS)


def test_generated_scenarios_parse_with_consistent_contexts():
    for op in gen.corpus_ops(5)[:40]:
        scenario = felicity.parse_scenario(op["text"])
        assert scenario.max_universe == gen.CORPUS_BOUND


def _random_forms(seed: int, k: int, bound: int, count: int):
    rng = random.Random(seed)
    sig = gen._Signature(rng, k, bound, rng.choice(sorted(gen.SCALES)))
    kinds = ("any", "simple", "conc", "only", "and", "or")
    forms = []
    for i in range(count):
        form = sig.form(rng.choice(kinds), i)
        forms.append(f"(not {form})" if rng.random() < 0.2 else form)
    return sig, forms


def test_reference_oracle_agrees_with_felicity():
    cases = 0
    for seed, k, bound in [(1, 2, 4), (2, 3, 3), (3, 3, 2), (4, 2, 3), (5, 3, 1), (6, 2, 2)]:
        sig, forms = _random_forms(seed, k, bound, 24)
        preds = [felicity.PredicateSym(p, "eventive" if p in gen.EVENTIVE else "stative")
                 for p in sig.names]
        registry = felicity.ScaleRegistry((felicity.Scale(tuple(
            felicity.Quantifier(q) for q in sig.scale)),))
        ref = Reference(sig.names, bound, [sig.scale])
        lfs = [felicity.parse_lf(f, preds) for f in forms]
        rng = random.Random(seed)
        for i, lf in enumerate(lfs):
            premises = rng.sample(range(len(lfs)), rng.choice((0, 1, 2)))
            assert felicity.consistent([lf], preds, bound, registry) == ref.consistent([forms[i]])
            assert felicity.entails([lfs[j] for j in premises], lf, preds, bound, registry) == \
                ref.entails([forms[j] for j in premises], forms[i])
            assert entails_with_existential_import(
                [lfs[j] for j in premises], lf, preds, bound, registry) == \
                ref.entails([forms[j] for j in premises], forms[i], existential_import=True)
            cases += 3
    assert cases > 400


def test_committed_dialogue_utterances_stay_consistent():
    for dialogue in gen.dialogue_ops(3):
        said = [t["utterance"] for t in dialogue["turns"] if t["kind"] != "reject"]
        text = gen.turn_text(dialogue, len(said), said, said[-1], None)
        assert felicity.parse_scenario(text).discourse  # rejects an inconsistent context


def test_clock_scales_each_interval_by_the_kernel_times_around_it(monkeypatch):
    kernels = iter([0.004] * speed._WARMUP + [0.004, 0.006, 0.010])
    monkeypatch.setattr(speed, "kernel_s", lambda: next(kernels))
    clock = speed.Clock()
    nominal = speed.KERNEL_NOMINAL_S
    assert clock.scale([1.0, 3.0]) == pytest.approx([nominal / 0.005, 3 * nominal / 0.005])
    assert clock.scale([2.0]) == pytest.approx([2 * nominal / 0.008])
    assert clock.log == [(4.0, 0.004, 0.006), (2.0, 0.006, 0.010)]


def _result_after(rounds: int, root: Path, monkeypatch, known: bool = True) -> dict:
    """A corpus-mixed result over ``rounds`` rounds of a stand-in worker."""
    def python(args, env, clock=None, timeout=None):
        return 0.1, subprocess.CompletedProcess(args, 0, stdout="", stderr="")

    bench = run.Bench(root, "corpus-mixed", 1, 0, False)
    n = len(bench.spec["ops"])
    plain = {"cold_ms": [1.0] * n, "warm_ms": [0.5] * (n * run.WARM_REPS), "sweep_s": 0.1,
             "peak_rss_mb": 20.0, "digest": "d", "unstable": [], "kept": {},
             "failures": [["fault-or-exh", [EXH_FAULT], known]]}
    monkeypatch.setattr(run, "_python", python)
    monkeypatch.setattr(bench, "worker", lambda **extra: dict(plain))
    return bench.result([bench.round(first=i == 0) for i in range(rounds)])


def test_counts_do_not_depend_on_how_many_rounds_fit(tmp_path, monkeypatch):
    one, five = (_result_after(k, tmp_path, monkeypatch) for k in (1, 5))
    assert (one["attempted"], one["failed"]) == (five["attempted"], five["failed"]) == (62, 1)
    assert one["correct"] and five["correct"]


def test_an_unknown_failure_makes_the_run_incorrect(tmp_path, monkeypatch):
    assert not _result_after(2, tmp_path, monkeypatch, known=False)["correct"]
