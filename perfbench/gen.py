"""Seeded inputs for the benchmark workloads, as scenario text.

The program receives only what these functions produce. Every context is
drawn true in a hidden world, so it is consistent by construction:
common knowledge, discourse and every committed dialogue utterance hold in
that world. Continuations follow only a target that holds there too, so
the target can always be committed before a continuation is tried.

The formulas, contexts and hidden worlds are drawn once, from the fixed
STRUCTURE_SEED, in strata that give each shape a fixed number of inputs.
The workload seed then renames the predicates (each to another of its
temporal class, by one renaming for the whole workload) and orders the
operations. Two seeds so ask the engine for the same work under other
names: on a shared host, drawing the structure per seed too adds a spread
of 10-15% in work done between seeds (counted in evaluate calls) to the
machine's own timing noise. One renaming for all scenarios keeps which
scenarios share a signature, and so which oracle answers the engine can
reuse between them, the same for every seed. One seed always gives the
same text.
"""

from __future__ import annotations

import itertools
import random
import re
from pathlib import Path

from reforacle import Reference

FIXTURE_BOUNDS = (3, 4, 5)
CORPUS_BOUND = 3
CORPUS_PER_STRATUM = 2
DIALOGUE_BOUND = 4
DIALOGUES = 3
DEEP_NOT_DEPTH = 3000
STRUCTURE_SEED = "felicity-bench-1"

SCALES = {"sma": ("some", "most", "all"), "sa": ("some", "all")}
KINDS = ("simple", "conc", "only", "and", "or")
QUANTIFIERS = ("some", "all", "most", "no", "qi")
TURN_KINDS = ("simple", "conc", "only", "reject", "or", "and", "conc", "reject", "only", "simple")
STATIVE = ("tall", "warm", "blond", "rich", "young", "calm")
EVENTIVE = ("won", "left", "sang", "ran", "slept", "paid")
DOMAINS = ("italian", "player", "student", "farmer")

# A seed-independent input that trips a fault of the engine on every run:
# blind exh negates each stronger alternative of a disjunction on its own,
# and the negations jointly contradict the disjunction.
FAULT_OR_EXH = """(scenario fault-or-exh
  (individuals 3)
  (predicates (a :stative) (b :stative) (c :stative))
  (scales (some all))
  (target (or (some a b) (some a c))))"""


def deep_not_scenario(depth: int = DEEP_NOT_DEPTH) -> str:
    """A well-formed scenario whose target nests ``depth`` negations."""
    target = "(not " * depth + "(some a b)" + ")" * depth
    return ("(scenario deep-not\n  (individuals 2)\n"
            "  (predicates (a :stative) (b :stative))\n"
            f"  (target {target})\n  (expect felicitous))")


def fixture_ops(fixtures_dir: Path) -> list[dict]:
    """Every fixture at bounds 3, 4 and 5, in file-name order.

    No seed: fixtures that share a context share oracle answers, so an
    order drawn per seed moves the median judgment by a fifth.
    """
    texts = {p.stem: p.read_text(encoding="utf-8") for p in sorted(fixtures_dir.glob("*.sexp"))}
    ops = []
    for bound in FIXTURE_BOUNDS:
        for name in sorted(texts):
            text = re.sub(r"\(individuals \d+\)", f"(individuals {bound})", texts[name])
            ops.append({"id": f"{name}@{bound}", "text": text})
    return ops


class _Signature:
    """Predicates, scale and hidden world of one generated context."""

    def __init__(self, rng: random.Random, k: int, bound: int, scale: str):
        self.rng = rng
        self.scale = SCALES[scale]
        self.domain = rng.choice(DOMAINS)
        others = []
        pool_s, pool_e = list(STATIVE), list(EVENTIVE)
        rng.shuffle(pool_s)
        rng.shuffle(pool_e)
        for i in range(k - 1):
            others.append((pool_e if i % 2 else pool_s).pop())
        rng.shuffle(others)
        self.names = [self.domain] + others
        self.eventive = [p for p in others if p in EVENTIVE]
        self.scope_preds = others
        # Hidden world: `bound` individuals, at least one in the domain.
        cells = [rng.randrange(1 << k) for _ in range(bound)]
        cells[0] |= 1
        counts = [0] * (1 << k)
        for c in cells:
            counts[c] += 1
        self.world = Reference.single_world(self.names, counts, [self.scale])

    def header(self, name: str, bound: int) -> str:
        decls = " ".join(
            f"({p} :{'eventive' if p in EVENTIVE else 'stative'})" for p in self.names
        )
        return (f"(scenario {name}\n  (individuals {bound})\n  (predicates {decls})\n"
                f"  (scales ({' '.join(self.scale)}))")

    def holds(self, form: str) -> bool:
        return self.world.holds(form)

    # -- formulas ----------------------------------------------------------

    def atom(self) -> str:
        return self.rng.choice(self.scope_preds)

    def scope(self, conc: bool | None = None) -> str:
        rng = self.rng
        if conc is None:
            conc = rng.random() < 0.35
        if conc:
            if len(self.eventive) >= 2 and rng.random() < 0.3:
                left, right = rng.sample(self.eventive, 2)
                return f"(and-seq {left} {right})"
            return f"(and-conc {self.atom()} {self.lit()})"
        return self.lit()

    def lit(self) -> str:
        a = self.atom()
        return f"(not {a})" if self.rng.random() < 0.25 else a

    def clause(self, q: str | None = None, conc: bool | None = None) -> str:
        q = q or self.rng.choice(QUANTIFIERS)
        return f"({q} {self.domain} {self.scope(conc)})"

    def weak(self) -> str:
        """A scale member with a stronger mate."""
        return self.rng.choice(self.scale[:-1])

    def form(self, kind: str, variant: int = 0) -> str:
        """A formula of one shape. The variant fixes what drives the cost
        (quantifiers that have scale-mates, concurrent scopes, disjuncts);
        the seed picks the rest. ``any`` leaves everything to the seed."""
        if kind == "any":
            return self.clause()
        if kind == "simple":
            return self.clause(QUANTIFIERS[variant % 5], conc=False)
        if kind == "conc":
            return self.clause(self.weak(), conc=True)
        if kind == "only":
            return f"(only {self.clause(self.weak(), conc=variant % 2 == 0)})"
        if kind == "and":
            left = self.clause(self.rng.choice(self.scale), conc=False)
            right = self.clause(QUANTIFIERS[variant % 5], conc=False)
            return f"(and {left} {right})"
        if kind == "or":
            # One disjunct with a stronger scale-mate, the rest without one:
            # two such disjuncts would trip the exh fault on some seeds only.
            top = self.scale[-1]
            strong = ((top,), (top, "no"), ("qi", top))[variant % 3]
            parts = [self.clause(self.weak(), conc=False)]
            parts += [self.clause(q, conc=False) for q in strong]
            self.rng.shuffle(parts)
            return f"(or {' '.join(parts)})"
        raise ValueError(kind)

    def true_form(self, kind: str, variant: int = 0) -> str:
        for _ in range(200):
            form = self.form(kind, variant)
            if self.holds(form):
                return form
        return f"(some {self.domain} true)"

    def facts(self, n: int, variant: int = 0) -> list[str]:
        out: list[str] = []
        for _ in range(10 * n):
            if len(out) == n:
                break
            form = self.true_form(("simple", "only")[len(out) % 2], variant + len(out))
            if form not in out:
                out.append(form)
        return out


def _renamer(rng: random.Random):
    """A seeded renaming of every pool name to another of its class.

    It is a bijection, so two scenarios share a name after it exactly when
    they shared it before."""
    table = {}
    for pool in (DOMAINS, STATIVE, EVENTIVE):
        shuffled = list(pool)
        rng.shuffle(shuffled)
        table.update(zip(pool, shuffled))
    pattern = re.compile(r"\b(" + "|".join(table) + r")\b")
    return lambda text: pattern.sub(lambda m: table[m.group(1)], text)


def _section(name: str, forms: list[str]) -> str:
    return f"\n  ({name} {' '.join(forms)})" if forms else ""


def corpus_ops(seed: int) -> list[dict]:
    """Stratified generated scenarios at bound 3, then the fault input."""
    rng = random.Random(f"{STRUCTURE_SEED}:corpus")
    surface = random.Random(f"{seed}:corpus")
    strata = list(itertools.product((2, 3, 4), SCALES, KINDS))
    ops = []
    for copy in range(CORPUS_PER_STRATUM):
        for k, scale, kind in strata:
            variant = copy + k + (scale == "sa")
            i = len(ops)
            sig = _Signature(rng, k, CORPUS_BOUND, scale)
            ck = sig.facts(variant % 3, variant)
            discourse = sig.facts((copy + (scale == "sa")) % 2, variant + 1)
            # A continuation needs a target the context can take in.
            if copy % 2 == 0:
                target, continuations = sig.true_form(kind, variant), [sig.form("any")]
            else:
                target, continuations = sig.form(kind, variant), []
            text = (sig.header(f"c{i:03d}", CORPUS_BOUND) + _section("common-knowledge", ck)
                    + _section("discourse", discourse) + f"\n  (target {target})"
                    + _section("continuations", continuations) + ")")
            ops.append({"id": f"c{i:03d}", "stratum": f"k{k}-{scale}-{kind}", "text": text})
    rename = _renamer(surface)
    for op in ops:
        op["text"] = rename(op["text"])
    surface.shuffle(ops)
    ops.append({"id": "fault-or-exh", "stratum": "fault", "text": FAULT_OR_EXH})
    return ops


def dialogue_ops(seed: int) -> list[dict]:
    """Seeded dialogues at bound 4 over 3 predicates.

    Each turn names its utterance and continuation; the worker builds the
    turn's scenario from the utterances committed so far. A ``reject``
    turn negates a fact already in the context, so its update must fail.
    """
    rng = random.Random(f"{STRUCTURE_SEED}:dialogue")
    surface = random.Random(f"{seed}:dialogue")
    dialogues = []
    for d in range(DIALOGUES):
        sig = _Signature(rng, 3, DIALOGUE_BOUND, ("sa", "sma")[d % 2])
        ck = sig.facts(1 + d % 2, d)
        said: list[str] = []
        turns = []
        for t, kind in enumerate(TURN_KINDS):
            if kind == "reject":
                utterance = f"(not {rng.choice(ck + said)})"
                continuation = None
            else:
                # Two disjuncts at most: at bound 4 a three-disjunct
                # alternative set costs seconds per turn.
                utterance = sig.true_form(kind, 0 if kind == "or" else d + t)
                said.append(utterance)
                continuation = sig.form("any")
            turns.append({"id": f"d{d}t{t:02d}", "kind": kind, "utterance": utterance,
                          "continuation": continuation})
        dialogues.append({"id": f"d{d}", "header": sig.header(f"d{d}", DIALOGUE_BOUND),
                          "common_knowledge": ck, "turns": turns})
    rename = _renamer(surface)
    for dialogue in dialogues:
        dialogue["header"] = rename(dialogue["header"])
        dialogue["common_knowledge"] = [rename(f) for f in dialogue["common_knowledge"]]
        for turn in dialogue["turns"]:
            turn["utterance"] = rename(turn["utterance"])
            turn["continuation"] = turn["continuation"] and rename(turn["continuation"])
    surface.shuffle(dialogues)
    return dialogues


def turn_text(dialogue: dict, turn_index: int, committed: list[str], utterance: str,
              continuation: str | None) -> str:
    """Scenario text of one turn: the utterance judged against the context."""
    return (dialogue["header"].replace(f"(scenario {dialogue['id']}",
                                       f"(scenario {dialogue['id']}t{turn_index:02d}")
            + _section("common-knowledge", dialogue["common_knowledge"])
            + _section("discourse", committed) + f"\n  (target {utterance})"
            + _section("continuations", [continuation] if continuation else []) + ")")
