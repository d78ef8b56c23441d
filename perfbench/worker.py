"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json RESULT.json

The spec names the workload's operations. The worker times a cold pass
(first sight of every operation in this process), then the warm passes
(the same operations again), each time scaled to nominal host speed by a
``speed.Clock``, records its peak resident memory, and only
then, if ``check`` is set, imports the checks and verifies every output;
it always returns a digest of the outputs. With ``trace`` set it
wraps the program's public functions first and reports per-layer metrics
instead of checking. With ``cli_argv`` set it only times one in-process
``felicity.cli.main`` call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))


def _import_program(src: str):
    sys.path.insert(0, src)
    import felicity

    if not os.path.abspath(felicity.__file__).startswith(src + os.sep):
        raise SystemExit(f"felicity was imported from {felicity.__file__}, not from {src}")
    return felicity


def context_of(f, scenario):
    """The scenario's context as the engine builds it: common knowledge and discourse."""
    return f.ContextState(common_knowledge=scenario.common_knowledge,
                          discourse=scenario.discourse, preds=scenario.preds,
                          bound=scenario.max_universe, scales=scenario.scales)


def _judge_text(f, text: str):
    scenario = f.parse_scenario(text)
    judgment = f.judge(scenario)
    report = f.build_report(scenario.name, judgment)
    return scenario, judgment, report, f.render_report(report, "json")


def _judgment_ops(f, spec, tracer, clock):
    """Fixture and corpus rounds: one judgment per operation."""
    ops = spec["ops"]
    cold_ms, results = [], []
    for op in ops:
        if tracer:
            tracer.op = op["id"]
        t0 = perf_counter()
        results.append(_judge_text(f, op["text"]))
        cold_ms += clock.scale([(perf_counter() - t0) * 1e3])
    warm_ms, unstable = [], set()
    for _ in range(spec["warm_reps"]):
        times = []
        for op, cold in zip(ops, results):
            t0 = perf_counter()
            again = _judge_text(f, op["text"])
            times.append((perf_counter() - t0) * 1e3)
            if again[3] != cold[3]:
                unstable.add(op["id"])
        warm_ms += clock.scale(times)
    return cold_ms, warm_ms, results, unstable


def _turn(f, turn_text, dialogue, index, committed, turn):
    text = turn_text(dialogue, index, committed, turn["utterance"], turn["continuation"])
    scenario, judgment, report, js = _judge_text(f, text)
    try:
        f.update_discourse(context_of(f, scenario), scenario.target)
        accepted = True
    except f.UpdateContradictionError:
        accepted = False
    return text, (scenario, judgment, report, js), accepted


def _dialogue_ops(f, spec, tracer, clock):
    """Dialogue rounds: one turn per operation, committed turn by turn."""
    from gen import turn_text

    def run_all(record):
        out = []
        for dialogue in spec["dialogues"]:
            committed: list[str] = []
            for index, turn in enumerate(dialogue["turns"]):
                if tracer:
                    tracer.op = turn["id"]
                t0 = perf_counter()
                text, result, accepted = _turn(f, turn_text, dialogue, index, committed, turn)
                record((perf_counter() - t0) * 1e3)
                if accepted:
                    committed.append(turn["utterance"])
                out.append((turn["id"], text, result, accepted))
        return out

    cold_ms, warm_ms = [], []
    turns = run_all(lambda ms: cold_ms.extend(clock.scale([ms])))
    unstable = set()
    for _ in range(spec["warm_reps"]):
        times: list[float] = []
        for before, after in zip(turns, run_all(times.append)):
            if (before[1], before[2][3], before[3]) != (after[1], after[2][3], after[3]):
                unstable.add(before[0])
        warm_ms += clock.scale(times)
    return cold_ms, warm_ms, turns, unstable


def _check(f, spec, outputs, unstable) -> list[list]:
    """Every failed operation as [id, reasons, whether it is a known fault]."""
    import checks

    failures = []
    if spec["workload"] == "dialogue":
        items = [(tid, res, accepted) for tid, _, res, accepted in outputs]
    else:
        items = [(op["id"], res, None) for op, res in zip(spec["ops"], outputs)]
    by_fixture: dict[str, tuple] = {}
    for op_id, (scenario, judgment, report, js), accepted in items:
        fails = checks.judgment_failures(scenario, judgment, report, js)
        if accepted is not None:
            fails += checks.update_failures(scenario, accepted)
        if spec["workload"] == "fixtures-sweep":
            name = op_id.split("@")[0]
            fails += checks.fixture_failures(name, scenario, judgment)
            first = by_fixture.setdefault(name, checks.signature(judgment))
            if checks.signature(judgment) != first:
                fails.append("verdicts or mechanisms change with the bound")
        if op_id in unstable:
            fails.append("a warm repetition gave another output than the cold pass")
        if fails:
            failures.append([op_id, fails, checks.KNOWN_FAULTS.get(op_id) == fails])
    return failures


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, HERE)
    from speed import Clock

    f = _import_program(spec["src"])
    result: dict = {}
    if spec.get("cli_argv"):
        import felicity.cli

        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            result["rc"] = felicity.cli.main(spec["cli_argv"])
        result["cli_main_s"] = perf_counter() - t0
    else:
        tracer = None
        if spec["trace"]:
            import felicity.cli  # noqa: F401  (every module imported before wrapping)
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        run = _dialogue_ops if spec["workload"] == "dialogue" else _judgment_ops
        clock = Clock()
        cold_ms, warm_ms, outputs, unstable = run(f, spec, tracer, clock)
        result.update(cold_ms=cold_ms, warm_ms=warm_ms, sweep_s=sum(cold_ms) / 1e3,
                      clock=clock.log,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer:
            result["layers"] = tracer.layer_metrics()
            tracer.write_spans(spec["spans_path"])
        else:
            digest = hashlib.sha256()
            for output in outputs:
                if spec["workload"] == "dialogue":  # (id, text, judged, accepted)
                    output = (output[1], output[2][3], output[3])
                else:  # (scenario, judgment, report, json)
                    output = output[3]
                digest.update(json.dumps(output).encode())
            result["digest"] = digest.hexdigest()
            result["unstable"] = sorted(unstable)
            if spec.get("check"):
                result["failures"] = _check(f, spec, outputs, unstable)
            keep = set(spec.get("keep_ids", ()))
            if spec["workload"] == "dialogue":
                result["kept"] = {tid: [text, res[3]] for tid, text, res, _ in outputs
                                  if tid in keep}
            else:
                result["kept"] = {op["id"]: [op["text"], res[3]]
                                  for op, res in zip(spec["ops"], outputs) if op["id"] in keep}
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
