"""felicity benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fixtures-sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the engine is imported from
``src/`` and nothing is installed. Each round starts a fresh interpreter
(``worker.py``) for the cold and warm passes, then the ``felicity`` CLI as
a subprocess, one process at a time, all on one CPU. Rounds repeat until
``--seconds`` have passed, or until the next would overrun them. Every time
is scaled to nominal host speed (``speed.py``). The last line of standard
output is the result object; see README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from speed import Clock  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

WORKLOADS = ("fixtures-sweep", "corpus-mixed", "dialogue")
WARM_REPS = 10  # a warm judgment lasts about a millisecond: spread its samples over time
SETUP_SPAWNS = 3  # per round, so that set-up is sampled across the whole run
SUBPROCESS_TIMEOUT_S = 120.0
CLI_FILES = 6
CLI_RUNS = 4  # per round: a CLI run is mostly process start-up, the noisiest timing
LAYER_METRICS = (*PER_LAYER, "cli.main_s", "trace.overhead_s")
DEEP_NOT_FAULT = "deep-not"


def _python(args, env, clock=None, timeout=SUBPROCESS_TIMEOUT_S):
    """Run one Python subprocess to its end; return (seconds, completed).

    With a clock, the seconds are scaled to the host's nominal speed."""
    if clock:
        clock.restart()
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)
    seconds = time.perf_counter() - t0
    return clock.scale([seconds])[0] if clock else seconds, done


class Bench:
    """One run: whole rounds of the same operations until the time is up.

    The first round's outputs are checked, and only they count as attempted
    or failed operations. Later rounds repeat the same operations for their
    timings and must reproduce the first round's outputs exactly.
    """

    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool):
        self.root, self.workload = root, workload
        self.seconds, self.trace = seconds, trace
        self.src = root / "src"
        self.work = root / ".bench_work" / workload
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.spec = {"workload": workload, "src": str(self.src), "warm_reps": WARM_REPS}
        if workload == "fixtures-sweep":
            self.spec["ops"] = gen.fixture_ops(root / "fixtures")
        elif workload == "corpus-mixed":
            self.spec["ops"] = gen.corpus_ops(seed)
            ids = sorted(op["id"] for op in self.spec["ops"] if op["stratum"] != "fault")
            self.spec["keep_ids"] = ids[::len(ids) // CLI_FILES][:CLI_FILES]
        else:
            self.spec["dialogues"] = gen.dialogue_ops(seed)
            self.spec["keep_ids"] = [d["turns"][-1]["id"] for d in self.spec["dialogues"]]
        self.cli_paths: list[str] = []
        self.cli_expect: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[tuple[str, bool]] = []  # (what failed and why, known fault)
        self.first_outputs: tuple = ()
        self.first_cli: tuple = ()
        self.clock = Clock()

    def fail(self, what: str, known: bool = False):
        self.failures.append((what, known))

    # -- processes -------------------------------------------------------------

    def worker(self, **extra) -> dict:
        name = "traced" if extra.get("trace") else "cli" if extra.get("cli_argv") else "plain"
        spec_path, result_path = self.work / f"{name}.spec.json", self.work / f"{name}.result.json"
        spec_path.write_text(json.dumps({**self.spec, "trace": False, **extra}), encoding="utf-8")
        _, done = _python([str(HERE / "worker.py"), str(spec_path), str(result_path)], self.env)
        if done.returncode != 0:
            raise RuntimeError(f"worker failed ({done.returncode}):\n{done.stderr[-2000:]}")
        return json.loads(result_path.read_text(encoding="utf-8"))

    def spawn_setup(self, spawns: int) -> list[float]:
        """Start-up: fresh interpreter, import felicity, default_registry()."""
        code = "import felicity; felicity.default_registry()"
        times = []
        for _ in range(spawns):
            seconds, done = _python(["-c", code], self.env, self.clock)
            if done.returncode != 0:
                raise RuntimeError(f"import felicity failed:\n{done.stderr[-2000:]}")
            times.append(seconds)
        return times

    def cli_argv(self) -> list[str]:
        if self.workload == "fixtures-sweep":
            return ["check", *sorted(str(p) for p in (self.root / "fixtures").glob("*.sexp"))]
        return ["run", "--format", "json", *self.cli_paths]

    def write_cli_files(self, kept: dict):
        """The workload's CLI inputs: scenarios the first worker judged."""
        for op_id in sorted(kept):
            text, js = kept[op_id]
            path = self.work / f"{op_id}.sexp"
            path.write_text(text, encoding="utf-8")
            self.cli_paths.append(str(path))
            self.cli_expect[str(path)] = js

    def run_cli(self) -> float:
        """One CLI subprocess over the workload's files; returns its wall time.

        The first run is a checked operation; every later one must print the same."""
        seconds, done = _python(["-m", "felicity.cli", *self.cli_argv()], self.env, self.clock)
        lines = done.stdout.splitlines()
        if self.first_cli:
            if (done.returncode, lines) != self.first_cli:
                self.fail(f"cli: exit {done.returncode}, output differs from the first run")
            return seconds
        self.first_cli = (done.returncode, lines)
        self.attempted += 1
        if self.workload == "fixtures-sweep":
            ok = (done.returncode == 0 and len(lines) == len(self.cli_argv()) - 1
                  and all(line.startswith("ok ") for line in lines))
        else:
            ok = done.returncode == 0 and lines == [self.cli_expect[p] for p in self.cli_paths]
        if not ok:
            self.fail(f"cli {self.cli_argv()[0]}: exit {done.returncode},"
                      f" {len(lines)} lines: {done.stderr[-300:]}")
        return seconds

    def run_deep_not(self):
        """Fault (b): ``felicity check`` on 3,000 nested negations must exit 2
        without a traceback."""
        path = self.work / "deep-not.sexp"
        path.write_text(gen.deep_not_scenario(), encoding="utf-8")
        _, done = _python(["-m", "felicity.cli", "check", str(path)], self.env)
        self.attempted += 1
        if done.returncode != 2 or "Traceback" in done.stderr:
            last = (done.stderr.strip().splitlines() or ["(no output)"])[-1]
            self.fail(f"{DEEP_NOT_FAULT}: exit {done.returncode}, not 2 (parse error):"
                      f" {last[:200]}", known=True)

    # -- rounds ----------------------------------------------------------------

    def round(self, first: bool) -> dict:
        setup_s = [] if self.trace else self.spawn_setup(SETUP_SPAWNS)
        plain = self.worker(check=first)
        plain["setup_s"] = setup_s
        outputs = (plain["digest"], plain["unstable"])
        if first:
            self.first_outputs = outputs
            self.attempted += len(plain["cold_ms"])
            for op_id, reasons, known in plain["failures"]:
                self.fail(f"{op_id}: {'; '.join(reasons)}", known)
            if self.workload != "fixtures-sweep":
                self.write_cli_files(plain["kept"])
        elif outputs != self.first_outputs:
            self.fail("a later round's outputs differ from the first round's")
        plain["cli_wall_s"] = [self.run_cli() for _ in range(CLI_RUNS)]
        if first and self.workload == "fixtures-sweep":
            self.run_deep_not()
        if self.trace:
            traced = self.worker(trace=True, spans_path=str(self.work / "spans.jsonl"))
            plain["layers"] = traced["layers"]
            plain["layers"]["trace.overhead_s"] = traced["sweep_s"] - plain["sweep_s"]
            cli = self.worker(cli_argv=self.cli_argv())
            plain["layers"]["cli.main_s"] = cli["cli_main_s"]
        return plain

    def run(self) -> dict:
        if not self.trace:
            self.spawn_setup(1)  # writes the bytecode cache
        rounds: list[dict] = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            rounds.append(self.round(first=not rounds))
            elapsed, last = time.monotonic() - start, time.monotonic() - t0
            # Whole rounds only: stop before a round that would overrun.
            if elapsed + last > self.seconds:
                break
        (self.work / "rounds.json").write_text(
            json.dumps({"rounds": rounds, "clock": self.clock.log}), encoding="utf-8")
        return self.result(rounds)

    def result(self, rounds: list[dict]) -> dict:
        med = statistics.median
        if self.trace:
            metrics = {name: med(r["layers"][name] for r in rounds) for name in LAYER_METRICS}
            units = {name: _layer_unit(name) for name in metrics}
        else:
            # Every timing is already scaled to nominal host speed (speed.py).
            # The operations are a fixed set of 30 or 61 inputs whose costs
            # differ up to 1000x, so a 90th percentile would fall between two
            # particular operations: only medians are reported.
            metrics = {
                "setup_s": med(s for r in rounds for s in r["setup_s"]),
                "sweep_s": med(r["sweep_s"] for r in rounds),
                "cold_ms_p50": med(ms for r in rounds for ms in r["cold_ms"]),
                "warm_ms_p50": med(ms for r in rounds for ms in r["warm_ms"]),
                "cli_wall_s": med(s for r in rounds for s in r["cli_wall_s"]),
                "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
            }
            units = {name: "s" if name.endswith("_s") else "MB" if name.endswith("_mb") else "ms"
                     for name in metrics}
        for what, known in self.failures:
            print(f"FAILED{' (known fault)' if known else ''} {what}", file=sys.stderr)
        return {
            "correct": all(known for _, known in self.failures),
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "felicity" / "__init__.py").is_file() or not (root / "fixtures").is_dir():
        print("error: run from a felicity source checkout (src/felicity and fixtures/ missing)",
              file=sys.stderr)
        return 2
    # One CPU for this process and every process it starts: the speed
    # kernel then runs where the timed work runs (see speed.py).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(bench.run()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
