"""Per-layer tracing from outside the program.

``Tracer.install`` wraps public functions of each felicity module and
rebinds every reference the package holds to them (module globals, the
package namespace and module-level dispatch tables), so calls between
modules pass through the wrappers and no program source changes. A span
records name, operation id, start, end and parent; a call that re-enters
a layer already on the stack belongs to the outer span. Spans stay in
memory until ``write_spans``. Self time is a span's duration minus its
child spans. ``enumerate_models`` and ``evaluate`` are only counted: a
span per model would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

THEORIES = ("magri-blind", "presupposed-ignorance", "logical-integrity", "del-pinal",
            "indirect-contradiction")

FUNCTION_SPANS = {
    "logic": {"entails": "logic.oracle", "consistent": "logic.oracle",
              "entails_with_existential_import": "logic.oracle"},
    "context": {"k_holds": "context.query", "p_holds": "context.query",
                "contextually_entails": "context.query",
                "settled_by_discourse": "context.query",
                "update_discourse": "context.update",
                "continuation_felicity": "judge.continuation"},
    "alternatives": {"substitution_alternatives": "alternatives.generate",
                     "prune_settled": "alternatives.prune", "exh": "alternatives.exh",
                     "presupposition": "alternatives.presup",
                     "presup_strictly_stronger": "alternatives.presup",
                     "disjunction_ignorance": "alternatives.ignorance"},
    "judge": {"judge": "judge.judge",
              **{f"predict_{t.replace('-', '_')}": f"judge.{t}" for t in THEORIES}},
    "dsl": {"parse_scenario": "dsl.parse", "parse_lf": "dsl.parse", "parse_pexpr": "dsl.parse",
            "render_lf": "dsl.render", "render_pexpr": "dsl.render"},
    "report": {"build_report": "report.build", "render_report": "report.render"},
}
CLASS_SPANS = {"scales": {"Scale": "scales.verify"}, "context": {"ContextState": "context.build"}}

PER_LAYER = (
    "logic.oracle_calls", "logic.oracle_self_s", "logic.models_enumerated",
    "logic.evaluate_calls", "logic.scan_ratio",
    "scales.builds", "scales.verify_s",
    "context.builds", "context.build_s", "context.queries", "context.query_s",
    "context.updates", "context.update_s",
    "alternatives.generated", "alternatives.generate_s", "alternatives.pruned",
    "alternatives.prune_s", "alternatives.exh_negations", "alternatives.exh_s",
    "alternatives.presup_s", "alternatives.ignorance_s",
    *(f"judge.{t}_s" for t in THEORIES), "judge.continuation_s", "judge.trace_steps",
    "dsl.parse_s", "dsl.render_calls", "dsl.render_s",
    "report.build_s", "report.render_s", "report.json_bytes",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, op, start, end, parent index]
        self.stack: list[int] = []
        self.active: set[str] = set()
        self.counts: Counter = Counter()
        self.op = None
        self.in_eval = False

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if name in tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            models_before = tracer.counts["models"]
            tracer.spans.append([name, tracer.op, perf_counter(), 0.0,
                                 tracer.stack[-1] if tracer.stack else -1])
            tracer.stack.append(index)
            tracer.active.add(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[index][3] = perf_counter()
                tracer.stack.pop()
                tracer.active.discard(name)
            tracer._observe(name, args, kwargs, result, models_before)
            return result

        return wrapped

    def _observe(self, name, args, kwargs, result, models_before):
        c = self.counts
        c[name] += 1
        if name == "logic.oracle" and c["models"] > models_before:
            c["scanning_oracle_calls"] += 1
        elif name == "alternatives.generate":
            c["generated"] += len(result.members)
        elif name == "alternatives.prune":
            c["pruned"] += len(args[0].members) - len(result.members)
        elif name == "alternatives.exh":
            origin, node = args[0], result
            while node is not origin and hasattr(node, "left"):
                c["exh_negations"] += 1
                node = node.left
        elif name == "judge.judge":
            c["trace_steps"] += sum(len(v.trace) for v in result.theories)
        elif name == "report.render" and (args[1:2] or [kwargs.get("format")])[0] == "json":
            c["json_bytes"] += len(result.encode())

    def _count_models(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            for model in fn(*args, **kwargs):
                tracer.counts["models"] += 1
                yield model

        return wrapped

    def _count_evaluate(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if tracer.in_eval:
                return fn(*args, **kwargs)
            tracer.in_eval = True
            tracer.counts["evaluate"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.in_eval = False

        return wrapped

    def install(self):
        """Wrap the public functions of every imported felicity module."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "felicity" or n.startswith("felicity."))]
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        swaps = {}
        for mod_name, table in FUNCTION_SPANS.items():
            for attr, span in table.items():
                fn = getattr(by_name[mod_name], attr)
                swaps[id(fn)] = (fn, self._span(span, fn))
        logic = by_name["logic"]
        swaps[id(logic.enumerate_models)] = (logic.enumerate_models,
                                             self._count_models(logic.enumerate_models))
        swaps[id(logic.evaluate)] = (logic.evaluate, self._count_evaluate(logic.evaluate))
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if id(value) in swaps and swaps[id(value)][0] is value:
                    namespace[attr] = swaps[id(value)][1]
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, entry in list(value.items()):
                        if id(entry) in swaps and swaps[id(entry)][0] is entry:
                            value[key] = swaps[id(entry)][1]
        for mod_name, table in CLASS_SPANS.items():
            for attr, span in table.items():
                cls = getattr(by_name[mod_name], attr)
                cls.__init__ = self._span(span, cls.__init__)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for name, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        s, c = self.self_times(), self.counts
        calls = c["logic.oracle"]
        out = {
            "logic.oracle_calls": calls,
            "logic.oracle_self_s": s["logic.oracle"],
            "logic.models_enumerated": c["models"],
            "logic.evaluate_calls": c["evaluate"],
            "logic.scan_ratio": c["scanning_oracle_calls"] / calls if calls else 0.0,
            "scales.builds": c["scales.verify"],
            "context.builds": c["context.build"],
            "context.queries": c["context.query"],
            "context.updates": c["context.update"],
            "alternatives.generated": c["generated"],
            "alternatives.pruned": c["pruned"],
            "alternatives.exh_negations": c["exh_negations"],
            "judge.trace_steps": c["trace_steps"],
            "dsl.render_calls": c["dsl.render"],
            "report.json_bytes": c["json_bytes"],
        }
        for metric in PER_LAYER:
            if metric.endswith("_s") and metric not in out:
                out[metric] = s[metric[:-2]]
        return {m: out[m] for m in PER_LAYER}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
