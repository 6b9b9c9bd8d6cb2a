"""Traced run of the pipeline, recorded from outside the package.

While `instrument` is active, the CLI runs as usual, but the public functions
that the CLI, `recognize.recognize`, the colorer and the expression builder
call at module level are wrapped in spans, as is `core.Graph.__init__`.  The
program's own `recognize` runs; only the names it calls are replaced.

A span's self time is its duration minus the time of the spans nested in it,
so every layer's figure excludes the layers it calls.  Layers without a
public boundary of their own are the self time of their caller: for example
`color.extend` is `color_in_class` minus `recognize` and `solve_weighted`.
Spans stay in memory until `write_jsonl`.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

from pentaseven import cli, color, core, cwd, decompose, oracle
from pentaseven import recognize as rec

# Per-layer metrics: name -> span name whose self time it sums.
SPAN_METRICS = {
    "cli.load_graph_ms": "cli.load_graph",
    "cli.report_ms": "cli.report",
    "core.graph_init_ms": "core.graph_init",
    "core.induced_subgraph_ms": "core.induced_subgraph",
    "decompose.simplicial_prefix_ms": "decompose.simplicial_prefix",
    "decompose.strip_universals_ms": "decompose.strip_universals",
    "decompose.twin_classes_ms": "decompose.twin_classes",
    "catalog.match_catalog_ms": "catalog.match_catalog",
    "recognize.build_partition_ms": "recognize.build_partition",
    "recognize.verify_ms": "recognize.verify",
    "oracle.class_verdict_ms": "oracle.class_verdict",
    "color.solve_weighted_ms": "color.solve_weighted",
    "color.extend_ms": "color.color_in_class",
    "cwd.thickening_expr_ms": "cwd.expr_for_class_graph",
    "cwd.eval_to_graph_ms": "cwd.eval_to_graph",
    "cwd.to_sexpr_ms": "cwd.to_sexpr",
}

# Count metrics: name -> the command whose ops contribute to it.
COUNT_METRICS = {
    "decompose.prefix_len": "recognize",
    "decompose.w_size": "recognize",
    "decompose.quotient_k": "recognize",
    "recognize.refusals": "recognize",
    "recognize.witnessed": "recognize",
    "color.weight_sum": "color",
    "cwd.expr_nodes": "cwd",
}


class Tracer:
    """In-memory span recorder; one op at a time, spans nest by call."""

    def __init__(self):
        self.spans: list[tuple[int, str, str | None, float, float, float]] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.ops: list[tuple[int, str, str]] = []  # (round, command, path)
        self._stack: list[list] = []

    def begin_op(self, round_no: int, command: str, path: str) -> None:
        self.ops.append((round_no, command, path))

    @property
    def op(self) -> int:
        return len(self.ops) - 1

    @contextmanager
    def span(self, name: str):
        frame = [name, 0.0]  # name, time covered by child spans
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            self.spans.append((self.op, name, parent, start, dur, dur - frame[1]))

    def count(self, name: str, value: int) -> None:
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer sums over one traced round, median over traced rounds."""
        rounds = sorted({r for r, _, _ in self.ops})
        per_round: dict[str, list[float]] = {}
        for r in rounds:
            ops = {i for i, (rr, _, _) in enumerate(self.ops) if rr == r}
            sums = dict.fromkeys(SPAN_METRICS.values(), 0.0)
            for op, name, _, _, _, self_s in self.spans:
                if op in ops and name in sums:
                    sums[name] += self_s
            for metric, span_name in SPAN_METRICS.items():
                per_round.setdefault(metric, []).append(1000.0 * sums[span_name])
            for metric, command in COUNT_METRICS.items():
                total = sum(
                    v for (op, name), v in self.counts.items()
                    if name == metric and op in ops and self.ops[op][1] == command
                )
                per_round.setdefault(metric, []).append(total)
        return {m: statistics.median(v) for m, v in per_round.items()}

    def op_medians(self) -> dict[str, float]:
        """Median self time per op, in ms, over the ops a layer appears in."""
        per_op: dict[tuple[str, int], float] = {}
        for op, name, _, _, _, self_s in self.spans:
            per_op[(name, op)] = per_op.get((name, op), 0.0) + self_s
        by_name: dict[str, list[float]] = {}
        for (name, _), v in per_op.items():
            by_name.setdefault(name, []).append(1000.0 * v)
        return {name: statistics.median(v) for name, v in sorted(by_name.items())}

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for op, name, parent, start, dur, self_s in self.spans:
                r, command, file = self.ops[op]
                fh.write(json.dumps({
                    "op": op, "round": r, "command": command, "input": file,
                    "span": name, "parent": parent, "start_s": start,
                    "dur_ms": 1000.0 * dur, "self_ms": 1000.0 * self_s,
                }) + "\n")


class _TimedJson:
    """Stands in for the `json` module inside `cli`; times encoding."""

    def __init__(self, tr: Tracer):
        self._dumps = tr.wrap("cli.report", json.dumps)

    def dumps(self, *args, **kwargs):
        return self._dumps(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(json, name)


@contextmanager
def instrument(tr: Tracer):
    """Wrap the pipeline's public calls in spans; restore on exit."""
    recognize = rec.recognize

    def traced_recognize(g):
        with tr.span("recognize.recognize"):
            report = recognize(g)
        if report.kind == rec.NOT_IN_CLASS:
            tr.count("recognize.refusals", 1)
            tr.count("recognize.witnessed", report.witness is not None)
        return report

    def counted(span: str, fn, metric: str, measure):
        timed = tr.wrap(span, fn)

        def call(*args, **kwargs):
            out = timed(*args, **kwargs)
            tr.count(metric, measure(out))
            return out

        return call

    solve = color.solve_weighted

    def traced_solve(inst):
        tr.count("color.weight_sum", sum(inst.weights))
        with tr.span("color.solve_weighted"):
            return solve(inst)

    build_expr = cwd.expr_for_class_graph

    def traced_expr(g):
        with tr.span("cwd.expr_for_class_graph"):
            expr = build_expr(g)
        tr.count("cwd.expr_nodes", sum(1 for _ in cwd.iter_nodes(expr)))
        return expr

    induced = tr.wrap("core.induced_subgraph", core.induced_subgraph)
    patches = [
        (core.Graph, "__init__", tr.wrap("core.graph_init", core.Graph.__init__)),
        (decompose, "induced_subgraph", induced),
        (rec, "induced_subgraph", induced),
        (rec, "simplicial_prefix",
         counted("decompose.simplicial_prefix", rec.simplicial_prefix,
                 "decompose.prefix_len", lambda pre: len(pre.order))),
        (rec, "strip_universals",
         counted("decompose.strip_universals", rec.strip_universals,
                 "decompose.w_size", lambda out: len(out[0]))),
        (rec, "twin_classes",
         counted("decompose.twin_classes", rec.twin_classes,
                 "decompose.quotient_k", lambda twins: twins.quotient.n)),
        (rec, "match_catalog", tr.wrap("catalog.match_catalog", rec.match_catalog)),
        (rec, "build_tent_from_T0",
         tr.wrap("recognize.build_partition", rec.build_tent_from_T0)),
        (rec, "build_saucer_from_hole",
         tr.wrap("recognize.build_partition", rec.build_saucer_from_hole)),
        (rec, "verify_saucer_partition",
         tr.wrap("recognize.verify", rec.verify_saucer_partition)),
        (rec, "verify_tent_partition",
         tr.wrap("recognize.verify", rec.verify_tent_partition)),
        (oracle, "class_verdict",
         tr.wrap("oracle.class_verdict", oracle.class_verdict)),
        (rec, "recognize", traced_recognize),
        (color, "recognize", traced_recognize),
        (cwd, "recognize", traced_recognize),
        (color, "solve_weighted", traced_solve),
        (color, "color_in_class",
         tr.wrap("color.color_in_class", color.color_in_class)),
        (cwd, "expr_for_class_graph", traced_expr),
        (cwd, "to_sexpr", tr.wrap("cwd.to_sexpr", cwd.to_sexpr)),
        (cwd, "eval_to_graph", tr.wrap("cwd.eval_to_graph", cwd.eval_to_graph)),
        (cli, "load_graph", tr.wrap("cli.load_graph", cli.load_graph)),
        (cli, "report_to_json", tr.wrap("cli.report", cli.report_to_json)),
        (cli, "json", _TimedJson(tr)),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, value in patches:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in saved:
            setattr(obj, attr, value)
