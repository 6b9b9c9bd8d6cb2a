"""Load generator: one process, one closed-loop client, `--jobs 1`.

Usage: python3 perfbench/worker.py PLAN.json  (PYTHONPATH must hold src/)

Runs every command over every corpus file through `pentaseven.cli.main`, each
op starting when the previous one has finished, in rounds of one pass per
command, until the plan's seconds have passed and its minimum round count is
met.  The host speed reference (speed.py) is sampled between ops, at least
every 50 ms, and after the last op.  Each op starts from a collected heap.
With "trace" set, rounds alternate between untraced and traced (see
spans.py).  Outputs of the first untraced round are kept for checking; every
later round must repeat them, timing field aside.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import re
import resource
import sys
import time
import traceback

from pentaseven import cli

import spans
from speed import Sampler

_TIMING = re.compile(r'"timing_ms": [-+0-9.eE]+')


def run_op(command: str, path: str):
    """(seconds, exit code or None, stdout, error text or None).

    The op starts from a collected heap, so that when the collector runs
    inside it, and over how much, depends on the op alone and not on the
    ops before it (see main)."""
    gc.collect()
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main([command, "--jobs", "1", path])
        err = None
    except (Exception, SystemExit):
        code, err = None, traceback.format_exc()
    return time.perf_counter() - start, code, buf.getvalue(), err


def main(plan_path: str) -> None:
    with open(plan_path) as fh:
        plan = json.load(fh)
    files, commands = plan["files"], plan["commands"]
    smallest = plan["smallest"]
    for command in commands:  # fill caches and finish lazy imports
        run_op(command, smallest)
    # Everything alive now (modules, caches) is left out of later collections;
    # without this a full collection before each op costs 8-16 ms.
    gc.collect()
    gc.freeze()

    tracer = spans.Tracer() if plan["trace"] else None
    first: dict[str, list] = {}
    mismatches = {c: [0] * len(files) for c in commands}
    errors: list[str] = []
    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        entry = {"traced": traced, "lat": {}, "start": {}, "ref": {}}
        for command in commands:
            results, starts, sampler = [], [], Sampler()
            with spans.instrument(tracer) if traced else contextlib.nullcontext():
                for path in files:
                    sampler.tick()
                    starts.append(time.perf_counter())
                    if traced:
                        tracer.begin_op(len(rounds), command, path)
                        with tracer.span("cli.op"):
                            results.append(run_op(command, path))
                    else:
                        results.append(run_op(command, path))
            sampler.tick(force=True)
            entry["start"][command] = starts
            entry["ref"][command] = sampler.samples
            entry["lat"][command] = [r[0] for r in results]
            if command not in first:
                first[command] = [list(r[1:]) for r in results]
                continue
            for i, (_, code, out, err) in enumerate(results):
                want_code, want_out, _ = first[command][i]
                if err or code != want_code or (
                    _TIMING.sub("", out) != _TIMING.sub("", want_out)
                ):
                    mismatches[command][i] += 1
                    if len(errors) < 5:
                        errors.append(f"{command} {files[i]} round {len(rounds)}: "
                                      f"exit {code}, {err or 'output differs'}")
        rounds.append(entry)
        done = len(rounds) >= plan["min_rounds"] and (
            time.perf_counter() - start >= plan["seconds"]
        )
        if done and (tracer is None or len(rounds) % 2 == 0):
            break

    result = {
        "rounds": rounds,
        "first": first,
        "mismatches": mismatches,
        "errors": errors,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.write_jsonl(plan["spans_path"])
        result["layers"] = tracer.layer_metrics()
        result["op_medians_ms"] = tracer.op_medians()
    with open(plan["result_path"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
