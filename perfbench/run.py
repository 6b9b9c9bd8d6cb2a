"""Pipeline benchmark: the CLI end to end, and each layer when traced.

Run from the repository root:

    python3 perfbench/run.py --workload thick_large --seed 1 --seconds 20 --trace 0

Workloads are thick_large, pendant_prefix and desk_mix (see corpus.py).  The
corpus is built from --seed; the program sees only the generated files.  One
worker process (worker.py) runs recognize, color and cwd over the corpus
through `pentaseven.cli.main` with --jobs 1, one op at a time, in rounds of
one pass per command, for --seconds and at least three rounds.  Every output
is checked (checks.py).

--trace 0 reports the end-to-end metrics.  Every time is scaled to a fixed
host speed by a reference kernel timed next to it (speed.py): the shared
host's cores slow by up to 1.8x for minutes, which no statistic within one
run removes.  An op's latency is the median of its scaled times
over the rounds; batch_s sums those over the corpus, p50_ms is their median
and tail_ms the highest of p50/p75/p90/p95/p99 with ten ops beyond it.
setup_s is the median scaled wall time of fresh
`python -m pentaseven.cli recognize` runs on the smallest corpus file, half
of them before the worker and half after it.  The detail line gives the
unscaled batch times and the host speed.
peak_rss_mb is the worker's peak resident memory and ok_ratio the share of
ops that passed every check.

--trace 1 alternates untraced and traced rounds, timing the pipeline's public
calls in spans (spans.py), and reports the per-layer metrics and the tracing
overhead.  Traced outputs must equal the untraced ones.

The last line of stdout is the result object; the lines before it give
machine facts and details.  The package is imported from src/ of the
checkout; without it the benchmark exits with code 2.  It never sets
PENTASEVEN_KERNELS or PENTASEVEN_ORACLE_CAP.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
COMMANDS = ("recognize", "color", "cwd")
# Every op runs in at least this many rounds, even past --seconds, and its
# latency is the median over them.
MIN_ROUNDS = 3
SETUP_SAMPLES = 6  # before the worker, and again after it
PERCENTILES = (99, 95, 90, 75, 50)


class BenchError(Exception):
    pass


def tail_percentile(samples: int) -> int:
    """Highest percentile with at least ten samples beyond it."""
    for p in PERCENTILES:
        if samples - math.ceil(p / 100 * samples) >= 10:
            return p
    return PERCENTILES[-1]


def percentile(values: list[float], p: int) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def machine_facts() -> dict:
    import numpy

    from pentaseven import _kernels

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels_backend": _kernels.BACKEND,
        "PENTASEVEN_KERNELS": os.environ.get("PENTASEVEN_KERNELS"),
        "PENTASEVEN_ORACLE_CAP": os.environ.get("PENTASEVEN_ORACLE_CAP"),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_seconds(path: str, samples: int, deadline: float,
                  warm: bool = False) -> tuple[list[float], list[float]]:
    """Scaled wall times (speed.py) of fresh
    `python -m pentaseven.cli recognize <path>` runs, and the unscaled ones;
    unless warm, one unmeasured run first writes the bytecode caches."""
    cmd = [sys.executable, "-m", "pentaseven.cli", "recognize", path]
    sampler, starts, times = speed.Sampler(), [], []
    for i in range(samples + (not warm)):
        sampler.tick(force=True)
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up run exited {proc.returncode}: "
                             f"{proc.stderr.decode(errors='replace')[-500:]}")
        if i or warm:
            starts.append(start)
            times.append(elapsed)
    sampler.tick(force=True)
    return speed.scaled(starts, times, sampler.samples), times


def run_worker(plan: dict, work: Path, deadline: float) -> dict:
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), str(plan_path)]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(Path(plan["result_path"]).read_text())


def count_failures(items, result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): a failed check of the first round's
    output fails that op in every round; later rounds must repeat it."""
    import checks

    rounds = len(result["rounds"])
    attempted = rounds * len(COMMANDS) * len(items)
    failed = 0
    messages = list(result["errors"])
    for i, item in enumerate(items):
        outputs = {c: result["first"][c][i] for c in COMMANDS}
        errors = checks.check_item(item, outputs)
        for command in COMMANDS:
            if errors.get(command):
                failed += rounds
                messages.append(f"{command} {item.name}: {errors[command]}")
            else:
                failed += result["mismatches"][command][i]
    return attempted, failed, messages


def latencies(result: dict, command: str) -> list[float]:
    """Each op's median scaled time over the untraced rounds, in corpus order."""
    rounds = [speed.scaled(r["start"][command], r["lat"][command], r["ref"][command])
              for r in result["rounds"] if not r["traced"]]
    return [statistics.median(op) for op in zip(*rounds)]


def end_to_end(result: dict, setup: list[float], tail_p: int) -> dict:
    metrics = {"setup_s": (statistics.median(setup), "s")}
    for command in COMMANDS:
        lat = latencies(result, command)
        metrics[f"{command}.batch_s"] = (sum(lat), "s")
        metrics[f"{command}.p50_ms"] = (1000.0 * statistics.median(lat), "ms")
        metrics[f"{command}.tail_ms"] = (1000.0 * percentile(lat, tail_p), "ms")
    metrics["peak_rss_mb"] = (result["peak_rss_kb"] / 1024.0, "MB")
    return metrics


def per_layer(result: dict) -> dict:
    layers = dict(result["layers"])
    metrics = {}
    for name, value in layers.items():
        unit = "ms" if name.endswith("_ms") else "count"
        metrics[name] = (value, unit)
    refusals = layers["recognize.refusals"]
    ratio = layers["recognize.witnessed"] / refusals if refusals else 0.0
    metrics["recognize.witness_ratio"] = (ratio, "ratio")

    def total(traced: bool) -> float:  # median round of scaled op times
        return statistics.median(
            sum(sum(speed.scaled(r["start"][c], r["lat"][c], r["ref"][c]))
                for c in COMMANDS)
            for r in result["rounds"] if r["traced"] == traced)

    metrics["trace.overhead_pct"] = (100.0 * (total(True) / total(False) - 1), "%")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("thick_large", "pendant_prefix", "desk_mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny corpus and few samples, for smoke.py")
    args = ap.parse_args(argv)
    # The worker measures for --seconds, then finishes its round.
    deadline = time.monotonic() + 80 + 3 * args.seconds

    if not (SRC / "pentaseven" / "__init__.py").is_file():
        print(f"benchmark: no package at {SRC / 'pentaseven'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corpus

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        stride = 6 if args.smoke else 1
        items = corpus.build(args.workload, args.seed, str(work / "corpus"),
                             scale=0.25 if args.smoke else 1.0, stride=stride)
        files = [it.path for it in items]
        smallest = min(items, key=lambda it: it.n).path
        min_rounds = 2 if args.trace else 1 if args.smoke else MIN_ROUNDS
        setup_samples = 0 if args.trace else 2 if args.smoke else SETUP_SAMPLES
        setup = [setup_seconds(smallest, setup_samples, deadline)] if setup_samples else []
        result = run_worker({
            "files": files, "commands": COMMANDS, "smallest": smallest,
            "seconds": args.seconds, "min_rounds": min_rounds,
            "trace": bool(args.trace), "result_path": str(work / "result.json"),
            "spans_path": str(work / "spans.jsonl"),
        }, work, deadline)
        if setup_samples:
            setup.append(setup_seconds(smallest, setup_samples, deadline, warm=True))
        attempted, failed, messages = count_failures(items, result)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work / "corpus", ignore_errors=True)
    for msg in messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)

    tail_p = tail_percentile(len(files))
    if args.trace:
        metrics = per_layer(result)
        detail = {"traced_rounds": sum(r["traced"] for r in result["rounds"]),
                  "op_medians_ms": result["op_medians_ms"],
                  "spans": str(work / "spans.jsonl")}
    else:
        metrics = end_to_end(result, [t for s, _ in setup for t in s], tail_p)
        metrics["ok_ratio"] = (1.0 - failed / attempted, "ratio")
        refs = [t for r in result["rounds"] for v in r["ref"].values() for _, t in v]
        detail = {"rounds": len(result["rounds"]),
                  "tail": {"percentile": tail_p, "samples_per_command": len(files)},
                  "host_speed": speed.REF_SECONDS / statistics.median(refs),
                  "unscaled_batch_s": {
                      c: sum(statistics.median(op) for op in zip(
                          *(r["lat"][c] for r in result["rounds"])))
                      for c in COMMANDS},
                  "setup_samples_s": [t for _, times in setup for t in times]}
    print(json.dumps({"machine": machine_facts()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "corpus_files": len(files), "detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
