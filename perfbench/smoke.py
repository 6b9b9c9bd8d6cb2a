"""Smoke check of the benchmark itself, in about a minute.

Run from the repository root:  python3 perfbench/smoke.py

Runs every workload on a tiny corpus (run.py --smoke), traced and untraced,
and fails unless each result line names exactly the metrics of
BENCHMARK.json with their units and every output check passed.  It also runs
the benchmark in a directory that holds only BENCHMARK.json and perfbench/,
where it must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--smoke")
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} "
                                f"differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} ops failed: {proc.stderr[-500:]}")
            print(f"{where}: {len(got)} metrics, {result['attempted']} ops checked")

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "--workload", "desk_mix", "--seed", "7", "--seconds", "1",
               "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("without src/ the benchmark did not fail cleanly")
    else:
        print(f"without src/: exit {proc.returncode}, no result")

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
