"""Digest of every recognize, color and cwd report over the benchmark corpora.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/corpus_digest.py [--seeds 1 2] [--scale S] [--stride K]

Builds the corpus of each workload of `perfbench/corpus.py` (read, never
changed) for each seed in a temporary directory, runs recognize, color and
cwd on every file through `cli.main` in this process, and hashes the exit
codes and reports with `timing_ms` removed and the temporary directory cut
from each input path.  Prints one sha256 per workload and one over all of
them, with the number of reports each covers.  Two source trees whose
digests agree wrote the same reports, byte for byte except `timing_ms`; run
the script once with each tree on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402  (perfbench/corpus.py)

from pentaseven import cli  # noqa: E402

COMMANDS = ("recognize", "color", "cwd")
_TIMING = re.compile(r'"timing_ms": [-+0-9.eE]+')


def workload_digest(workload: str, seeds, scale: float, stride: int) -> tuple[str, int]:
    """(sha256 hex, report count) of one workload over the seeds."""
    h = hashlib.sha256()
    count = 0
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            prefix = os.path.join(tmp, "")
            items = corpus.build(workload, seed, tmp, scale=scale, stride=stride)
            for command in COMMANDS:
                for item in items:
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = cli.main([command, "--jobs", "1", item.path])
                    text = _TIMING.sub("", buf.getvalue()).replace(prefix, "")
                    h.update(f"{code}\n{text}".encode())
                    count += 1
    return h.hexdigest(), count


def digests(seeds, scale: float = 1.0, stride: int = 1) -> dict[str, tuple[str, int]]:
    """Workload name -> (digest, report count), plus "all" over the
    workloads in order."""
    out = {}
    total = hashlib.sha256()
    for workload in corpus.WORKLOADS:
        out[workload] = workload_digest(workload, seeds, scale, stride)
        total.update(out[workload][0].encode())
    out["all"] = total.hexdigest(), sum(count for _, count in out.values())
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--stride", type=int, default=1)
    args = ap.parse_args(argv)
    for name, (digest, count) in digests(args.seeds, args.scale, args.stride).items():
        print(f"{name:16} {count:6} reports  {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
