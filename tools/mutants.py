"""Named mutants of pentaseven, each a bug the tier-1 tests must kill by meaning.

Usage, from the repository root:

    python3 tools/mutants.py

Each mutant is an exact (file, old text, new text) edit of one file under
`src/`.  For each mutant, the script copies `src/` to a temporary directory,
applies the edit there and runs the tier-1 tests against the copy, stopping
at the first failure, with the two digest tests deselected: a digest only
detects change, so it would kill every mutant that changes a report and show
nothing about what the change means.  The unmutated copy runs first and must
pass, so that a kill is the mutant's and not a broken suite's; a mutant run
that takes more than TIMEOUT_FACTOR times as long as the unmutated one is
stopped and counts as killed.  Exits 1 when the unmutated copy fails or any
mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (file under src/, old text, new text); the old text occurs once
MUTANTS = {
    # the colorer extends along the simplicial prefix, not its reverse
    "extend-along-prefix": (
        "pentaseven/color.py",
        "greedy_extend(g, list(reversed(report.prefix.order)), assignment)",
        "greedy_extend(g, list(report.prefix.order), assignment)",
    ),
    # the universal strip never tests vertex 0
    "strip-skips-vertex-0": (
        "pentaseven/decompose.py",
        "    for v in bits(within):\n        if g.closed_row(v) & within == within:",
        "    for v in bits(within & ~1):\n        if g.closed_row(v) & within == within:",
    ),
    # the universal strip leaves its highest universal vertex in place
    "strip-keeps-highest-universal": (
        "pentaseven/decompose.py",
        "    return tuple(bits(w)), within & ~w",
        "    w &= ~(1 << w.bit_length() >> 1)\n    return tuple(bits(w)), within & ~w",
    ),
    # the LP's ratio ties go to the larger basic variable, against Bland
    "lp-ratio-ties-to-larger-basic": (
        "pentaseven/color.py",
        "(d == 0 and basis[i] > basis[row])",
        "(d == 0 and basis[i] < basis[row])",
    ),
    # the LP's primal x keeps its sets in column order, not ascending
    "lp-x-in-column-order": (
        "pentaseven/color.py",
        "x = dict(sorted((s - n, -f)",
        "x = dict(((s - n, -f)",
    ),
    # a color class hands all its colors to each of its vertices
    "assign-ignores-remaining": (
        "pentaseven/color.py",
        "t = min(times, remaining[v])",
        "t = times",
    ),
    # the peel starts from the whole weights, not the rounded-down LP primal
    "peel-skips-floor": (
        "pentaseven/color.py",
        "classes = [(all_sets[s], xs // x_den) for s, xs in x.items() if xs >= x_den]",
        "classes = []",
    ),
    # the peel takes its first candidate without testing the residual's LP
    "peel-skips-lp-test": (
        "pentaseven/color.py",
        "if -(-sum(x.values()) // x_den) <= left - 1:",
        "if True:",
    ),
    # the embedding walker ignores the pattern's ties
    "embed-ignores-ties": (
        "pentaseven/catalog.py",
        "tied = ties[k]",
        "tied = ()",
    ),
    # every later level of order[k]'s degree is tied to k, automorphism or not
    "ties-on-every-same-degree-level": (
        "pentaseven/catalog.py",
        "            sigma = embed(plan, p, [*fixed, 1 << order[j], *rest])\n"
        "            if sigma is None:\n"
        "                continue\n"
        "            tied.append(j)\n",
        "            tied.append(j)\n"
        "            sigma = embed(plan, p, [*fixed, 1 << order[j], *rest])\n"
        "            if sigma is None:\n"
        "                continue\n",
    ),
    # the walker takes masks that differ across an orbit of the pattern
    "embed-drops-orbit-check": (
        "pentaseven/catalog.py",
        "for k, o in plan.orbits:",
        "for k, o in ():",
    ),
    # the expression algebra loads the pipeline it certifies
    "expr-imports-pipeline": (
        "pentaseven/expr.py",
        "from .core import Graph, bits, parse_int\n",
        "from .core import Graph, bits, parse_int\nfrom . import recognize  # noqa: F401\n",
    ),
    # a walker handed an expression's walk walks and checks it again
    "cwd-rechecks": (
        "pentaseven/expr.py",
        "    if type(expr) is Walk:\n        return expr\n",
        "    if type(expr) is Walk:\n        expr = expr.root\n",
    ),
    # the one checked walk records no rule break, so no walker raises one
    "walk-records-no-break": (
        "pentaseven/expr.py",
        "last, message = len(nodes), why",
        "pass",
    ),
    # the edge-json screen looks for true but not for false
    "json-screen-misses-false": (
        "pentaseven/cli.py",
        'may_hold_bool = all(c in text for c in "tru") or all(c in text for c in "fal")',
        'may_hold_bool = all(c in text for c in "tru")',
    ),
    # edge-json pairs are always folded without the type test
    "text-fold-unscreened": (
        "pentaseven/cli.py",
        'checked=may_hold_bool)',
        'checked=False)',
    ),
    # the fold never looks for a loop on the diagonal
    "fold-skips-loop-check": (
        "pentaseven/core.py",
        "if any(r & b for r, b in zip(rows, bit)):  # a loop",
        "if False:",
    ),
    # the cell loop sets each pair's cell in the first endpoint's row only
    "cell-fold-one-direction": (
        "pentaseven/core.py",
        "            cells[v][u] = 1\n",
        "",
    ),
    # the cell loop never looks for a loop on the diagonal
    "cell-fold-skips-loop-check": (
        "pentaseven/core.py",
        "if any(map(bytearray.__getitem__, cells, range(n))):  # a loop",
        "if False:",
    ),
    # the cell loop's rows are one byte longer than n
    "cell-rows-past-n": (
        "pentaseven/core.py",
        "[bytearray(n) for _ in range(n)]",
        "[bytearray(n + 1) for _ in range(n)]",
    ),
    # the bit walker drops each mask's highest member
    "bits-drops-highest": (
        "pentaseven/core.py",
        'in bin(mask)[:1:-1].split("1")[:-1]:',
        'in bin(mask)[:1:-1].split("1")[:-2]:',
    ),
    # the edge list skips each vertex's next vertex
    "edges-skips-next-vertex": (
        "pentaseven/core.py",
        "for v in bits(r & -(2 << u))]",
        "for v in bits(r & -(4 << u))]",
    ),
}

DIGEST_TESTS = (
    "tests/test_corpus_digest.py::test_tiny_corpus_digest",
    "tests/test_report_digest.py::test_reports_match_golden_digest",
)
# a mutant run that keeps a search from ending is stopped after this many
# times the unmutated run's time, and counts as killed; a surviving mutant
# runs the whole suite in about the unmutated time
TIMEOUT_FACTOR = 3


def run_tier1(src: Path, timeout: float | None) -> tuple[bool, str]:
    """(passed, summary) of the tier-1 tests run against the tree src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           str(ROOT / "tests")]
    for test in DIGEST_TESTS:
        cmd += ["--deselect", test]
    try:
        # run from the temporary directory, so hypothesis keeps its examples there
        proc = subprocess.run(cmd, cwd=src.parent, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines() or proc.stderr.strip().splitlines()
    failed = [ln.split(" - ")[0] for ln in lines if ln.startswith(("FAILED ", "ERROR "))]
    summary = lines[-1] if lines else f"exit {proc.returncode}"
    return proc.returncode == 0, "; ".join([summary, *failed])


def apply_edit(src: Path, name: str) -> None:
    path, old, new = MUTANTS[name]
    target = src / path
    text = target.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"mutant {name}: its text occurs {text.count(old)} times in {path}")
    target.write_text(text.replace(old, new))


def main() -> int:
    survivors = []
    timeout = None
    for name in [None, *MUTANTS]:
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            if name is not None:
                apply_edit(src, name)
            start = time.monotonic()
            passed, summary = run_tier1(src, timeout)
        if name is None:
            print(f"unmutated: {summary}", flush=True)
            if not passed:
                return 1
            timeout = TIMEOUT_FACTOR * (time.monotonic() - start)
        else:
            print(f"{name}: {'SURVIVED' if passed else 'killed'} ({summary})", flush=True)
            if passed:
                survivors.append(name)
    if survivors:
        print(f"{len(survivors)} mutants survived: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
