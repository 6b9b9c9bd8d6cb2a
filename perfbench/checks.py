"""Output checks for one op: what the CLI printed against ground truth.

recognize: the verdict agrees with ground truth; an accepted partition
passes its verifier; a refusal witness, when present, is a valid embedding.
color: the benchmark's own edge scan finds the coloring proper, and at
n <= CHROMATIC_CAP it uses exactly the chromatic number.
cwd: width <= 12 and the expression, parsed back, evaluates to the input
edge for edge; inputs with a simplicial vertex, or refused, exit with 3.
"""

from __future__ import annotations

import json

import numpy as np

from pentaseven import cwd, oracle
from pentaseven import recognize as rec
from pentaseven.catalog import pattern
from pentaseven.core import Graph

EXIT_OK, EXIT_REFUSED = 0, 3
MAX_WIDTH = 12


def oracle_truth(g: Graph) -> bool | None:
    """Exact membership at desk scale, None above the oracle's cap."""
    if g.n > oracle.VERDICT_CAP:
        return None
    return oracle.class_verdict(g).in_class


def has_simplicial(adj: np.ndarray) -> bool:
    """Some vertex whose neighborhood is a clique (counted with BLAS)."""
    a = adj.astype(np.float64)
    deg = a.sum(axis=1)
    inside = ((a @ a) * a).sum(axis=1) / 2  # edges inside each N(v)
    return bool(np.any(inside == deg * (deg - 1) / 2))


def is_chordal(adj: np.ndarray) -> bool:
    """Repeatedly delete a simplicial vertex; chordal iff all go."""
    n = adj.shape[0]
    rows = [int(sum(1 << int(u) for u in np.flatnonzero(adj[v]))) for v in range(n)]
    alive = (1 << n) - 1
    while alive:
        for v in range(n):
            if not alive >> v & 1:
                continue
            nb = rows[v] & alive
            if all(nb & ~(1 << u) & ~rows[u] == 0
                   for u in range(n) if nb >> u & 1):
                alive &= ~(1 << v)
                break
        else:
            return False
    return True


def _partition(verdict: dict):
    p = verdict["partition"]
    sets = {k: frozenset(v) for k, v in p.items() if isinstance(v, list)
            and all(isinstance(x, int) for x in v)}
    if verdict["kind"] == rec.IN_CLASS_C7:
        special = rec.SpecialPartition(
            x=tuple(sets[f"X{i}"] for i in rec.MOD7),
            y=tuple(sets[f"Y{i}"] for i in rec.MOD7),
            z=tuple(sets[f"Z{i}"] for i in rec.MOD7),
            w=sets["W"],
        )
        part = rec.SaucerPartition(
            special=special, a=sets["A"],
            a_components=tuple(tuple(c) for c in p["A_components"]),
        )
        return rec.verify_saucer_partition, part
    part = rec.TentPartition(
        **{k.lower(): sets[k] for k in ("A0", "A1", "B0", "B1", "B2", "B3", "C1",
                                        "C2", "C3", "F2", "F3", "W", "Y", "Z")},
        y_order=tuple(p["Y_order"]),
        z_components=tuple(tuple(c) for c in p["Z_components"]),
    )
    return rec.verify_tent_partition, part


def check_recognize(g: Graph, truth: bool | None, code, report: dict) -> str | None:
    if code != EXIT_OK:
        return f"exit {code}, expected {EXIT_OK}"
    verdict = report["verdict"]
    accepted = verdict["kind"] != rec.NOT_IN_CLASS
    if truth is not None and accepted != truth:
        return f"verdict {verdict['kind']!r} disagrees with ground truth"
    if accepted:
        verify, part = _partition(verdict)
        violations = verify(g, part)
        if violations:
            return f"partition fails its verifier: {violations[0]}"
    elif "witness" in verdict:
        w = verdict["witness"]
        if w["pattern"] not in ("2P3", "C4", "C6"):
            return f"witness pattern {w['pattern']!r} is not an obstruction"
        emb = oracle.Embedding(pattern(w["pattern"]),
                               {int(k): v for k, v in w["image"].items()})
        if not emb.is_valid(g):
            return "refusal witness is not an induced copy"
    return None


def check_color(g: Graph, adj: np.ndarray, in_class: bool, code,
                report: dict) -> str | None:
    want = EXIT_OK if in_class or is_chordal(adj) else EXIT_REFUSED
    if code != want:
        return f"exit {code}, expected {want}"
    if code == EXIT_REFUSED:
        return None if "refusal" in report else "refusal without a report"
    colors = report["coloring"]
    if sorted(map(int, colors)) != list(range(g.n)):
        return "coloring does not cover the vertices exactly"
    col = np.array([colors[str(v)] for v in range(g.n)])
    iu, iv = np.nonzero(np.triu(adj, k=1))
    if np.any(col[iu] == col[iv]):
        return "coloring is not proper"
    if len(set(col.tolist())) != report["num_colors"]:
        return "num_colors does not match the colors used"
    if g.n <= oracle.CHROMATIC_CAP:
        chi, _ = oracle.chromatic_number_bf(g)
        if chi != report["num_colors"]:
            return f"{report['num_colors']} colors, chromatic number is {chi}"
    return None


def check_cwd(adj: np.ndarray, in_class: bool, code, report: dict) -> str | None:
    want = EXIT_OK if in_class and not has_simplicial(adj) else EXIT_REFUSED
    if code != want:
        return f"exit {code}, expected {want}"
    if code == EXIT_REFUSED:
        return None if "refusal" in report else "refusal without a report"
    if report["width"] > MAX_WIDTH or not report["evaluates_to_input"]:
        return f"width {report['width']}, evaluates {report['evaluates_to_input']}"
    expr = cwd.from_sexpr(report["expression"])
    if cwd.width(expr) > MAX_WIDTH:
        return "parsed expression is wider than 12"
    if not np.array_equal(cwd.eval_to_graph(expr).adj, adj):
        return "expression does not evaluate to the input"
    return None


def check_item(item, outputs: dict[str, list]) -> dict[str, str | None]:
    """Errors per command for one corpus file; outputs[cmd] = [code, out, err]."""
    g = Graph(item.adj)
    truth = oracle_truth(g) if item.truth is None else item.truth
    errors: dict[str, str | None] = {}
    reports = {}
    for command, (code, out, err) in outputs.items():
        if err:
            errors[command] = err.strip().splitlines()[-1]
            continue
        try:
            reports[command] = json.loads(out)
        except json.JSONDecodeError:
            errors[command] = "output is not one JSON object"
    in_class = truth
    if "recognize" in reports:
        verdict = reports["recognize"].get("verdict", {})
        if in_class is None and "kind" in verdict:
            # no ground truth: hold color and cwd to the recognize verdict
            in_class = verdict["kind"] != rec.NOT_IN_CLASS
    for command, report in reports.items():
        code = outputs[command][0]
        try:
            if command == "recognize":
                errors[command] = check_recognize(g, truth, code, report)
            elif in_class is None:
                errors[command] = "no ground truth and no recognize verdict"
            elif command == "color":
                errors[command] = check_color(g, item.adj, in_class, code, report)
            else:
                errors[command] = check_cwd(item.adj, in_class, code, report)
        except (KeyError, ValueError, TypeError) as exc:
            errors[command] = f"malformed report: {exc!r}"
    return errors
