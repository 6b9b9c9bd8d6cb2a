"""Batch command-line surface: parse graphs, run the pipeline, emit JSON
reports and DOT visualizations.

Exit codes are a stable contract: 0 success, 2 input error, 3 out-of-class
refusal, 4 size-cap violation.  Reports from identical inputs are
byte-identical except for the timing field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from multiprocessing import Pool

from . import __version__, color, cwd, generate, oracle, recognize
from .catalog import pattern
from .core import Graph, build_graph, relation

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REFUSED = 3
EXIT_SIZE_CAP = 4

SCHEMA = 1


class InputError(Exception):
    pass


class SizeCapError(Exception):
    pass


# ---------------------------------------------------------------------------
# graph file formats


VERTEX_CAP = 10_000


def _build(n, edges) -> Graph:
    """build_graph behind the vertex cap, which is checked before the n x n
    adjacency is allocated; malformed input becomes an InputError."""
    if isinstance(n, int) and n > VERTEX_CAP:
        raise SizeCapError(f"graphs are capped at {VERTEX_CAP} vertices, got {n}")
    try:
        return build_graph(n, edges)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def parse_dimacs(text: str) -> Graph:
    n = m = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise InputError(f"line {lineno}: second header {line!r}")
            if len(parts) != 4 or parts[1] != "edge":
                raise InputError(f"line {lineno}: malformed header {line!r}")
            try:
                n = int(parts[2])
                m = int(parts[3])
            except ValueError:
                raise InputError(f"line {lineno}: malformed header {line!r}") from None
        elif parts[0] == "e":
            if n is None:
                raise InputError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise InputError(f"line {lineno}: malformed edge {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise InputError(f"line {lineno}: malformed edge {line!r}") from None
            edges.append((u - 1, v - 1))
        else:
            raise InputError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise InputError("missing 'p edge' header")
    if m != len(edges):
        raise InputError(f"header declares {m} edges, found {len(edges)} 'e' lines")
    return _build(n, edges)


def parse_edge_json(text: str) -> Graph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # an integer past the digit limit, or nesting past the recursion limit
        raise InputError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise InputError("edge-json needs an object with 'n' and 'edges'")
    if not isinstance(data["edges"], list):
        raise InputError("'edges' must be a list of vertex pairs")
    return _build(data["n"], data["edges"])


def load_graph(path: str) -> tuple[Graph, str]:
    try:
        raw = open(path, "rb").read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    digest = hashlib.sha256(raw).hexdigest()
    text = raw.decode("utf-8", errors="replace")
    head = text.lstrip()
    if head.startswith("{"):
        return parse_edge_json(text), digest
    return parse_dimacs(text), digest


def graph_to_edge_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


# ---------------------------------------------------------------------------
# serialization of results


def _sorted(s) -> list[int]:
    return sorted(int(v) for v in s)


def saucer_to_json(p: recognize.SaucerPartition) -> dict:
    out = {name: _sorted(s) for name, s in p.special.named_sets()}
    out["A"] = _sorted(p.a)
    out["A_components"] = [list(c) for c in p.a_components]
    return out


def tent_to_json(p: recognize.TentPartition) -> dict:
    out = {name: _sorted(s) for name, s in p.named_sets()}
    out["Y_order"] = list(p.y_order)
    out["Z_components"] = [list(c) for c in p.z_components]
    return out


def report_to_json(rep: recognize.RecognitionReport) -> dict:
    out: dict = {"kind": rep.kind, "stages": [list(s) for s in rep.stages]}
    if rep.reason:
        out["reason"] = rep.reason
    if rep.saucer:
        out["partition"] = saucer_to_json(rep.saucer)
    if rep.tent:
        out["partition"] = tent_to_json(rep.tent)
    if rep.catalog_name:
        out["catalog"] = rep.catalog_name
    if rep.witness:
        out["witness"] = {
            "pattern": rep.witness.pattern.name,
            "image": {str(k): v for k, v in sorted(rep.witness.image.items())},
        }
    return out


def verdict_to_json(verdict: oracle.ClassVerdict) -> dict:
    return {
        "in_class": verdict.in_class,
        "flags": {
            "2P3-free": verdict.is_2p3_free,
            "C4-free": verdict.is_c4_free,
            "C6-free": verdict.is_c6_free,
            "C7-free": verdict.is_c7_free,
            "has-T0": verdict.has_t0,
        },
    }


def _wrap(command: str, path: str, digest: str, body: dict, t0: float) -> dict:
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "input": path,
        "input_hash": digest,
        **body,
        "timing_ms": round(1000.0 * (time.perf_counter() - t0), 3),
    }


# ---------------------------------------------------------------------------
# DOT export


def _dot_parts(rep: recognize.RecognitionReport) -> list[tuple[str, list[int]]]:
    if rep.saucer:
        parts = [(n, _sorted(s)) for n, s in rep.saucer.named_sets() if s and n != "A"]
        for k, comp in enumerate(rep.saucer.a_components):
            parts.append((f"A{k + 1}", list(comp)))
        return parts
    if rep.tent:
        parts = [(n, _sorted(s)) for n, s in rep.tent.named_sets() if s and n != "Z"]
        for k, comp in enumerate(rep.tent.z_components):
            parts.append((f"Z{k + 1}", list(comp)))
        return parts
    return []


def to_dot(g: Graph, rep: recognize.RecognitionReport | None) -> str:
    lines = ["graph decomposition {", "  node [shape=circle];"]
    parts = _dot_parts(rep) if rep else []
    if not parts:
        for v in range(g.n):
            lines.append(f"  v{v};")
        for u, v in g.edges():
            lines.append(f"  v{u} -- v{v};")
        lines.append("}")
        return "\n".join(lines)
    for k, (name, members) in enumerate(parts):
        lines.append(f"  subgraph cluster_{k} {{")
        lines.append(f'    label="{name} (clique of {len(members)})";')
        for v in members:
            lines.append(f"    v{v};")
        lines.append("  }")
    anchor = {name: members[0] for name, members in parts}
    for i, (na, ma) in enumerate(parts):
        for nb, mb in parts[i + 1 :]:
            rel = relation(g, ma, mb)
            if rel == "complete":
                lines.append(
                    f'  v{anchor[na]} -- v{anchor[nb]} '
                    f'[style=bold, label="complete x{len(ma) * len(mb)}"];'
                )
            elif rel == "mixed":
                for u in ma:
                    for v in mb:
                        if g.has_edge(u, v):
                            lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands (each returns (exit_code, report dict))


def run_recognize(path: str, crosscheck: bool, dot: str | None) -> tuple[int, dict]:
    t0 = time.perf_counter()
    g, digest = load_graph(path)
    rep = recognize.recognize(g)
    body = {"verdict": report_to_json(rep)}
    if crosscheck:
        if g.n > oracle.VERDICT_CAP:
            raise SizeCapError(
                f"oracle crosscheck capped at {oracle.VERDICT_CAP} vertices"
            )
        verdict = oracle.class_verdict(g)
        body["oracle"] = verdict_to_json(verdict)
        body["agreement"] = verdict.in_class == rep.in_class
    if dot:
        with open(dot, "w") as fh:
            fh.write(to_dot(g, rep if rep.in_class else None))
        body["dot"] = dot
    return EXIT_OK, _wrap("recognize", path, digest, body, t0)


def run_color(path: str, crosscheck: bool) -> tuple[int, dict]:
    t0 = time.perf_counter()
    g, digest = load_graph(path)
    try:
        result = color.color_in_class(g)
    except recognize.NotInClassError as exc:
        body = {"refusal": report_to_json(exc.report)}
        return EXIT_REFUSED, _wrap("color", path, digest, body, t0)
    body = {
        "num_colors": result.num_colors,
        "coloring": {str(v): result.assignment[v] for v in range(g.n)},
    }
    if crosscheck:
        if g.n > oracle.CHROMATIC_CAP:
            raise SizeCapError(
                f"chromatic crosscheck capped at {oracle.CHROMATIC_CAP} vertices"
            )
        chi, _ = oracle.chromatic_number_bf(g)
        body["oracle_chi"] = chi
        body["agreement"] = chi == result.num_colors
    return EXIT_OK, _wrap("color", path, digest, body, t0)


def run_cwd(path: str) -> tuple[int, dict]:
    t0 = time.perf_counter()
    g, digest = load_graph(path)
    try:
        expr = cwd.expr_for_class_graph(g)
    except (recognize.NotInClassError, cwd.ExpressionRefusal) as exc:
        body = {"refusal": {"reason": str(exc)}}
        if isinstance(exc, recognize.NotInClassError):
            body["refusal"]["verdict"] = report_to_json(exc.report)
        return EXIT_REFUSED, _wrap("cwd", path, digest, body, t0)
    body = {
        "width": cwd.width(expr),
        "expression": cwd.to_sexpr(expr),
        "evaluates_to_input": cwd.eval_to_graph(expr) == g,
    }
    return EXIT_OK, _wrap("cwd", path, digest, body, t0)


def run_oracle(path: str, args) -> tuple[int, dict]:
    t0 = time.perf_counter()
    g, digest = load_graph(path)
    body: dict = {}
    try:
        if args.pattern:
            try:
                named = pattern(args.pattern)
            except KeyError:
                raise InputError(f"unknown pattern {args.pattern!r}") from None
            emb = oracle.find_induced(g, named)
            body["pattern"] = args.pattern
            body["found"] = emb is not None
            if emb:
                body["image"] = {str(k): v for k, v in sorted(emb.image.items())}
        elif args.holes:
            body["hole_lengths"] = sorted(oracle.all_hole_lengths(g))
        elif args.chi:
            chi, witness = oracle.chromatic_number_bf(g)
            body["chi"] = chi
            body["coloring"] = {str(v): witness[v] for v in range(g.n)}
        elif args.clique_cutset:
            cut = oracle.clique_cutset_bf(g)
            body["clique_cutset"] = None if cut is None else _sorted(cut)
        else:
            verdict = oracle.class_verdict(g)
            body.update(verdict_to_json(verdict))
    except ValueError as exc:
        if "capped" in str(exc):
            raise SizeCapError(str(exc)) from None
        raise
    return EXIT_OK, _wrap("oracle", path, digest, body, t0)


def run_generate(args) -> tuple[int, dict]:
    params = generate.GenParams(
        seed=args.seed,
        max_class_size=args.max_class_size,
        p_nonempty=args.p_nonempty,
        p_attach=args.p_attach,
        a_components=tuple(args.a_components),
        z_components=tuple(args.z_components),
        max_component_size=args.max_component_size,
        universal_count=tuple(args.universals),
    )
    if args.kind == "special":
        g, part = generate.gen_special(params)
        cert = {name: _sorted(s) for name, s in part.named_sets()}
    elif args.kind == "saucer":
        g, part = generate.gen_saucer(params)
        cert = saucer_to_json(part)
    else:
        g, part = generate.gen_tent(params)
        cert = tent_to_json(part)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{args.kind}-{args.seed}")
    graph_path = stem + ".json"
    cert_path = stem + ".cert.json"
    with open(graph_path, "w") as fh:
        json.dump(graph_to_edge_json(g), fh, sort_keys=True, indent=None)
        fh.write("\n")
    with open(cert_path, "w") as fh:
        json.dump(
            {"schema": SCHEMA, "kind": args.kind, "seed": args.seed,
             "certificate": cert},
            fh, sort_keys=True, indent=None,
        )
        fh.write("\n")
    return EXIT_OK, {
        "schema": SCHEMA,
        "command": "generate",
        "kind": args.kind,
        "seed": args.seed,
        "n": g.n,
        "files": [graph_path, cert_path],
    }


# ---------------------------------------------------------------------------
# driver


def _one_file(job) -> tuple[int, dict]:
    kind, path, opts = job
    try:
        if kind == "recognize":
            return run_recognize(path, opts["crosscheck"], opts["dot"])
        if kind == "color":
            return run_color(path, opts["crosscheck"])
        if kind == "cwd":
            return run_cwd(path)
        raise ValueError(kind)
    except InputError as exc:
        return EXIT_INPUT, {"schema": SCHEMA, "command": kind, "input": path,
                            "error": str(exc)}
    except SizeCapError as exc:
        return EXIT_SIZE_CAP, {"schema": SCHEMA, "command": kind, "input": path,
                               "error": str(exc)}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pentaseven",
        description="Structure toolkit for (2P3,C4,C6)-free graphs that "
        "contain a 7-hole or the block T0",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recognize", help="run the recognition pipeline")
    rec.add_argument("paths", nargs="+")
    rec.add_argument("--oracle-crosscheck", action="store_true")
    rec.add_argument("--dot", metavar="OUT", default=None,
                     help="write the decomposition as DOT clusters")
    rec.add_argument("--jobs", type=int, default=1)

    col = sub.add_parser("color", help="optimal coloring of accepted graphs")
    col.add_argument("paths", nargs="+")
    col.add_argument("--crosscheck", action="store_true",
                     help="compare against the brute-force chromatic number")
    col.add_argument("--jobs", type=int, default=1)

    cw = sub.add_parser("cwd", help="width-bounded expression for accepted graphs")
    cw.add_argument("paths", nargs="+")
    cw.add_argument("--jobs", type=int, default=1)

    gen = sub.add_parser("generate", help="seeded structure generators")
    gen.add_argument("kind", choices=["special", "saucer", "tent"])
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", default=".")
    gen.add_argument("--max-class-size", type=int, default=3)
    gen.add_argument("--p-nonempty", type=float, default=0.5)
    gen.add_argument("--p-attach", type=float, default=0.5)
    gen.add_argument("--a-components", type=int, nargs=2, default=(0, 2))
    gen.add_argument("--z-components", type=int, nargs=2, default=(0, 2))
    gen.add_argument("--max-component-size", type=int, default=3)
    gen.add_argument("--universals", type=int, nargs=2, default=(0, 2))

    orc = sub.add_parser("oracle", help="brute-force checks at desk scale")
    orc.add_argument("path")
    group = orc.add_mutually_exclusive_group()
    group.add_argument("--pattern", default=None,
                       help="induced-subgraph search for a named pattern")
    group.add_argument("--holes", action="store_true")
    group.add_argument("--chi", action="store_true")
    group.add_argument("--clique-cutset", action="store_true")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            try:
                code, report = run_generate(args)
            except ValueError as exc:
                raise InputError(str(exc)) from None
            print(json.dumps(report, sort_keys=True))
            return code
        if args.command == "oracle":
            code, report = run_oracle(args.path, args)
            print(json.dumps(report, sort_keys=True))
            return code
        opts = {
            "crosscheck": getattr(args, "oracle_crosscheck", False)
            or getattr(args, "crosscheck", False),
            "dot": getattr(args, "dot", None),
        }
        jobs = [(args.command, p, opts) for p in args.paths]
        if args.jobs > 1 and len(jobs) > 1:
            with Pool(min(args.jobs, len(jobs))) as pool:
                results = pool.map(_one_file, jobs)
        else:
            results = [_one_file(j) for j in jobs]
        worst = EXIT_OK
        for code, report in results:
            print(json.dumps(report, sort_keys=True))
            worst = max(worst, code)
        return worst
    except InputError as exc:
        print(json.dumps({"schema": SCHEMA, "error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    except SizeCapError as exc:
        print(json.dumps({"schema": SCHEMA, "error": str(exc)}), file=sys.stderr)
        return EXIT_SIZE_CAP


if __name__ == "__main__":
    sys.exit(main())
