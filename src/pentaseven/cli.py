"""Batch command-line surface: parse graphs, run the pipeline, emit JSON
reports and DOT visualizations.

Exit codes are a stable contract: 0 success, 2 input error, 3 out-of-class
refusal, 4 a size cap or running out of memory.  Reports from identical
inputs are byte-identical except for the timing field.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
import time
from functools import cache, partial
from typing import TYPE_CHECKING, Iterator

from . import __version__
from .core import CapError, Graph, _fold, _iter_bits, check_vertex_cap, parse_int, relation

if TYPE_CHECKING:
    from . import oracle, recognize

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REFUSED = 3
EXIT_SIZE_CAP = 4

SCHEMA = 1


class InputError(Exception):
    """Input the CLI cannot read, parse or write."""


# what ends the run of one input, or of the whole call: an InputError, a
# size cap (the CapError its own check raised) or running out of memory
_ERRORS = (InputError, CapError, MemoryError)


def _exit_for(exc: BaseException) -> tuple[int, str]:
    """(exit code, message) of one of _ERRORS."""
    if isinstance(exc, InputError):
        return EXIT_INPUT, str(exc)
    return EXIT_SIZE_CAP, "out of memory" if isinstance(exc, MemoryError) else str(exc)


# ---------------------------------------------------------------------------
# graph file formats


def _build(n, edges, checked: bool) -> Graph:
    """build_graph, with or without its endpoint type test (core._fold),
    behind the vertex cap, which is checked before the n neighborhood rows
    are allocated; malformed input becomes an InputError."""
    check_vertex_cap(n)
    try:
        return _fold(n, edges, checked)
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
                n = parse_int(parts[2])
                m = parse_int(parts[3])
            except ValueError:
                raise InputError(f"line {lineno}: malformed header {line!r}") from None
        elif parts[0] == "e":
            if n is None:
                raise InputError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise InputError(f"line {lineno}: malformed edge {line!r}")
            try:
                u, v = parse_int(parts[1]), parse_int(parts[2])
            except ValueError:
                raise InputError(f"line {lineno}: malformed edge {line!r}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise InputError(
                    f"line {lineno}: edge endpoint out of range 1..{n} in {line!r}"
                )
            if u == v:
                raise InputError(f"line {lineno}: loop edge {line!r}")
            edges.append((u - 1, v - 1))
        else:
            raise InputError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise InputError("missing 'p edge' header")
    if m != len(edges):
        raise InputError(f"header declares {m} edges, found {len(edges)} 'e' lines")
    return _build(n, edges, checked=False)  # each endpoint came from parse_int


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
    # json.loads makes a bool, the one value besides a plain int that a list
    # index takes, only of the literals true and false, and a text that
    # lacks one of a literal's letters does not hold it; every other value
    # fails the fold's indexing
    may_hold_bool = all(c in text for c in "tru") or all(c in text for c in "fal")
    return _build(data["n"], data["edges"], checked=may_hold_bool)


def load_graph(path: str) -> tuple[Graph, str]:
    """(graph, sha256 of the bytes) of the file at path."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    digest = hashlib.sha256(raw).hexdigest()
    # a UTF-8 byte order mark would hide either format's first line
    text = raw.decode("utf-8", errors="replace").removeprefix("\ufeff")
    del raw  # the parsers need only the text
    parse = parse_edge_json if text.lstrip().startswith("{") else parse_dimacs
    # The parse builds up to millions of edge lists or tuples and no
    # reference cycle, so a cyclic collection during it would free nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return parse(text), digest
    finally:
        if enabled:
            gc.enable()


def graph_to_edge_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def edge_json_chunks(g: Graph) -> Iterator[str]:
    """The text of json.dumps(graph_to_edge_json(g), sort_keys=True), one
    vertex's pairs at a time, so that writing it never lists every edge."""
    yield '{"edges": ['
    sep = ""
    for u, r in enumerate(g.rows):
        above = r & -(2 << u)  # the neighbors above u
        if above:
            yield sep + ", ".join(f"[{u}, {v}]" for v in _iter_bits(above))
            sep = ", "
    yield f'], "n": {g.n}}}'


# ---------------------------------------------------------------------------
# serialization of results


def partition_to_json(p) -> dict:
    """The named sets of a special, saucer or tent partition, plus a tent's
    Y order and the pendant components, each in its stored order."""
    from .structure import TentPartition

    out = {name: sorted(s) for name, s in p.named_sets()}
    if isinstance(p, TentPartition):
        out["Y_order"] = list(p.y_order)
    if pendant := getattr(p, "pendant", None):  # a special partition has none
        name, comps = pendant
        out[f"{name}_components"] = [list(c) for c in comps]
    return out


def report_to_json(rep: recognize.RecognitionReport) -> dict:
    out: dict = {"kind": rep.kind, "stages": [list(s) for s in rep.stages]}
    if rep.reason:
        out["reason"] = rep.reason
    if rep.saucer or rep.tent:
        out["partition"] = partition_to_json(rep.saucer or rep.tent)
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


# ---------------------------------------------------------------------------
# DOT export


def _dot_parts(rep: recognize.RecognitionReport) -> list[tuple[str, list[int]]]:
    p = rep.saucer or rep.tent
    if not p:
        return []
    name, comps = p.pendant
    parts = [(n, sorted(s)) for n, s in p.named_sets() if s and n != name]
    parts += [(f"{name}{k + 1}", list(c)) for k, c in enumerate(comps)]
    return parts


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
# per-file commands: each maps (graph, args) to (exit code, report body)


def _recognize(g: Graph, args) -> tuple[int, dict]:
    from . import recognize

    # through the module attribute, which perfbench/spans.py patches
    rep = recognize.recognize(g)
    body = {"verdict": report_to_json(rep)}
    if args.crosscheck:
        from . import oracle

        verdict = oracle.class_verdict(g)
        body["oracle"] = verdict_to_json(verdict)
        body["agreement"] = verdict.in_class == rep.in_class
    if args.dot:
        try:
            with open(args.dot, "w") as fh:
                fh.write(to_dot(g, rep if rep.in_class else None))
        except OSError as exc:
            raise InputError(f"cannot write {args.dot}: {exc}") from None
        body["dot"] = args.dot
    return EXIT_OK, body


def _color(g: Graph, args) -> tuple[int, dict]:
    from . import color, recognize

    try:
        result = color.color_in_class(g)
    except recognize.NotInClassError as exc:
        return EXIT_REFUSED, {"refusal": report_to_json(exc.report)}
    body = {
        "num_colors": result.num_colors,
        "coloring": {str(v): result.assignment[v] for v in range(g.n)},
    }
    if args.crosscheck:
        from . import oracle

        chi, _ = oracle.chromatic_number_bf(g)
        body["oracle_chi"] = chi
        body["agreement"] = chi == result.num_colors
    return EXIT_OK, body


def _cwd(g: Graph, args) -> tuple[int, dict]:
    from . import cwd, expr, recognize

    try:
        # the one check of every node: the three readers below share it
        checked = expr.walk(cwd.expr_for_class_graph(g))
    except (recognize.NotInClassError, cwd.ExpressionRefusal) as exc:
        body = {"refusal": {"reason": str(exc)}}
        if isinstance(exc, recognize.NotInClassError):
            body["refusal"]["verdict"] = report_to_json(exc.report)
        return EXIT_REFUSED, body
    return EXIT_OK, {
        "width": cwd.width(checked),
        "expression": cwd.to_sexpr(checked),
        "evaluates_to_input": cwd.eval_to_graph(checked) == g,
    }


def _oracle(g: Graph, args) -> tuple[int, dict]:
    from . import oracle
    from .catalog import pattern

    body: dict = {}
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
        body["clique_cutset"] = None if cut is None else sorted(cut)
    else:
        body.update(verdict_to_json(oracle.class_verdict(g)))
    return EXIT_OK, body


COMMANDS = {"recognize": _recognize, "color": _color, "cwd": _cwd,
            "oracle": _oracle}


# ---------------------------------------------------------------------------
# generate


def run_generate(args) -> tuple[int, dict]:
    if not 0 <= args.seed < 2**128:  # the range of the generators' Philox key
        raise InputError(f"--seed must be in [0, 2**128), got {args.seed}")
    from . import generate  # numpy loads only for the generators

    try:
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
        g, part = getattr(generate, f"gen_{args.kind}")(params)
    except CapError:  # a ValueError too, but a size cap: exit 4
        raise
    except ValueError as exc:  # parameters the generators refuse
        raise InputError(str(exc)) from None
    stem = os.path.join(args.out, f"{args.kind}-{args.seed}")
    files = [stem + ".json", stem + ".cert.json"]
    cert = {"schema": SCHEMA, "kind": args.kind, "seed": args.seed,
            "certificate": partition_to_json(part)}
    try:
        os.makedirs(args.out, exist_ok=True)
        texts = (edge_json_chunks(g), [json.dumps(cert, sort_keys=True)])
        for path, chunks in zip(files, texts):
            with open(path, "w") as fh:
                fh.writelines(chunks)
                fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write to {args.out}: {exc}") from None
    return EXIT_OK, {
        "schema": SCHEMA,
        "command": "generate",
        "kind": args.kind,
        "seed": args.seed,
        "n": g.n,
        "files": files,
    }


# ---------------------------------------------------------------------------
# driver


def run_file(args, path: str) -> tuple[int, dict]:
    """Load the graph at path, run args.command on it and wrap its body in
    the report envelope; timing_ms covers loading and the command.  An
    InputError, a CapError or a MemoryError propagates to the caller."""
    t0 = time.perf_counter()
    g, digest = load_graph(path)
    code, body = COMMANDS[args.command](g, args)
    return code, {
        "schema": SCHEMA,
        "version": __version__,
        "command": args.command,
        "input": path,
        "input_hash": digest,
        **body,
        "timing_ms": round(1000.0 * (time.perf_counter() - t0), 3),
    }


def _one_file(args, path: str) -> tuple[int, dict]:
    """run_file for one input of a batch: an error becomes its report."""
    try:
        return run_file(args, path)
    except _ERRORS as exc:
        code, message = _exit_for(exc)
        return code, {"schema": SCHEMA, "command": args.command,
                      "input": path, "error": message}


def decimal(text: str) -> int:
    """argparse type of the integer options: core.parse_int's spelling."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def positive_int(text: str) -> int:
    """argparse type of --jobs: a pool has at least one worker."""
    n = decimal(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args returns a fresh Namespace
    on every call and every default is immutable, so calls share it."""
    ap = argparse.ArgumentParser(
        prog="pentaseven",
        description="Structure toolkit for (2P3,C4,C6)-free graphs that "
        "contain a 7-hole or the block T0",
    )
    ap.set_defaults(crosscheck=False, dot=None)
    sub = ap.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recognize", help="run the recognition pipeline")
    rec.add_argument("paths", nargs="+")
    rec.add_argument("--oracle-crosscheck", dest="crosscheck", action="store_true")
    rec.add_argument("--dot", metavar="OUT",
                     help="write the decomposition as DOT clusters")
    rec.add_argument("--jobs", type=positive_int, default=1)

    col = sub.add_parser("color", help="optimal coloring of accepted graphs")
    col.add_argument("paths", nargs="+")
    col.add_argument("--crosscheck", action="store_true",
                     help="compare against the brute-force chromatic number")
    col.add_argument("--jobs", type=positive_int, default=1)

    cw = sub.add_parser("cwd", help="width-bounded expression for accepted graphs")
    cw.add_argument("paths", nargs="+")
    cw.add_argument("--jobs", type=positive_int, default=1)

    gen = sub.add_parser("generate", help="seeded structure generators")
    gen.add_argument("kind", choices=["special", "saucer", "tent"])
    gen.add_argument("--seed", type=decimal, required=True)
    gen.add_argument("--out", default=".")
    gen.add_argument("--max-class-size", type=decimal, default=3)
    gen.add_argument("--p-nonempty", type=float, default=0.5)
    gen.add_argument("--p-attach", type=float, default=0.5)
    gen.add_argument("--a-components", type=decimal, nargs=2, default=(0, 2))
    gen.add_argument("--z-components", type=decimal, nargs=2, default=(0, 2))
    gen.add_argument("--max-component-size", type=decimal, default=3)
    gen.add_argument("--universals", type=decimal, nargs=2, default=(0, 2))

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
            results = [run_generate(args)]
        elif args.command == "oracle":
            results = [run_file(args, args.path)]
        else:
            if args.dot and len(args.paths) > 1:
                raise InputError(
                    f"--dot writes one file; got {len(args.paths)} inputs"
                )
            one = partial(_one_file, args)
            if args.jobs > 1 and len(args.paths) > 1:
                from multiprocessing import Pool

                size = min(args.jobs, len(args.paths), os.cpu_count() or 1)
                with Pool(size) as pool:
                    results = pool.map(one, args.paths)
            else:
                results = [one(p) for p in args.paths]
    except _ERRORS as exc:
        code, message = _exit_for(exc)
        print(json.dumps({"schema": SCHEMA, "error": message}), file=sys.stderr)
        return code
    for _, report in results:
        print(json.dumps(report, sort_keys=True))
    return max(code for code, _ in results)


if __name__ == "__main__":
    sys.exit(main())
