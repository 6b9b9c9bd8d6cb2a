"""Clique-width expressions: AST, evaluator, width accounting, and the
constructions (complete graphs, thickenings under universal vertices) that
certify the width-12 bound for accepted simplicial-free graphs.

Expressions carry explicit vertex ids through their create leaves, so an
evaluated expression can be compared to a target graph by equality rather
than isomorphism.  All tree walks are iterative; expressions for thickenings
get deep (one chain link per vertex).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Graph, _mask_of, simplicial_vertices
from .recognize import NotInClassError, recognize


class ExprError(ValueError):
    """Malformed expression; carries the path to the offending node."""

    def __init__(self, path: str, message: str):
        super().__init__(f"at {path or 'root'}: {message}")
        self.path = path


class ExpressionRefusal(Exception):
    """The width-bounded construction does not apply to this input."""


@dataclass(frozen=True)
class Create:
    label: int
    vertex: int


@dataclass(frozen=True)
class Union:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Join:
    i: int
    j: int
    child: "Expr"


@dataclass(frozen=True)
class Rename:
    old: int
    new: int
    child: "Expr"


Expr = Create | Union | Join | Rename


@dataclass(frozen=True)
class LabeledGraph:
    graph: Graph
    ids: tuple[int, ...]  # graph index -> expression vertex id
    labeling: dict[int, int]  # expression vertex id -> label


def _children(node: Expr) -> tuple[Expr, ...]:
    if isinstance(node, Union):
        return (node.left, node.right)
    if isinstance(node, (Join, Rename)):
        return (node.child,)
    return ()


def iter_nodes(expr: Expr):
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(_children(node))


def labels_of(expr: Expr) -> frozenset[int]:
    out: set[int] = set()
    for node in iter_nodes(expr):
        if isinstance(node, Create):
            out.add(node.label)
        elif isinstance(node, Join):
            out.update((node.i, node.j))
        elif isinstance(node, Rename):
            out.update((node.old, node.new))
    return frozenset(out)


def width(expr: Expr) -> int:
    """Number of distinct labels mentioned anywhere in the expression."""
    return len(labels_of(expr))


def eval_expr(expr: Expr) -> LabeledGraph:
    """Evaluate the four-operation semantics; joins are idempotent."""
    # iterative post-order; value = (ids list, label dict, joins), where each
    # join is the pair of id lists it made complete to each other
    results: list[
        tuple[list[int], dict[int, int], list[tuple[list[int], list[int]]]]
    ] = []
    work: list[tuple[Expr, str, bool]] = [(expr, "", False)]
    while work:
        node, path, ready = work.pop()
        if not ready:
            work.append((node, path, True))
            kids = _children(node)
            names = ("left", "right") if isinstance(node, Union) else ("child",)
            for name, kid in reversed(list(zip(names, kids))):
                work.append((kid, f"{path}.{name}" if path else name, False))
            continue
        if isinstance(node, Create):
            if node.label < 1:
                raise ExprError(path, f"label must be >= 1, got {node.label}")
            if node.vertex < 0:
                raise ExprError(path, f"vertex id must be >= 0, got {node.vertex}")
            results.append(([node.vertex], {node.vertex: node.label}, []))
        elif isinstance(node, Union):
            rids, rlab, rjoins = results.pop()
            lids, llab, ljoins = results.pop()
            dup = set(lids) & set(rids)
            if dup:
                raise ExprError(path, f"duplicate vertex ids across union: {sorted(dup)}")
            llab.update(rlab)
            ljoins.extend(rjoins)
            results.append((lids + rids, llab, ljoins))
        elif isinstance(node, Join):
            if node.i == node.j:
                raise ExprError(path, f"join needs two distinct labels, got {node.i}")
            if node.i < 1 or node.j < 1:
                raise ExprError(path, "join labels must be >= 1")
            ids, lab, joins = results.pop()
            side_i = [v for v in ids if lab[v] == node.i]
            side_j = [v for v in ids if lab[v] == node.j]
            if side_i and side_j:
                joins.append((side_i, side_j))
            results.append((ids, lab, joins))
        else:
            if node.old < 1 or node.new < 1:
                raise ExprError(path, "rename labels must be >= 1")
            ids, lab, joins = results.pop()
            for v in ids:
                if lab[v] == node.old:
                    lab[v] = node.new
            results.append((ids, lab, joins))
    ids, lab, joins = results.pop()
    order = sorted(ids)
    index = {v: k for k, v in enumerate(order)}
    rows = [0] * len(order)
    for side_i, side_j in joins:
        a = [index[v] for v in side_i]
        b = [index[v] for v in side_j]
        mask_a, mask_b = _mask_of(a), _mask_of(b)
        for k in a:
            rows[k] |= mask_b
        for k in b:
            rows[k] |= mask_a
    return LabeledGraph(Graph.from_rows(rows), tuple(order), dict(lab))


def eval_to_graph(expr: Expr) -> Graph:
    """Evaluate an expression whose vertex ids are exactly 0..n-1."""
    lg = eval_expr(expr)
    if lg.ids != tuple(range(len(lg.ids))):
        raise ExprError("", "vertex ids are not exactly 0..n-1")
    return lg.graph


# ---------------------------------------------------------------------------
# constructions


def _complete_expr(ids: list[int], acc_label: int, tmp_label: int) -> Expr:
    """K_|ids| with every vertex ending on acc_label."""
    e: Expr = Create(acc_label, ids[0])
    for v in ids[1:]:
        e = Rename(
            tmp_label, acc_label,
            Join(acc_label, tmp_label, Union(e, Create(tmp_label, v))),
        )
    return e


def expr_complete(k: int) -> Expr:
    """K_k on vertices 0..k-1; width 1 for k = 1, otherwise width 2."""
    if k < 1:
        raise ValueError("complete graphs need k >= 1")
    if k == 1:
        return Create(1, 0)
    return _complete_expr(list(range(k)), 1, 2)


def thickening_expr(
    quotient: Graph,
    class_ids: list[list[int]],
    universal_ids: list[int],
) -> Expr:
    """Expression for a thickening of the quotient plus universal vertices.

    Width is max(|V(quotient)|, 2): one label per class; each class clique
    borrows a neighbor class's label as scratch space, and the universal
    clique is joined after collapsing every class label to one.
    """
    k = quotient.n
    if len(class_ids) != k:
        raise ValueError("one id list per quotient vertex")
    labels = list(range(1, k + 1))
    extra = k + 1 if k == 1 else None
    parts: list[Expr] = []
    for q in range(k):
        aux = labels[(q + 1) % k] if k > 1 else extra
        ids = sorted(class_ids[q])
        if not ids:
            raise ValueError(f"class {q} is empty")
        if len(ids) == 1:
            parts.append(Create(labels[q], ids[0]))
        else:
            parts.append(_complete_expr(ids, labels[q], aux))
    e = parts[0]
    for p in parts[1:]:
        e = Union(e, p)
    for u in range(k):
        for v in range(u + 1, k):
            if quotient.has_edge(u, v):
                e = Join(labels[u], labels[v], e)
    if universal_ids:
        for q in range(1, k):
            e = Rename(labels[q], labels[0], e)
        # the W clique is a separate subtree, so labels[0] is safe scratch
        w_acc = labels[1] if k > 1 else extra
        ids = sorted(universal_ids)
        w_expr = (
            Create(w_acc, ids[0])
            if len(ids) == 1
            else _complete_expr(ids, w_acc, labels[0])
        )
        e = Join(labels[0], w_acc, Union(e, w_expr))
    return e


def expr_for_class_graph(g: Graph) -> Expr:
    """Width <= 12 expression that re-evaluates to g, vertex for vertex.

    Applies only to accepted graphs with no simplicial vertices: those are
    exactly thickenings of a catalog base under extra universal vertices.
    """
    simplicial = simplicial_vertices(g)
    if simplicial:
        raise ExpressionRefusal(
            f"graph has a simplicial vertex ({min(simplicial)}); "
            "the width bound only covers simplicial-free graphs"
        )
    report = recognize(g)
    if not report.in_class:
        raise NotInClassError(report)
    return thickening_expr(
        report.quotient,
        [list(ids) for ids in report.class_ids],
        sorted(report.universal_w),
    )


# ---------------------------------------------------------------------------
# s-expression serialization


def to_sexpr(expr: Expr) -> str:
    out: list[str] = []
    work: list[object] = [expr]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node = item
        if isinstance(node, Create):
            out.append(f"(create {node.label} {node.vertex})")
        elif isinstance(node, Union):
            work.extend([")", node.right, " ", node.left, "(union "])
        elif isinstance(node, Join):
            work.extend([")", node.child, f"(join {node.i} {node.j} "])
        else:
            work.extend([")", node.child, f"(rename {node.old} {node.new} "])
    return "".join(out)


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def from_sexpr(text: str) -> Expr:
    """Parse the documented grammar:
    (create i v) | (union e e) | (join i j e) | (rename i j e)."""
    toks = _tokenize(text)
    pos = 0
    n_toks = len(toks)

    def number() -> int:
        nonlocal pos
        if pos >= n_toks:
            raise ExprError("", "unexpected end of input")
        try:
            val = int(toks[pos])
        except ValueError:
            raise ExprError("", f"expected integer, got {toks[pos]!r}") from None
        pos += 1
        return val

    stack: list[list] = []  # [op, args..., children list]
    result: Expr | None = None

    def deliver(node: Expr):
        nonlocal result
        if stack:
            stack[-1][-1].append(node)
        elif result is None:
            result = node
        else:
            raise ExprError("", "multiple top-level expressions")

    while pos < n_toks:
        tok = toks[pos]
        if tok == "(":
            pos += 1
            if pos >= n_toks:
                raise ExprError("", "unexpected end of input")
            op = toks[pos]
            pos += 1
            if op == "create":
                lab, vid = number(), number()
                if pos >= n_toks or toks[pos] != ")":
                    raise ExprError("", "expected ')' after create")
                pos += 1
                deliver(Create(lab, vid))
            elif op == "union":
                stack.append(["union", []])
            elif op in ("join", "rename"):
                a, b = number(), number()
                stack.append([op, a, b, []])
            else:
                raise ExprError("", f"unknown operator {op!r}")
        elif tok == ")":
            pos += 1
            if not stack:
                raise ExprError("", "unbalanced ')'")
            frame = stack.pop()
            op, kids = frame[0], frame[-1]
            if op == "union":
                if len(kids) != 2:
                    raise ExprError("", f"union needs 2 children, got {len(kids)}")
                deliver(Union(kids[0], kids[1]))
            else:
                if len(kids) != 1:
                    raise ExprError("", f"{op} needs 1 child, got {len(kids)}")
                node = Join(frame[1], frame[2], kids[0]) if op == "join" else Rename(
                    frame[1], frame[2], kids[0]
                )
                deliver(node)
        else:
            raise ExprError("", f"unexpected token {tok!r}")
    if stack:
        raise ExprError("", "unbalanced '(': expression unterminated")
    if result is None:
        raise ExprError("", "empty input")
    return result
