"""Clique-width expressions: the four node classes, the node rule, the
evaluator, width accounting, the s-expression grammar, and the constructions
(complete graphs, thickenings under universal vertices) that certify the
width-12 bound.  This module imports only `core`, so an expression can be
read, checked and evaluated without loading the pipeline it certifies.

Expressions carry explicit vertex ids through their create leaves, so an
evaluated expression can be compared to a target graph by equality rather
than isomorphism.  Nodes are slotted value dataclasses: compared by value
and type (as tuples, Join(1, 2, c) would equal Rename(1, 2, c)),
unhashable, never mutated once built.  One function, walk, lists the nodes
and tests each against the id and label rule (_rule_break); every walker
reads that walk, or is handed it as a Walk, and raises ExprError, with a
path, for the first node that is not a node or breaks the rule.  Walks are
plain stack loops that dispatch on the exact node type: expressions for
thickenings get deep (one chain link per vertex), so nothing recurses.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import Graph, _iter_bits, parse_int


class ExprError(ValueError):
    """Malformed expression; carries the path to the offending node."""

    def __init__(self, path: str, message: str):
        super().__init__(f"at {path or 'root'}: {message}")
        self.path = path


@dataclass(slots=True)
class Create:
    label: int
    vertex: int


@dataclass(slots=True)
class Union:
    left: "Expr"
    right: "Expr"


@dataclass(slots=True)
class Join:
    i: int
    j: int
    child: "Expr"


@dataclass(slots=True)
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


class Walk(NamedTuple):
    """The checked walk of an expression: its root; its nodes in pre-order,
    right child first, with anything that is not a node listed as a leaf;
    the position in that list of the last node that breaks the node rule
    (see _rule_break), or -1; and the error naming that node, or None.
    Reversed, the list is the left-to-right post-order of a recursive
    evaluation, so the last break in the list is the first break the
    evaluation meets.  Readers share it and never change it."""

    root: Expr
    nodes: list
    last: int
    error: ExprError | None


def walk(expr: Expr | Walk) -> Walk:
    """expr's walk, or expr itself if it is a Walk: the one walk that tests
    the rule, which every walker below reads."""
    if type(expr) is Walk:
        return expr
    nodes = []
    last, message = -1, None
    stack = [expr]
    while stack:
        node = stack.pop()
        while True:
            if why := _rule_break(node):
                last, message = len(nodes), why
            nodes.append(node)
            t = type(node)
            if t is Union:
                stack.append(node.left)
                node = node.right
            elif t is Join or t is Rename:
                node = node.child
            else:
                break
    return Walk(expr, nodes, last, ExprError(_path(expr, last), message) if message else None)


def _path(expr: Expr, pos: int) -> str:
    """Path from the root to the node at position pos of walk(expr)."""
    stack: list[tuple] = [(expr, None)]  # (node, (name, parent's link) or None)
    for _ in range(pos):
        node, up = stack.pop()
        t = type(node)
        if t is Union:
            stack.append((node.left, ("left", up)))
            stack.append((node.right, ("right", up)))
        elif t is Join or t is Rename:
            stack.append((node.child, ("child", up)))
    names, up = [], stack.pop()[1]
    while up:
        name, up = up
        names.append(name)
    return ".".join(reversed(names))


def _rule_break(node: object) -> str | None:
    """Why node breaks the node rule, or None.  The rule: a node is a
    Create, Union, Join or Rename; a label is a plain int >= 1 and a vertex
    id a plain int >= 0, so a bool or a float is neither; a join's two
    labels are distinct.  This is the rule's only statement; walk applies
    it to every node."""
    t = type(node)
    if t is Create:
        if type(node.label) is not int or node.label < 1:
            return f"label must be an int >= 1, got {node.label!r}"
        if type(node.vertex) is not int or node.vertex < 0:
            return f"vertex id must be an int >= 0, got {node.vertex!r}"
    elif t is Join:
        i, j = node.i, node.j
        if type(i) is type(j) is int and i == j:
            return f"join needs two distinct labels, got {i}"
        if type(i) is not int or type(j) is not int or i < 1 or j < 1:
            return "join labels must be ints >= 1"
    elif t is Rename:
        old, new = node.old, node.new
        if type(old) is not int or type(new) is not int or old < 1 or new < 1:
            return "rename labels must be ints >= 1"
    elif t is not Union:
        named = reprlib.repr(node)  # a str or a container may be long
        return f"not an expression node: {named}"
    return None


def _checked(expr: Expr | Walk) -> Walk:
    """walk(expr); raises its error, the first break an evaluation meets."""
    w = walk(expr)
    if w.error:
        raise w.error
    return w


def iter_nodes(expr: Expr | Walk):
    """Iterator over the nodes of expr, in pre-order, right child first.
    Raises _checked's error."""
    return iter(_checked(expr).nodes)


def width(expr: Expr | Walk) -> int:
    """Number of distinct labels mentioned anywhere in the expression."""
    labels: set[int] = set()
    for node in _checked(expr).nodes:
        t = type(node)
        if t is Create:
            labels.add(node.label)
        elif t is Join:
            labels.add(node.i)
            labels.add(node.j)
        elif t is Rename:
            labels.add(node.old)
            labels.add(node.new)
    return len(labels)


def eval_expr(expr: Expr | Walk) -> LabeledGraph:
    """Evaluate the four-operation semantics; joins are idempotent.

    Linear in the size of the expression, up to the cost of OR-ing vertex
    masks.  Each label of a subtree's value is one class node of a merge
    forest: a node holds the member mask of its class and the mask of the
    vertices its members have been joined to so far.  A union, or a rename
    onto a label already present, merges two classes under a new parent; a
    join ORs each side's members into the other side's pending mask.  One
    final pass pushes every parent's pending mask down to its leaves, so a
    join costs O(1) mask operations however many vertices it connects.
    Errors come out in the order of a recursive evaluation: the evaluation
    runs up to the first node that breaks the node rule (see _rule_break),
    so a union before it whose sides share a vertex id is the error, and
    otherwise that node is.
    """
    root, nodes, last, broken = walk(expr)
    # nodes[last + 1:] is the part evaluated before the first break, and
    # holds only valid nodes
    vertices = [node.vertex for node in reversed(nodes[last + 1:]) if type(node) is Create]
    order = sorted(set(vertices))
    index = {v: k for k, v in enumerate(order)}
    has_dups = len(order) != len(vertices)

    # the merge forest: node x < size has member mask member[x] (0 once
    # merged), pending neighbour mask pending[x] and parent parent_of[x] (-1
    # for none); one node per create and per merge, and a merge turns two
    # live classes into one, so there are fewer than twice the creates
    cap = 2 * len(vertices)
    member = [0] * cap
    pending = [0] * cap
    parent_of = [-1] * cap
    size = 0

    leaves: list[int] = []  # forest node of each create, left to right
    values: list[dict[int, int]] = []  # per evaluated subtree: label -> class node
    for pos in range(len(nodes) - 1, last, -1):
        node = nodes[pos]
        t = type(node)
        if t is Create:
            member[size] = 1 << index[node.vertex]
            leaves.append(size)
            values.append({node.label: size})
            size += 1
            continue
        if t is Join:
            value = values[-1]
            x, y = value.get(node.i), value.get(node.j)
            if x is not None and y is not None:
                pending[x] |= member[y]
                pending[y] |= member[x]
            continue
        if t is Union:
            right = values.pop()
            value = values[-1]
            if has_dups:
                lmask = rmask = 0
                for x in value.values():
                    lmask |= member[x]
                for y in right.values():
                    rmask |= member[y]
                if lmask & rmask:
                    dup = [order[k] for k in _iter_bits(lmask & rmask)]
                    message = f"duplicate vertex ids across union: {dup}"
                    raise ExprError(_path(root, pos), message)
            if len(value) < len(right):
                value, right = right, value
                values[-1] = value
            moved = right.items()
        else:  # Rename
            value = values[-1]
            if node.old == node.new or node.old not in value:
                continue
            moved = ((node.new, value.pop(node.old)),)
        # move the classes of moved into value; a class meeting one already
        # on its label merges with it under a new parent
        for label, y in moved:
            x = value.get(label)
            if x is None:
                value[label] = y
            else:
                z = value[label] = size
                size += 1
                member[z] = member[x] | member[y]
                member[x] = member[y] = 0
                parent_of[x] = parent_of[y] = z

    if broken:
        raise broken
    # parents are newer than their children: push pending masks and final
    # labels down from the newest node
    label_of = [0] * size
    for label, x in values.pop().items():
        label_of[x] = label
    for x in range(size - 1, -1, -1):
        p = parent_of[x]
        if p >= 0:
            pending[x] |= pending[p]
            label_of[x] = label_of[p]
    rows = [0] * len(order)
    for v, x in zip(vertices, leaves):
        rows[index[v]] = pending[x]
    labeling = {v: label_of[x] for v, x in zip(vertices, leaves)}
    return LabeledGraph(Graph.from_rows(rows), tuple(order), labeling)


def eval_to_graph(expr: Expr | Walk) -> Graph:
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
        e = Union(e, Create(tmp_label, v))
        e = Rename(tmp_label, acc_label, Join(acc_label, tmp_label, e))
    return e


def thickening_expr(
    quotient: Graph, class_ids: Sequence[Sequence[int]], universal_ids: Sequence[int]
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
        w_expr = _complete_expr(sorted(universal_ids), w_acc, labels[0])
        e = Join(labels[0], w_acc, Union(e, w_expr))
    return e


# ---------------------------------------------------------------------------
# s-expression serialization


_CLOSE = object()  # a closing parenthesis on to_sexpr's work stack


def to_sexpr(expr: Expr | Walk) -> str:
    """The expression in the grammar from_sexpr reads, written in one
    pre-order walk: an operator's text is written when the walk reaches it.
    Raises _checked's error for an expression that breaks the node rule."""
    root = _checked(expr).root  # the check; the writer below tests nothing
    out: list[str] = []
    work: list[object] = [root]  # right children and closers
    while work:
        node = work.pop()
        if node is _CLOSE:
            out.append(")")
            continue
        if out:
            out.append(" ")  # every node popped after the root is a right child
        while True:
            t = type(node)
            if t is Create:
                out.append(f"(create {node.label} {node.vertex})")
                break
            work.append(_CLOSE)
            if t is Union:
                out.append("(union ")
                work.append(node.right)
                node = node.left
            elif t is Join:
                out.append(f"(join {node.i} {node.j} ")
                node = node.child
            else:  # Rename
                out.append(f"(rename {node.old} {node.new} ")
                node = node.child
    return "".join(out)


_OPERATORS = {  # name -> (node class, numbers, children)
    "create": (Create, 2, 0),
    "union": (Union, 0, 2),
    "join": (Join, 2, 1),
    "rename": (Rename, 2, 1),
}


def from_sexpr(text: str) -> Expr:
    """Parse the documented grammar:
    (create i v) | (union e e) | (join i j e) | (rename i j e)."""
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    toks.reverse()  # next token last
    frames: list[tuple[str, list[int], list[Expr]]] = []  # open operators
    done: list[Expr] = []  # complete top-level expressions
    while toks:
        tok = toks.pop()
        if tok == "(":
            if not toks:
                raise ExprError("", "unexpected end of input")
            op = toks.pop()
            if op not in _OPERATORS:
                raise ExprError("", f"unknown operator {op!r}")
            numbers = []
            for _ in range(_OPERATORS[op][1]):
                if not toks:
                    raise ExprError("", "unexpected end of input")
                try:
                    numbers.append(parse_int(toks[-1]))
                except ValueError:
                    raise ExprError("", f"expected integer, got {toks[-1]!r}") from None
                toks.pop()
            frames.append((op, numbers, []))
        elif tok == ")":
            if not frames:
                raise ExprError("", "unbalanced ')'")
            op, numbers, kids = frames.pop()
            cls, _, arity = _OPERATORS[op]
            if len(kids) != arity:
                noun = "child" if arity == 1 else "children"
                raise ExprError("", f"{op} needs {arity} {noun}, got {len(kids)}")
            (frames[-1][2] if frames else done).append(cls(*numbers, *kids))
        else:
            raise ExprError("", f"unexpected token {tok!r}")
    if frames:
        raise ExprError("", "unbalanced '(': expression unterminated")
    if len(done) != 1:
        raise ExprError("", "multiple top-level expressions" if done else "empty input")
    return done[0]
