import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentaseven import cwd
from pentaseven.catalog import family_M, pattern
from pentaseven.core import (
    Graph,
    _mask_of,
    build_graph,
    induced_subgraph,
)
from pentaseven.cwd import ExpressionRefusal, expr_for_class_graph
from pentaseven.decompose import expand_thickening, least_simplicial, simplicial_prefix
from pentaseven.expr import (
    Create,
    ExprError,
    Join,
    LabeledGraph,
    Rename,
    Union,
    _complete_expr,
    eval_expr,
    eval_to_graph,
    from_sexpr,
    iter_nodes,
    thickening_expr,
    to_sexpr,
    width,
)
from pentaseven.generate import GenParams, gen_saucer, gen_special, gen_tent, mutate
from pentaseven.recognize import NotInClassError, recognize

from conftest import expr_complete, simplicial_vertices


def complete(k):
    return build_graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def consecutive_ids(sizes):
    """One run of consecutive vertex ids per class, starting at 0."""
    out, nxt = [], 0
    for size in sizes:
        out.append(list(range(nxt, nxt + size)))
        nxt += size
    return out


class TestEval:
    def test_single_create(self):
        lg = eval_expr(Create(1, 0))
        assert lg.graph.n == 1 and width(Create(1, 0)) == 1

    def test_k2(self):
        e = Join(1, 2, Union(Create(1, 0), Create(2, 1)))
        g = eval_to_graph(e)
        assert g == complete(2) and width(e) == 2

    def test_handwritten_c7(self):
        # wrap the hole with 4 labels: grow a path, close it at the end
        e = Create(1, 0)
        e = Join(1, 2, Union(e, Create(2, 1)))
        for v in range(2, 7):
            e = Rename(3, 4, e)
            e = Rename(2, 3, e)
            e = Join(3, 2, Union(e, Create(2, v)))
        e = Join(1, 2, e)
        g = eval_to_graph(e)
        assert g == pattern("C7").graph

    def test_duplicate_ids_rejected_with_path(self):
        bad = Union(Create(1, 0), Create(1, 0))
        with pytest.raises(ExprError, match="duplicate"):
            eval_expr(bad)

    def test_join_same_label_rejected(self):
        with pytest.raises(ExprError, match="distinct"):
            eval_expr(Join(1, 1, Create(1, 0)))

    def test_error_names_path(self):
        bad = Union(Create(1, 0), Join(2, 2, Create(2, 1)))
        with pytest.raises(ExprError, match="right"):
            eval_expr(bad)

    def test_join_idempotent(self):
        base = Join(1, 2, Union(Create(1, 0), Create(2, 1)))
        again = Join(1, 2, base)
        assert eval_to_graph(again) == eval_to_graph(base)

    def test_matches_edge_by_edge_reference(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            ids = rng.choice(100, size=int(rng.integers(1, 25)), replace=False)
            expr = random_expr(rng, ids.tolist())
            lab, edges = eval_by_edges(expr)
            lg = eval_expr(expr)
            assert lg.labeling == lab
            assert {frozenset((lg.ids[a], lg.ids[b])) for a, b in lg.graph.edges()} == edges


# reference version that copies id lists per node; eval_expr's merge forest
# must give the same graph, ids, labeling (in the same order) and errors
def eval_by_lists(expr):
    results = []  # per subtree: (ids list, label dict, joins)
    work = [(expr, "", False)]
    while work:
        node, path, ready = work.pop()
        if not ready:
            work.append((node, path, True))
            if isinstance(node, Union):
                kids = [("left", node.left), ("right", node.right)]
            elif isinstance(node, (Join, Rename)):
                kids = [("child", node.child)]
            else:
                kids = []
            for name, kid in reversed(kids):
                work.append((kid, f"{path}.{name}" if path else name, False))
            continue
        if isinstance(node, Create):
            if type(node.label) is not int or node.label < 1:
                raise ExprError(path, f"label must be an int >= 1, got {node.label!r}")
            if type(node.vertex) is not int or node.vertex < 0:
                raise ExprError(path, f"vertex id must be an int >= 0, got {node.vertex!r}")
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
            if type(node.i) is type(node.j) is int and node.i == node.j:
                raise ExprError(path, f"join needs two distinct labels, got {node.i}")
            if any(type(x) is not int or x < 1 for x in (node.i, node.j)):
                raise ExprError(path, "join labels must be ints >= 1")
            ids, lab, joins = results.pop()
            side_i = [v for v in ids if lab[v] == node.i]
            side_j = [v for v in ids if lab[v] == node.j]
            if side_i and side_j:
                joins.append((side_i, side_j))
            results.append((ids, lab, joins))
        else:
            if any(type(x) is not int or x < 1 for x in (node.old, node.new)):
                raise ExprError(path, "rename labels must be ints >= 1")
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


def assert_same_eval(expr):
    want, got = eval_by_lists(expr), eval_expr(expr)
    assert got.graph == want.graph
    assert got.ids == want.ids
    assert list(got.labeling.items()) == list(want.labeling.items())


def assert_same_error(expr):
    with pytest.raises(ExprError) as want:
        eval_by_lists(expr)
    with pytest.raises(ExprError) as got:
        eval_expr(expr)
    assert str(got.value) == str(want.value)
    assert got.value.path == want.value.path
    return got.value


def chain_with(bad, pos, size=100):
    """_complete_expr's chain over ids 0..size-1 on labels 1 and 2, with the
    create leaf of id pos replaced by bad: id 0 sits in the innermost left
    branch, every other id in the right branch of its link."""
    e = bad if pos == 0 else Create(1, 0)
    for v in range(1, size):
        leaf = bad if pos == v else Create(2, v)
        e = Rename(2, 1, Join(1, 2, Union(e, leaf)))
    return e


class TestMergeForestMatchesListEvaluator:
    def test_random_expressions(self):
        for seed in range(1200):
            rng = np.random.default_rng(seed)
            ids = rng.choice(200, size=int(rng.integers(1, 30)), replace=False)
            assert_same_eval(random_expr(rng, ids.tolist(), labels=6))

    def test_random_repeated_ids_give_the_same_error(self):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            ids = rng.integers(0, 12, size=int(rng.integers(2, 30))).tolist()
            expr = random_expr(rng, ids, labels=6)
            if len(set(ids)) < len(ids):
                assert_same_error(expr)
            else:
                assert_same_eval(expr)

    def test_thickenings_of_every_catalog_base(self, rng):
        bases = [e.graph for e in family_M()] + [pattern("T0").graph, pattern("T1").graph]
        for base in bases:
            for _ in range(3):
                sizes = [1 + int(rng.integers(0, 6)) for _ in range(base.n)]
                n_w = int(rng.integers(0, 4))
                ids = rng.permutation(sum(sizes) + n_w).tolist()
                class_ids = [[ids.pop() for _ in range(s)] for s in sizes]
                assert_same_eval(thickening_expr(base, class_ids, ids))

    def test_chain_helper_is_complete_expr(self):
        assert to_sexpr(chain_with(Create(2, 37), 37)) == to_sexpr(
            _complete_expr(list(range(100)), 1, 2)
        )

    @pytest.mark.parametrize("bad", [
        Create(0, 500),
        Create(2, -3),
        Union(Create(1, 500), Create(2, 500)),
        Union(Union(Create(1, 501), Create(2, 500)), Union(Create(1, 500), Create(3, 501))),
        Create(2, 1),  # repeats an id of the chain
        Join(3, 3, Create(2, 500)),
        Rename(2, 0, Create(2, 500)),
    ])
    def test_errors_deep_in_both_union_branches(self, bad):
        paths = set()
        for pos in (0, 30):  # innermost left branch; a right branch
            err = assert_same_error(chain_with(bad, pos))
            assert err.path.count(".") + 1 >= 200
            paths.add(err.path)
        assert len(paths) == 2

    def test_first_error_in_post_order_wins(self):
        bad = Create(0, 500)
        e = Union(chain_with(Join(3, 3, Create(2, 501)), 40), chain_with(bad, 0))
        assert assert_same_error(e).path.startswith("left.")
        assert assert_same_error(Union(Create(1, 7), e)).path.startswith("right.left.")


# a vertex id is a plain int >= 0 and a label a plain int >= 1: a bool, a
# float or a str in their place is an error at its node, not a value that
# hashes like an int
NOT_INTS = [
    (Join(1, 2, Union(Create(1, False), Create(2, 1))), "child.left",
     "vertex id must be an int >= 0, got False"),
    (Union(Create(1, 0.0), Create(2, 1.0)), "left",
     "vertex id must be an int >= 0, got 0.0"),
    (Create(True, 0), "", "label must be an int >= 1, got True"),
    (Union(Create(1, 0), Create(2, "1")), "right",
     "vertex id must be an int >= 0, got '1'"),
    (Join(True, 2, Create(2, 0)), "", "join labels must be ints >= 1"),
    (Join(1.0, 1.0, Create(1, 0)), "", "join labels must be ints >= 1"),
    (Join(1, True, Create(1, 0)), "", "join labels must be ints >= 1"),
    (Rename(2, "3", Create(2, 0)), "", "rename labels must be ints >= 1"),
]


@pytest.mark.parametrize("expr, path, message", NOT_INTS)
def test_ids_and_labels_must_be_plain_ints(expr, path, message):
    err = assert_same_error(expr)
    assert err.path == path and str(err).endswith(message)
    with pytest.raises(ExprError, match=re.escape(message)):
        eval_to_graph(expr)


# breaks of the node rule that the walkers which do not evaluate used to
# pass over: each walker raises eval_expr's error for the first node, in the
# order of a recursive evaluation, that breaks the rule
RULE_BREAKS = NOT_INTS + [
    (Union(Create(1, 0), Create(True, 1)), "right", "label must be an int >= 1, got True"),
    (Join(2, 2, Create(2, 0)), "", "join needs two distinct labels, got 2"),
    (Create(0, -1), "", "label must be an int >= 1, got 0"),
    (Create(1, -1), "", "vertex id must be an int >= 0, got -1"),
    (Rename(0, 1, Create(1, 0)), "", "rename labels must be ints >= 1"),
    (Join(2, 2, Create(True, 0)), "child", "label must be an int >= 1, got True"),
    (Union(Join(2, 2, Create(1, 0)), Create(1.0, 1)), "left",
     "join needs two distinct labels, got 2"),
    (Rename(1, 2, Union(Create(1, 0), Union(Create(1, 1), "x"))), "child.right.right",
     "not an expression node: 'x'"),
]


@pytest.mark.parametrize("walk", [width, to_sexpr, eval_expr, iter_nodes])
@pytest.mark.parametrize("expr, path, message", RULE_BREAKS)
def test_every_walker_applies_the_node_rule(walk, expr, path, message):
    with pytest.raises(ExprError) as err:
        walk(expr)
    assert err.value.path == path
    assert str(err.value) == f"at {path or 'root'}: {message}"


# values that are no label, and values that are no vertex id; none of
# them is a vertex id, so no union meets a duplicate
BAD_LABELS = [0, -1, True, False, 1.0, "1", None]
BAD_IDS = [-1, True, False, 0.0, "1", None]


def spoiled(rng, expr):
    """expr rebuilt with, now and then, a label, a vertex id or a whole
    subtree replaced by something that breaks the node rule."""
    def pick(values):
        return values[int(rng.integers(len(values)))]

    def bad(x, values):
        return pick(values) if rng.random() < 0.05 else x

    if rng.random() < 0.02:
        return pick([7, "x", None, (Create(1, 0),)])
    if isinstance(expr, Create):
        return Create(bad(expr.label, BAD_LABELS), bad(expr.vertex, BAD_IDS))
    if isinstance(expr, Union):
        return Union(spoiled(rng, expr.left), spoiled(rng, expr.right))
    cls = type(expr)
    a, b = (expr.i, expr.j) if cls is Join else (expr.old, expr.new)
    return cls(bad(a, BAD_LABELS), bad(b, BAD_LABELS), spoiled(rng, expr.child))


def test_walkers_raise_the_evaluators_error_on_random_breaks():
    broken = 0
    for seed in range(600):
        rng = np.random.default_rng(seed)
        ids = rng.choice(200, size=int(rng.integers(1, 30)), replace=False)
        e = spoiled(rng, random_expr(rng, ids.tolist(), labels=6))
        try:
            eval_expr(e)
        except ExprError as want:
            broken += 1
            for walk in (width, to_sexpr, iter_nodes):
                with pytest.raises(ExprError) as got:
                    walk(e)
                assert (got.value.path, str(got.value)) == (want.path, str(want))
        else:
            assert to_sexpr(e) == sexpr_by_recursion(e)
            assert width(e) == len(labels_by_recursion(e))
    assert broken > 200


def random_expr(rng, ids, labels=3):
    """Random expression over the vertex ids with labels 1..labels: unions
    whose sides share labels, renames that often land on a present label,
    and joins that are sometimes repeated."""
    if len(ids) == 1:
        e = Create(int(rng.integers(1, labels + 1)), ids[0])
    else:
        cut = int(rng.integers(1, len(ids)))
        e = Union(random_expr(rng, ids[:cut], labels), random_expr(rng, ids[cut:], labels))
    for _ in range(int(rng.integers(0, 3))):
        i, j = (rng.choice(labels, size=2, replace=False) + 1).tolist()
        if rng.random() < 0.6:
            e = Join(i, j, e)
            if rng.random() < 0.3:
                e = Join(j, i, e)
        else:
            e = Rename(i, j, e)
    return e


def eval_by_edges(expr):
    """Reference semantics: (labels, edge set), adding one edge at a time."""
    if isinstance(expr, Create):
        return {expr.vertex: expr.label}, set()
    if isinstance(expr, Union):
        (la, ea), (lb, eb) = eval_by_edges(expr.left), eval_by_edges(expr.right)
        return {**la, **lb}, ea | eb
    lab, edges = eval_by_edges(expr.child)
    if isinstance(expr, Join):
        for a in lab:
            for b in lab:
                if lab[a] == expr.i and lab[b] == expr.j:
                    edges.add(frozenset((a, b)))
        return lab, edges
    return {v: expr.new if x == expr.old else x for v, x in lab.items()}, edges


def sexpr_by_recursion(expr):
    if isinstance(expr, Create):
        return f"(create {expr.label} {expr.vertex})"
    if isinstance(expr, Union):
        return f"(union {sexpr_by_recursion(expr.left)} {sexpr_by_recursion(expr.right)})"
    a, b = (expr.i, expr.j) if isinstance(expr, Join) else (expr.old, expr.new)
    op = "join" if isinstance(expr, Join) else "rename"
    return f"({op} {a} {b} {sexpr_by_recursion(expr.child)})"


def labels_by_recursion(expr):
    if isinstance(expr, Create):
        return {expr.label}
    if isinstance(expr, Union):
        return labels_by_recursion(expr.left) | labels_by_recursion(expr.right)
    own = {expr.i, expr.j} if isinstance(expr, Join) else {expr.old, expr.new}
    return own | labels_by_recursion(expr.child)


def size_by_recursion(expr):
    if isinstance(expr, Create):
        return 1
    if isinstance(expr, Union):
        return 1 + size_by_recursion(expr.left) + size_by_recursion(expr.right)
    return 1 + size_by_recursion(expr.child)


class TestWalkersMatchRecursiveReferences:
    def test_random_expressions(self):
        for seed in range(1200):
            rng = np.random.default_rng(seed)
            ids = rng.choice(200, size=int(rng.integers(1, 30)), replace=False)
            e = random_expr(rng, ids.tolist(), labels=6)
            assert to_sexpr(e) == sexpr_by_recursion(e)
            assert width(e) == len(labels_by_recursion(e))
            assert sum(1 for _ in iter_nodes(e)) == size_by_recursion(e)
            assert from_sexpr(to_sexpr(e)) == e


class TestNonNodesRejected:
    """Every walker raises ExprError naming the leftmost part that is not a
    node, with its path; a str is never taken for serializer text."""

    @pytest.mark.parametrize("walk", [width, to_sexpr, eval_expr, iter_nodes])
    @pytest.mark.parametrize("expr, path, named", [
        ("x", "", "'x'"),
        (7, "", "7"),
        (None, "", "None"),
        (Union(Create(1, 0), 7), "right", "7"),
        (Union(Create(1, 0), "x"), "right", "'x'"),
        (Join(1, 2, Union(")", Rename(1, 2, "b"))), "child.left", "')'"),
        (Rename(2, 1, Union(Create(1, 0), Join(1, 2, (Create(2, 1),)))),
         "child.right.child", "(Create(label=2, vertex=1),)"),
    ])
    def test_walkers_raise_expr_error(self, walk, expr, path, named):
        with pytest.raises(ExprError) as err:
            walk(expr)
        assert str(err.value) == f"at {path or 'root'}: not an expression node: {named}"
        assert err.value.path == path

    def test_deep_non_node_path(self):
        e = chain_with("x", 30)
        for walk in (width, to_sexpr, eval_expr, iter_nodes):
            with pytest.raises(ExprError) as err:
                walk(e)
            assert err.value.path.endswith(".right") and err.value.path.count(".") >= 200


class TestComplete:
    def test_k1_width_1(self):
        assert width(expr_complete(1)) == 1

    def test_width_2_for_k_up_to_50(self):
        for k in (2, 3, 7, 50):
            e = expr_complete(k)
            assert width(e) == 2
            assert eval_to_graph(e) == complete(k)

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            expr_complete(0)


class TestSubstitute:
    """A thickening substitutes a clique for every quotient vertex; these pin
    the clique-substitution facts through thickening_expr."""

    def test_k2_into_k2_gives_k3(self):
        e = thickening_expr(complete(2), [[0, 1], [2]], [])
        assert eval_to_graph(e) == complete(3)
        assert width(e) == 2

    def test_width_law_random_pairs(self, rng):
        c7 = pattern("C7").graph
        for _ in range(15):
            sizes = [1 + int(rng.integers(0, 5)) for _ in range(7)]
            e = thickening_expr(c7, consecutive_ids(sizes), [])
            assert width(e) <= max(c7.n, 2)
            assert eval_to_graph(e) == expand_thickening(c7, sizes)[0]

    def test_missing_leaf_rejected(self):
        with pytest.raises(ValueError):
            thickening_expr(complete(2), [[0, 1]], [])
        with pytest.raises(ValueError):
            thickening_expr(complete(2), [[0, 1], []], [])


class TestThickenAndUniversals:
    def test_thicken_t0_units(self):
        t0 = pattern("T0").graph
        e = thickening_expr(t0, consecutive_ids([1] * 9), [])
        assert eval_to_graph(e) == t0
        assert width(e) <= 9

    def test_thicken_matches_expand(self):
        base = pattern("3-pentagon").graph
        sizes = [2, 1, 3, 1, 2, 1, 1]
        want, _ = expand_thickening(base, sizes)
        assert eval_to_graph(thickening_expr(base, consecutive_ids(sizes), [])) == want

    def test_m0_doubled_width_at_most_12(self):
        from pentaseven.catalog import catalog_entry

        base = catalog_entry("M0").graph
        e = thickening_expr(base, consecutive_ids([2] * 12), [])
        assert width(e) <= 12
        want, _ = expand_thickening(base, [2] * 12)
        assert eval_to_graph(e) == want

    def test_add_universals(self):
        for base, sizes in ((pattern("C7").graph, [1] * 7),
                            (pattern("3-pentagon").graph, [2, 1, 3, 1, 2, 1, 1])):
            thick, _ = expand_thickening(base, sizes)
            n = thick.n + 3
            universals = [n - 3, n - 2, n - 1]
            e = thickening_expr(base, consecutive_ids(sizes), universals)
            assert width(e) <= max(base.n, 2)
            g = eval_to_graph(e)
            assert g.n == n
            assert induced_subgraph(g, range(thick.n))[0] == thick
            for u in universals:
                assert g.degree(u) == n - 1

    def test_universals_on_width_one(self):
        e = thickening_expr(build_graph(1, []), [[0]], [1, 2])
        g = eval_to_graph(e)
        assert g == complete(3)
        assert width(e) == 2


class TestClassExpression:
    def test_thickened_m1_plus_universal(self):
        from pentaseven.catalog import catalog_entry

        base = catalog_entry("M1").graph
        big, _ = expand_thickening(base, [2, 1, 1, 2, 1, 1, 1, 2, 1])
        import numpy as np

        n = big.n
        adj = np.zeros((n + 1, n + 1), dtype=bool)
        adj[:n, :n] = big.adj
        adj[n, :n] = adj[:n, n] = True
        from pentaseven.core import Graph

        g = Graph(adj)
        e = expr_for_class_graph(g)
        assert width(e) <= 9
        assert eval_to_graph(e) == g

    def test_t1_width_at_most_10(self):
        e = expr_for_class_graph(pattern("T1").graph)
        assert width(e) <= 10
        assert eval_to_graph(e) == pattern("T1").graph

    def test_tent_with_y_refused(self):
        for seed in range(40):
            g, part = gen_tent(GenParams(seed=seed, p_nonempty=1.0))
            if part.y:
                with pytest.raises(ExpressionRefusal, match="simplicial"):
                    expr_for_class_graph(g)
                return
        raise AssertionError("no tent with nonempty Y generated")

    def test_simplicial_refusal_names_first_prefix_vertex(self, monkeypatch):
        graphs = [pattern("P3").graph, build_graph(5, [(0, 1), (1, 2), (3, 4)])]
        for seed in range(20):
            params = GenParams(seed=seed, a_components=(1, 2), z_components=(1, 2))
            for gen in (gen_saucer, gen_tent):
                g, _ = gen(params)
                graphs += [g, mutate(g, seed)]
        graphs = [g for g in graphs if simplicial_prefix(g).order]
        assert len(graphs) >= 40

        def no_recognize(g):
            raise AssertionError("cwd ran recognize on a simplicial graph")

        monkeypatch.setattr(cwd, "recognize", no_recognize)
        for g in graphs:
            first = simplicial_prefix(g).order[0]
            with pytest.raises(ExpressionRefusal,
                               match=rf"simplicial vertex \({first}\)"):
                expr_for_class_graph(g)

    def test_simplicial_seed_computed_once(self, monkeypatch):
        from pentaseven import decompose
        from pentaseven.catalog import catalog_entry

        g, _ = expand_thickening(catalog_entry("M0").graph, [3] * 12)
        walks = []
        nonadjacent_pair = decompose.nonadjacent_pair
        monkeypatch.setattr(
            decompose, "nonadjacent_pair",
            lambda rows, mask, top=None: walks.append(mask)
            or nonadjacent_pair(rows, mask, top),
        )
        assert eval_to_graph(expr_for_class_graph(g)) == g
        assert len(walks) == 12  # one clique walk per closed-twin class

    def test_refusal_stops_at_the_first_simplicial_class(self, monkeypatch):
        from pentaseven import decompose

        g, part = gen_saucer(GenParams(seed=0, a_components=(1, 2)))
        assert part.a_components
        # relabel so that a simplicial vertex comes first
        s = min(simplicial_vertices(g))
        order = [s] + [v for v in range(g.n) if v != s]
        new = {v: k for k, v in enumerate(order)}
        g = build_graph(g.n, [(new[u], new[v]) for u, v in g.edges()])
        walks = []
        nonadjacent_pair = decompose.nonadjacent_pair
        monkeypatch.setattr(
            decompose, "nonadjacent_pair",
            lambda rows, mask, top=None: walks.append(mask)
            or nonadjacent_pair(rows, mask, top),
        )
        with pytest.raises(ExpressionRefusal, match=r"simplicial vertex \(0\)"):
            expr_for_class_graph(g)
        assert len(walks) == 1

    def test_out_of_class_refused(self):
        with pytest.raises(NotInClassError):
            expr_for_class_graph(pattern("C6").graph)

    def test_generated_specials_roundtrip(self):
        for seed in range(10):
            g, _ = gen_special(
                GenParams(seed=seed, max_class_size=3, universal_count=(0, 2))
            )
            e = expr_for_class_graph(g)
            assert width(e) <= 12
            assert eval_to_graph(e) == g


class TestSexpr:
    def test_round_trip(self):
        e = expr_for_class_graph(
            gen_special(GenParams(seed=3, max_class_size=2, universal_count=(1, 2)))[0]
        )
        assert from_sexpr(to_sexpr(e)) == e

    def test_grammar_example(self):
        text = "(join 1 2 (union (create 1 0) (create 2 1)))"
        e = from_sexpr(text)
        assert eval_to_graph(e) == complete(2)
        assert to_sexpr(e) == text

    def test_malformed_rejected(self):
        for bad in ("", "(create 1)", "(union (create 1 0))", "(frob 1 2)",
                    "(create 1 0) (create 2 1)", "(join 1 2 (create 1 0)"):
            with pytest.raises(ExprError):
                from_sexpr(bad)

    def test_deep_expression_round_trip(self):
        # recursive dataclass equality would overflow at this depth; compare
        # the canonical serialization instead
        e = expr_complete(5000)
        s = to_sexpr(e)
        assert to_sexpr(from_sexpr(s)) == s
        assert width(e) == 2 and sum(1 for _ in iter_nodes(e)) == 4 * 5000 - 3
        assert eval_to_graph(e).num_edges == 5000 * 4999 // 2

    def test_deep_thickening_round_trip(self):
        from pentaseven.catalog import catalog_entry

        base = catalog_entry("M0").graph
        sizes = [167] * 11 + [163]  # n = 2 000
        e = thickening_expr(base, consecutive_ids(sizes), [])
        s = to_sexpr(e)
        assert to_sexpr(from_sexpr(s)) == s
        assert width(e) == 12
        assert eval_to_graph(e) == expand_thickening(base, sizes)[0]


@given(st.integers(0, 2**16), st.sampled_from([gen_saucer, gen_tent]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_least_simplicial_on_pendant_graphs(seed, gen, flip):
    g, _ = gen(GenParams(seed=seed, a_components=(1, 2), z_components=(1, 2)))
    if flip:
        g = mutate(g, seed)
    least = least_simplicial(g)
    assert least == min(simplicial_vertices(Graph.from_rows(g.rows)), default=None)
    # a stopped walk leaves nothing behind that recognize could misread
    assert recognize(g) == recognize(Graph.from_rows(g.rows))
