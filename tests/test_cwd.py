import numpy as np
import pytest

from pentaseven import cwd
from pentaseven.catalog import pattern
from pentaseven.core import build_graph, induced_subgraph
from pentaseven.cwd import (
    Create,
    ExprError,
    ExpressionRefusal,
    Join,
    Rename,
    Union,
    eval_expr,
    eval_to_graph,
    expr_complete,
    expr_for_class_graph,
    from_sexpr,
    thickening_expr,
    to_sexpr,
    width,
)
from pentaseven.decompose import expand_thickening, simplicial_prefix
from pentaseven.generate import GenParams, gen_saucer, gen_special, gen_tent, mutate
from pentaseven.recognize import NotInClassError


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


def random_expr(rng, ids):
    """Random expression over the vertex ids, labels 1..3."""
    if len(ids) == 1:
        e = Create(int(rng.integers(1, 4)), ids[0])
    else:
        cut = int(rng.integers(1, len(ids)))
        e = Union(random_expr(rng, ids[:cut]), random_expr(rng, ids[cut:]))
    for _ in range(int(rng.integers(0, 3))):
        i, j = rng.choice([1, 2, 3], size=2, replace=False).tolist()
        e = Join(i, j, e) if rng.random() < 0.6 else Rename(i, j, e)
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
        e = expr_complete(300)
        s = to_sexpr(e)
        assert to_sexpr(from_sexpr(s)) == s
        assert eval_to_graph(e).num_edges == 300 * 299 // 2
