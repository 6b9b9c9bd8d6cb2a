import numpy as np
import pytest

from pentaseven import cwd
from pentaseven.catalog import pattern
from pentaseven.core import build_graph
from pentaseven.cwd import (
    Create,
    ExprError,
    ExpressionRefusal,
    Join,
    Rename,
    Union,
    eval_expr,
    eval_to_graph,
    expr_add_universals,
    expr_complete,
    expr_for_class_graph,
    expr_substitute,
    expr_thicken,
    from_sexpr,
    to_sexpr,
    width,
)
from pentaseven.decompose import expand_thickening, simplicial_prefix
from pentaseven.generate import GenParams, gen_saucer, gen_special, gen_tent, mutate
from pentaseven.recognize import NotInClassError


def complete(k):
    return build_graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def shift_ids(expr, delta):
    if isinstance(expr, Create):
        return Create(expr.label, expr.vertex + delta)
    if isinstance(expr, Union):
        return Union(shift_ids(expr.left, delta), shift_ids(expr.right, delta))
    if isinstance(expr, Join):
        return Join(expr.i, expr.j, shift_ids(expr.child, delta))
    return Rename(expr.old, expr.new, shift_ids(expr.child, delta))


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
    def test_k2_into_k2_gives_k3(self):
        host = expr_complete(2)
        sub = expr_substitute(host, 0, shift_ids(expr_complete(2), 10))
        lg = eval_expr(sub)
        assert lg.graph == complete(3)
        assert width(sub) == 2

    def test_c7_into_isolated_vertex(self):
        c7e = cwd.thickening_expr(pattern("C7").graph, [[i + 5] for i in range(7)], [])
        got = expr_substitute(Create(1, 0), 0, c7e)
        assert eval_expr(got).graph == pattern("C7").graph

    def test_width_law_random_pairs(self, rng):
        for _ in range(15):
            kg = int(rng.integers(2, 6))
            kh = int(rng.integers(1, 6))
            host = expr_thicken(
                pattern("C7").graph, [1 + int(rng.integers(0, 2)) for _ in range(7)]
            )
            sub_expr = shift_ids(expr_complete(kh), 100)
            target = int(rng.integers(0, 7))
            got = expr_substitute(host, target, sub_expr)
            assert width(got) <= max(width(host), width(sub_expr))
            lg = eval_expr(got)
            assert lg.graph.n == eval_expr(host).graph.n - 1 + kh

    def test_missing_leaf_rejected(self):
        with pytest.raises(ValueError):
            expr_substitute(expr_complete(2), 9, shift_ids(expr_complete(2), 10))


class TestThickenAndUniversals:
    def test_thicken_t0_units(self):
        e = expr_thicken(pattern("T0").graph, [1] * 9)
        assert eval_to_graph(e) == pattern("T0").graph
        assert width(e) <= 9

    def test_thicken_matches_expand(self):
        base = pattern("3-pentagon").graph
        sizes = [2, 1, 3, 1, 2, 1, 1]
        want, _ = expand_thickening(base, sizes)
        assert eval_to_graph(expr_thicken(base, sizes)) == want

    def test_m0_doubled_width_at_most_12(self):
        from pentaseven.catalog import catalog_entry

        base = catalog_entry("M0").graph
        e = expr_thicken(base, [2] * 12)
        assert width(e) <= 12
        want, _ = expand_thickening(base, [2] * 12)
        assert eval_to_graph(e) == want

    def test_add_universals(self):
        c7e = expr_thicken(pattern("C7").graph, [1] * 7)
        e = expr_add_universals(c7e, 3)
        assert width(e) <= max(width(c7e), 2)
        g = eval_to_graph(e)
        assert g.n == 10
        for u in (7, 8, 9):
            assert g.degree(u) == 9

    def test_add_zero_universals_is_identity(self):
        e = expr_complete(3)
        assert expr_add_universals(e, 0) is e

    def test_universals_on_width_one(self):
        e = expr_add_universals(Create(1, 0), 2)
        g = eval_to_graph(e)
        assert g == complete(3)
        assert width(e) == 2

    def test_oversized_base_rejected(self):
        with pytest.raises(ValueError):
            expr_thicken(build_graph(13, []), [1] * 13)


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
