import numpy as np
import pytest
from hypothesis import HealthCheck, given, assume, settings
from hypothesis import strategies as st

from pentaseven.catalog import is_isomorphic_small, pattern
from pentaseven.core import (
    ANTICOMPLETE,
    COMPLETE,
    MIXED,
    Graph,
    anticomponents,
    build_graph,
    components,
    induced_subgraph,
    is_clique,
    is_simplicial,
    relation,
    simplicial_vertices,
)
from pentaseven.decompose import strip_universals
from pentaseven.oracle import find_induced

from conftest import random_graphs


def c7():
    return build_graph(7, [(i, (i + 1) % 7) for i in range(7)])


class TestBuildGraph:
    def test_c7(self):
        g = c7()
        assert g.n == 7 and g.num_edges == 7
        assert all(g.degree(v) == 2 for v in range(7))

    def test_k1(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.num_edges == 0

    def test_duplicate_edges_collapse(self):
        g = build_graph(3, [(0, 1), (0, 1), (1, 2)])
        assert g.num_edges == 2

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match=r"\(1, 1\)"):
            build_graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 5\)"):
            build_graph(3, [(0, 5)])

    def test_nonnull(self):
        with pytest.raises(ValueError):
            build_graph(0, [])

    def test_numpy_integers_accepted(self):
        g = build_graph(np.int64(3), [(np.int32(0), np.int64(1)), (1, np.uint8(2))])
        assert g == build_graph(3, [(0, 1), (1, 2)])

    def test_bool_endpoint_rejected(self):
        with pytest.raises(ValueError, match="endpoint True"):
            build_graph(3, [(0, True)])


class TestInducedSubgraph:
    def test_path_in_cycle(self):
        sub, m = induced_subgraph(c7(), {0, 1, 2})
        assert m == {0: 0, 1: 1, 2: 2}
        assert is_isomorphic_small(sub, pattern("P3").graph) is not None

    def test_t0_minus_a0_b0_is_pentagon(self):
        t0 = pattern("T0")
        drop = {t0.by_label["a0"], t0.by_label["b0"]}
        sub, _ = induced_subgraph(t0.graph, set(range(9)) - drop)
        assert is_isomorphic_small(sub, pattern("3-pentagon").graph) is not None

    def test_identity(self):
        g = c7()
        sub, m = induced_subgraph(g, range(7))
        assert sub == g and m == {v: v for v in range(7)}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(c7(), set())


class TestRelation:
    def test_cases_on_c7(self):
        g = c7()
        assert relation(g, {0}, {1, 6}) == COMPLETE
        assert relation(g, {0}, {2, 3, 4, 5}) == ANTICOMPLETE
        assert relation(g, {0}, {1, 3}) == MIXED

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            relation(c7(), {0, 1}, {1, 2})


class TestComponents:
    def test_2p3(self):
        comps = components(pattern("2P3").graph)
        assert sorted(len(c) for c in comps) == [3, 3]

    def test_k5_anticomponents(self):
        k5 = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        anti = anticomponents(k5)
        assert len(anti) == 5 and all(len(a) == 1 for a in anti)

    def test_anticomponents_pairwise_complete(self):
        g = pattern("T1").graph
        # join T1 to a nonadjacent pair: two nontrivial anticomponents
        n = g.n + 2
        adj = np.zeros((n, n), dtype=bool)
        adj[: g.n, : g.n] = g.adj
        adj[: g.n, g.n :] = True
        adj[g.n :, : g.n] = True
        joined = Graph(adj)
        anti = anticomponents(joined)
        assert len(anti) == 2
        assert relation(joined, anti[0], anti[1]) == COMPLETE


class TestPredicates:
    def test_c7_no_simplicial_no_universal(self):
        g = c7()
        assert not simplicial_vertices(g)
        assert not strip_universals(g, g.full_mask)[0]

    def test_t0_no_simplicial_no_universal(self):
        g = pattern("T0").graph
        assert not simplicial_vertices(g)
        assert not strip_universals(g, g.full_mask)[0]

    def test_p3_ends_simplicial(self):
        g = pattern("P3").graph
        assert is_simplicial(g, 0) and is_simplicial(g, 2)
        assert not is_simplicial(g, 1)

    def test_empty_and_singleton_are_cliques(self):
        g = c7()
        assert is_clique(g, set()) and is_clique(g, {3})
        assert is_clique(g, {0, 1}) and not is_clique(g, {0, 2})


@given(random_graphs(max_n=64))
@settings(max_examples=60, deadline=None)
def test_complement_involution(g):
    assert g.complement().complement() == g


@given(random_graphs(max_n=10, min_n=3), st.data())
@settings(max_examples=60, deadline=None)
def test_relation_consistency(g, data):
    verts = list(range(g.n))
    a = data.draw(st.sets(st.sampled_from(verts), min_size=1, max_size=3))
    rest = [v for v in verts if v not in a]
    assume(rest)
    b = data.draw(st.sets(st.sampled_from(rest), min_size=1, max_size=3))
    rel = relation(g, a, b)
    pairs = [(u, v) for u in a for v in b]
    if rel == COMPLETE:
        assert all(g.has_edge(u, v) for u, v in pairs)
    elif rel == ANTICOMPLETE:
        assert all(not g.has_edge(u, v) for u, v in pairs)
    else:
        assert any(g.has_edge(u, v) for u, v in pairs)
        assert any(not g.has_edge(u, v) for u, v in pairs)


@given(random_graphs(max_n=9, min_n=3), st.data())
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
def test_common_nonadjacent_neighbors_force_clique(g, data):
    # in a C4-free graph, two nonadjacent vertices complete to S force S
    # to be a clique
    assume(find_induced(g, pattern("C4")) is None)
    nonadj = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]
    assume(nonadj)
    u, v = data.draw(st.sampled_from(nonadj))
    s = g.neighbors(u) & g.neighbors(v)
    assume(s)
    assert is_clique(g, s)


@given(random_graphs(max_n=10))
@settings(max_examples=60, deadline=None)
def test_p3_free_iff_components_complete(g):
    free = find_induced(g, pattern("P3")) is None
    comps_complete = all(is_clique(g, comp) for comp in components(g))
    assert free == comps_complete


@given(random_graphs(max_n=10, min_n=2), st.data())
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
def test_c4_free_clique_neighborhoods_chain(g, data):
    # disjoint cliques X, Y in a C4-free graph: the sets N(x) & Y form a chain
    assume(find_induced(g, pattern("C4")) is None)
    order = data.draw(st.permutations(range(g.n)))
    x: set[int] = set()
    y: set[int] = set()
    for v in order:
        if all(g.has_edge(v, u) for u in x):
            x.add(v)
        elif all(g.has_edge(v, u) for u in y):
            y.add(v)
    assume(len(x) >= 2 and y)
    neigh = sorted((g.neighbors(u) & y for u in x), key=len)
    for small, big in zip(neigh, neigh[1:]):
        assert small <= big
