import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from pentaseven import oracle
from pentaseven.catalog import is_isomorphic_small, pattern
from pentaseven.core import (
    ANTICOMPLETE,
    COMPLETE,
    MIXED,
    Graph,
    _mask_of,
    bits_of,
    build_graph,
    components,
    greedy_extend,
    induced_subgraph,
    nonadjacent_pair,
    relation,
)
from pentaseven.decompose import (
    expand_thickening,
    least_simplicial,
    simplicial_seed,
    strip_universals,
)
from pentaseven.oracle import find_induced

from conftest import is_clique, is_simplicial, random_graphs, simplicial_vertices


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
        # checked before the endpoint becomes a bit shift
        with pytest.raises(ValueError, match=r"\[0, 1000000000000\]"):
            build_graph(3, [[0, 10**12]])

    def test_nonnull(self):
        with pytest.raises(ValueError):
            build_graph(0, [])

    def test_numpy_integers_rejected(self):
        for n, edges, bad in [
            (np.int64(3), [(0, 1)], np.int64(3)),
            (3, [(0, 1), (1, np.int32(2))], np.int32(2)),
            (3, [(np.uint8(0), 1)], np.uint8(0)),
        ]:
            with pytest.raises(ValueError, match=re.escape(f"{bad!r}")):
                build_graph(n, edges)

    def test_one_shot_iterator(self):
        # valid pairs build in one read; a bad pair needs a second read,
        # which an iterator cannot give, so nothing is built from the rest
        assert build_graph(3, iter([(0, 1), (1, 2)])).num_edges == 2
        with pytest.raises(ValueError, match="pass a sequence"):
            build_graph(3, iter([(0, 1), (0, 5), (1, 2)]))

    def test_bool_count_rejected(self):
        with pytest.raises(ValueError, match="got True"):
            build_graph(True, [])

    def test_bool_endpoint_rejected(self):
        for flag in (True, np.bool_(True)):
            with pytest.raises(ValueError, match=re.escape(f"endpoint {flag!r}")):
                build_graph(3, [(0, flag)])


def build_graph_reference(n, edges):
    """build_graph as one loop that checks every pair before adding it; a
    count or endpoint is an integer only when it is a plain int."""
    if type(n) is not int:
        raise ValueError(f"vertex count must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("graphs are nonnull: need n >= 1")
    rows = [0] * n
    bit = [1 << v for v in range(n)]
    for pair in edges:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise ValueError(f"edge {pair!r} is not a pair of vertices") from None
        for x in (u, v):
            if type(x) is not int:
                raise ValueError(f"edge endpoint {x!r} in {pair!r} is not an integer")
        if u == v:
            raise ValueError(f"loop edge {pair!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range in {pair!r}")
        rows[u] |= bit[v]
        rows[v] |= bit[u]
    return Graph.from_rows(rows)


@st.composite
def mixed_pair_lists(draw):
    """(n, pairs): valid pairs, with or without a duplicate among them and
    a numpy integer in place of one endpoint, and up to three bad ones
    inserted anywhere: loops, endpoints out of range on both sides, bools,
    numpy integers, floats, strings, None and things that are not pairs."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    pairs = []
    if n > 1:  # v = u + d mod n with d in 1..n-1 never equals u
        valid = st.tuples(vertex, st.integers(1, n - 1)).map(
            lambda p: (p[0], (p[0] + p[1]) % n)
        )
        pairs = draw(st.lists(valid, max_size=24))
        if pairs and draw(st.booleans()):
            pairs.append(draw(st.sampled_from(pairs)))  # a duplicate
        if pairs and draw(st.booleans()):
            i = draw(st.integers(0, len(pairs) - 1))
            pairs[i] = [np.int32(pairs[i][0]), pairs[i][1]]
    outside = st.one_of(st.integers(-2 * n - 1, -1), st.integers(n, 2 * n + 1))
    endpoint = st.one_of(
        vertex,
        outside,
        vertex.map(np.int64),
        vertex.map(np.uint8),
        st.sampled_from([True, False, np.bool_(True), 1.0, 0.5, "0", None]),
    )
    bad = st.one_of(
        vertex.map(lambda v: (v, v)),
        st.tuples(vertex, outside),
        st.tuples(outside, vertex),
        st.lists(endpoint, min_size=2, max_size=2),
        st.lists(endpoint, min_size=1, max_size=3),
        st.text(min_size=2, max_size=2),
        endpoint,
    )
    for pair in draw(st.lists(bad, max_size=3)):
        pairs.insert(draw(st.integers(0, len(pairs))), pair)
    return n, pairs


@given(mixed_pair_lists())
@settings(max_examples=300, deadline=None)
def test_build_graph_matches_reference(case):
    n, edges = case
    try:
        want = build_graph_reference(n, edges)
    except ValueError as exc:
        event("rejected")
        with pytest.raises(ValueError) as got:
            build_graph(n, edges)
        assert str(got.value) == str(exc)
    else:
        event("accepted")
        assert build_graph(n, edges) == want


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

    @pytest.mark.parametrize("bad", [True, np.int64(1), 1.0, -1, 7, "1"])
    def test_member_that_is_not_a_vertex_rejected(self, bad):
        with pytest.raises(ValueError, match="not a vertex"):
            induced_subgraph(c7(), [0, bad, 2])


class TestRelation:
    def test_cases_on_c7(self):
        g = c7()
        assert relation(g, {0}, {1, 6}) == COMPLETE
        assert relation(g, {0}, {2, 3, 4, 5}) == ANTICOMPLETE
        assert relation(g, {0}, {1, 3}) == MIXED

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            relation(c7(), {0, 1}, {1, 2})

    @pytest.mark.parametrize("bad", [True, np.int64(1), -1, 7])
    def test_member_that_is_not_a_vertex_rejected(self, bad):
        with pytest.raises(ValueError, match="sets of vertices"):
            relation(c7(), {0}, {bad})


class TestComponents:
    def test_2p3(self):
        comps = components(pattern("2P3").graph)
        assert sorted(len(c) for c in comps) == [3, 3]

    def test_k5_anticomponents(self):
        k5 = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        anti = components(k5.complement())
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
        anti = components(joined.complement())
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

    @given(random_graphs(max_n=14))
    @settings(max_examples=150, deadline=None)
    def test_simplicial_vertices_match_per_vertex_definition(self, g):
        assert simplicial_vertices(g) == {v for v in range(g.n) if is_simplicial(g, v)}

    def test_simplicial_vertices_on_twin_heavy_thickenings(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 10))
            adj = np.triu(rng.random((n, n)) < rng.random(), 1)
            base = Graph(adj | adj.T)
            g, _ = expand_thickening(base, [int(s) for s in rng.integers(1, 6, size=n)])
            want = {v for v in range(g.n) if is_simplicial(g, v)}
            assert simplicial_vertices(g) == want

    @given(random_graphs(max_n=14))
    @settings(max_examples=150, deadline=None)
    def test_least_simplicial_is_min_of_a_fresh_seed(self, g):
        fresh = Graph.from_rows(g.rows)
        least = least_simplicial(g)
        assert least == min(simplicial_vertices(fresh), default=None)
        if least is None:  # the walk ran to the end and left the full seed
            assert g._simplicial == simplicial_seed(fresh)
        else:  # the walk stopped early and memoized nothing
            assert g._simplicial is None
        assert least_simplicial(g) == least

    def test_least_simplicial_reads_the_memo(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert simplicial_vertices(g) == {0, 3}
        with mock.patch("pentaseven.decompose.nonadjacent_pair") as walk:
            assert least_simplicial(g) == 0
        walk.assert_not_called()

    @given(random_graphs(max_n=14), st.data())
    @settings(max_examples=150, deadline=None)
    def test_nonadjacent_pair_contract(self, g, data):
        members = data.draw(st.sets(st.integers(0, g.n - 1)))
        top = data.draw(st.none() | st.integers(0, g.n - 1))
        walked = [v for v in members if top is None or v <= top]
        # pairwise scan: the walked members complete to the others
        complete = {v for v in walked if all(g.has_edge(v, y) for y in members - {v})}
        pair = nonadjacent_pair(g.rows, _mask_of(members), top)
        assert (pair is None) == (complete == set(walked))
        if pair is not None:
            w, x = pair
            assert w in walked and x in members and w != x and not g.has_edge(w, x)
            assert x == max(y for y in members - {w} if not g.has_edge(w, y))
            assert all(v in complete for v in walked if v > w)

    def test_p3_ends_simplicial(self):
        g = pattern("P3").graph
        assert is_simplicial(g, 0) and is_simplicial(g, 2)
        assert not is_simplicial(g, 1)

    def test_empty_and_singleton_are_cliques(self):
        g = c7()
        assert is_clique(g, set()) and is_clique(g, {3})
        assert is_clique(g, {0, 1}) and not is_clique(g, {0, 2})


def greedy_extend_by_neighbors(g, order, assignment):
    """Reference: the colors of v's colored neighbors, collected one by one."""
    for v in order:
        used = {assignment[u] for u in bits_of(g.rows[v]) if u in assignment}
        c = 1
        while c in used:
            c += 1
        assignment[v] = c


class TestGreedyExtend:
    @given(random_graphs(max_n=40), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_neighbor_colors(self, g, data):
        # a partial assignment with gaps in its colors, then an order that
        # may repeat vertices and recolor assigned ones
        vs = st.integers(0, g.n - 1)
        colors = st.sampled_from([1, 2, 4, 5, 9])
        start = data.draw(st.dictionaries(vs, colors, max_size=g.n))
        order = data.draw(st.lists(vs, max_size=2 * g.n))
        got, want = dict(start), dict(start)
        greedy_extend(g, order, got)
        greedy_extend_by_neighbors(g, order, want)
        assert list(got.items()) == list(want.items())

    def test_unused_colors_stay_free(self):
        # no vertex has color 2, so it is free for 0; 3 has no neighbors
        g = build_graph(4, [(0, 1), (0, 2)])
        assignment = {1: 1, 2: 3}
        greedy_extend(g, [0, 3], assignment)
        assert assignment == {1: 1, 2: 3, 0: 2, 3: 1}

    @given(random_graphs(max_n=10))
    @settings(max_examples=80, deadline=None)
    def test_chromatic_witness_unchanged(self, g):
        got = oracle.chromatic_number_bf(g)
        with mock.patch.object(oracle, "greedy_extend", greedy_extend_by_neighbors):
            want = oracle.chromatic_number_bf(g)
        assert got == want


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
