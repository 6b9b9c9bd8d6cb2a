"""The bitset-row graph against the dense-matrix builders it replaced.

The reference functions below are the numpy implementations that `core`,
`decompose` and `generate` used when a graph stored its adjacency matrix;
every row-based builder and query must give the same graph.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentaseven.core import Graph, build_graph, induced_subgraph
from pentaseven.decompose import expand_thickening
from pentaseven.generate import mutate

from conftest import random_graphs


def build_dense(n, edges):
    adj = np.zeros((n, n), dtype=np.bool_)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return adj


def rows_dense(adj):
    packed = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(packed[v].tobytes(), "little") for v in range(len(adj))]


def complement_dense(adj):
    a = ~adj
    np.fill_diagonal(a, False)
    return a


def expand_thickening_dense(h_adj, sizes):
    classmap, nxt = [], 0
    for s in sizes:
        classmap.append(list(range(nxt, nxt + s)))
        nxt += s
    adj = np.zeros((nxt, nxt), dtype=np.bool_)
    for v, ids in enumerate(classmap):
        for a in ids:
            for b in ids:
                if a != b:
                    adj[a, b] = True
        for u in range(v + 1, len(sizes)):
            if h_adj[u, v]:
                for a in ids:
                    for b in classmap[u]:
                        adj[a, b] = adj[b, a] = True
    return adj, classmap


def mutate_dense(adj, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = len(adj)
    if n < 2:
        return adj
    u = int(rng.integers(0, n))
    v = int(rng.integers(0, n - 1))
    if v >= u:
        v += 1
    adj = adj.copy()
    adj[u, v] = adj[v, u] = not adj[u, v]
    return adj


def assert_same(g, adj):
    """g holds exactly the dense graph adj, through every query."""
    n = len(adj)
    assert g.n == n and g.rows == tuple(rows_dense(adj))
    out = g.adj
    assert out.dtype == np.bool_ and not out.flags.writeable
    assert np.array_equal(out, adj)
    for v in range(n):
        assert g.degree(v) == int(adj[v].sum())
        assert g.neighbors(v) == frozenset(np.flatnonzero(adj[v]).tolist())
        assert all(g.has_edge(v, u) == bool(adj[v, u]) for u in range(n))
    iu, iv = np.nonzero(np.triu(adj, k=1))
    assert g.edges() == list(zip(iu.tolist(), iv.tolist()))
    assert g.num_edges == int(adj.sum()) // 2
    assert g == Graph(adj) and hash(g) == hash(Graph(adj))


@st.composite
def edge_lists(draw, max_n=70):
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    return n, [(u, v) for u, v in pairs if u != v]


@given(edge_lists())
@settings(max_examples=80, deadline=None)
def test_build_graph_matches_dense_builder(case):
    n, edges = case
    assert_same(build_graph(n, edges), build_dense(n, edges))


@given(random_graphs(max_n=70))
@settings(max_examples=80, deadline=None)
def test_adjacency_round_trip_and_complement(g):
    adj = np.array(g.adj)
    assert_same(g, adj)
    assert_same(Graph(g.adj), adj)
    assert_same(g.complement(), complement_dense(adj))


@given(random_graphs(max_n=70), st.data())
@settings(max_examples=80, deadline=None)
def test_induced_subgraph_matches_ix(g, data):
    keep = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    sub, index = induced_subgraph(g, keep)
    idx = sorted(keep)
    assert index == {old: new for new, old in enumerate(idx)}
    assert_same(sub, g.adj[np.ix_(idx, idx)])


@given(random_graphs(max_n=12), st.data())
@settings(max_examples=60, deadline=None)
def test_expand_thickening_matches_dense(h, data):
    sizes = data.draw(st.lists(st.integers(1, 8), min_size=h.n, max_size=h.n))
    g, classmap = expand_thickening(h, sizes)
    adj, want = expand_thickening_dense(h.adj, sizes)
    assert classmap == want
    assert_same(g, adj)


@given(random_graphs(max_n=70), st.integers(0, 2**64 - 1))
@settings(max_examples=80, deadline=None)
def test_mutate_matches_dense(g, seed):
    assert_same(mutate(g, seed), mutate_dense(g.adj, seed))


@pytest.mark.parametrize("adj, message", [
    (np.zeros((2, 3), dtype=bool), "square"),
    (np.zeros((0, 0), dtype=bool), "nonnull"),
    (np.eye(2, dtype=bool), "loop"),
    (np.triu(np.ones((3, 3), dtype=bool), 1), "symmetric"),
])
def test_dense_constructor_checks(adj, message):
    with pytest.raises(ValueError, match=message):
        Graph(adj)
