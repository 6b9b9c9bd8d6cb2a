"""The simplicial elimination (`decompose.simplicial_prefix`) against two
references: the definition, and the numpy nonedge-count elimination; and its
row reads against 2n + 6m."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentaseven import _kernels
from pentaseven.core import Graph, bits_of, build_graph, induced_subgraph
from pentaseven.decompose import simplicial_prefix
from pentaseven.generate import GenParams, gen_saucer, gen_tent

from conftest import is_simplicial, random_graphs


def elimination_by_definition(g):
    """Repeatedly delete the smallest vertex that is simplicial in the
    subgraph induced on the vertices left."""
    alive = set(range(g.n))
    order = []
    while alive:
        sub, index = induced_subgraph(g, alive)
        simplicial = [v for v in alive if is_simplicial(sub, index[v])]
        if not simplicial:
            break
        u = min(simplicial)
        order.append(u)
        alive.remove(u)
    return order, alive


def nonedge_counts(adj):
    """counts[v] = number of nonadjacent vertex pairs inside N(v)."""
    a = adj.astype(np.int64)
    deg = a.sum(axis=1)
    # edges inside N(v) = triangles through v = diag(A^3)/2
    tri = np.einsum("ij,jk,ki->i", a, a, a) // 2
    return deg * (deg - 1) // 2 - tri


def elimination_by_counts(g):
    """Keep every vertex's nonedge count and delete the smallest alive
    vertex whose count is zero, updating its neighbors' counts."""
    a = g.adj.copy()
    counts = nonedge_counts(a)
    alive = np.ones(g.n, dtype=np.bool_)
    order = []
    while True:
        eligible = np.flatnonzero(alive & (counts == 0))
        if eligible.size == 0:
            break
        u = int(eligible[0])
        order.append(u)
        alive[u] = False
        # removing u deletes, inside each neighbor's neighborhood, the
        # nonadjacent pairs {u, w} with w alive, w in N(v), w not in N(u)
        nbrs = a[u] & alive
        if nbrs.any():
            outside = alive & ~a[u]
            outside[u] = False
            counts[nbrs] -= (a[nbrs][:, outside]).sum(axis=1)
        a[u, :] = False
        a[:, u] = False
    return order, set(np.flatnonzero(alive).tolist())


def split_graph(k, s, seed):
    """Clique on 0..k-1 plus s independent vertices, each joined to a random
    subset of the clique."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for x in range(k, k + s):
        edges += [(x, c) for c in np.flatnonzero(rng.random(k) < 0.3).tolist()]
    return build_graph(k + s, edges)


def descending_path_under_clique(k, t):
    """Path s1..st on ids 5..t+4 under a clique K on the k ids above it, K
    complete to the path, and s1 joined through one vertex z (the last id)
    to the C5 on 0..4.  The path is eliminated from its top end down, and
    each step moves the watched pair of every K vertex one path vertex
    down."""
    path = list(range(5, t + 5))
    clique = list(range(t + 5, t + k + 5))
    z = t + k + 5
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(z, 0), (z, path[0])]
    edges += list(zip(path, path[1:]))
    edges += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
    edges += [(a, s) for a in clique for s in path]
    return build_graph(z + 1, edges)


@st.composite
def interval_graphs(draw, max_n=80):
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = rng.integers(0, 2 * n, size=n)
    right = left + rng.integers(0, draw(st.integers(1, 2 * n)), size=n)
    adj = (left[:, None] <= right[None, :]) & (left[None, :] <= right[:, None])
    np.fill_diagonal(adj, False)
    return Graph(adj)


def relabeled(g, seed):
    perm = np.random.default_rng(seed).permutation(g.n).tolist()
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class CountingRows(tuple):
    """Neighborhood rows that count the reads made by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def row_reads(g):
    """Rows the elimination reads on a fresh copy of g (no memoized seed)."""
    g = Graph.from_rows(g.rows)
    g.rows = rows = CountingRows(g.rows)
    simplicial_prefix(g)
    return rows.reads


def assert_matches_references(g, definition=True):
    order, rest = simplicial_prefix(g)
    ref_order, ref_rest = elimination_by_counts(g)
    assert list(order) == ref_order
    assert bits_of(rest) == ref_rest
    if definition:
        assert (list(order), bits_of(rest)) == elimination_by_definition(g)


@given(random_graphs(max_n=20))
@settings(max_examples=100, deadline=None)
def test_elimination_agrees(g):
    assert_matches_references(g)


@pytest.mark.parametrize("make", [gen_saucer, gen_tent])
def test_elimination_agrees_on_long_prefix(make):
    # 40 pendant components of up to 20 vertices each
    g, _ = make(GenParams(seed=0, a_components=(40, 40),
                          z_components=(40, 40), max_component_size=20))
    assert len(simplicial_prefix(g).order) >= 400
    assert_matches_references(g, definition=False)


def test_elimination_agrees_on_split_graph():
    g = split_graph(150, 150, seed=3)
    assert_matches_references(g, definition=False)
    order, rest = simplicial_prefix(g)
    assert len(order) == g.n and rest == 0


def test_elimination_agrees_on_complete_graph():
    n = 300
    g = Graph(~np.eye(n, dtype=np.bool_))
    assert_matches_references(g, definition=False)
    assert simplicial_prefix(g) == (tuple(range(n)), 0)


def test_backend_reported():
    assert _kernels.BACKEND == "bitset"


@given(interval_graphs())
@settings(max_examples=60, deadline=None)
def test_elimination_agrees_on_interval_graphs(g):
    assert_matches_references(g)
    assert simplicial_prefix(g).remainder_mask == 0  # interval graphs are chordal


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_elimination_agrees_on_descending_path(seed):
    k, t = 30, 40
    g = descending_path_under_clique(k, t)
    if seed is None:
        order = list(simplicial_prefix(g).order)
        assert order[:t - 1] == list(range(t + 4, 5, -1))  # st down to s2
        assert order[t - 1:] == list(range(t + 5, t + k + 5)) + [5, t + k + 5]
    else:
        g = relabeled(g, seed)
    assert_matches_references(g, definition=False)


@given(random_graphs(max_n=20))
@settings(max_examples=100, deadline=None)
def test_row_reads_bounded(g):
    assert row_reads(g) <= 2 * g.n + 6 * g.num_edges


def test_row_reads_bounded_on_descending_path():
    # a walk that restarts at the top of L re-reads all of K at every step
    g = descending_path_under_clique(120, 120)
    assert row_reads(g) <= 2 * g.n + 6 * g.num_edges
