"""The bitset elimination kernel against two references: the definition, and
the numpy nonedge-count elimination it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings

from pentaseven import _kernels
from pentaseven.core import Graph, bits_of, build_graph, induced_subgraph, is_simplicial
from pentaseven.generate import GenParams, gen_saucer, gen_tent

from conftest import random_graphs


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


def assert_matches_references(g, definition=True):
    order, rest = _kernels.simplicial_elimination(g)
    ref_order, ref_rest = elimination_by_counts(g)
    assert order == ref_order
    assert bits_of(rest) == ref_rest
    if definition:
        assert (order, bits_of(rest)) == elimination_by_definition(g)


@given(random_graphs(max_n=20))
@settings(max_examples=100, deadline=None)
def test_elimination_agrees(g):
    assert_matches_references(g)


@pytest.mark.parametrize("make", [gen_saucer, gen_tent])
def test_elimination_agrees_on_long_prefix(make):
    # 40 pendant components of up to 20 vertices each
    g, _ = make(GenParams(seed=0, a_components=(40, 40),
                          z_components=(40, 40), max_component_size=20))
    assert len(_kernels.simplicial_elimination(g)[0]) >= 400
    assert_matches_references(g, definition=False)


def test_elimination_agrees_on_split_graph():
    g = split_graph(150, 150, seed=3)
    assert_matches_references(g, definition=False)
    order, rest = _kernels.simplicial_elimination(g)
    assert len(order) == g.n and rest == 0


def test_elimination_agrees_on_complete_graph():
    n = 300
    g = Graph(~np.eye(n, dtype=np.bool_))
    assert_matches_references(g, definition=False)
    assert _kernels.simplicial_elimination(g) == (list(range(n)), 0)


def test_backend_reported():
    assert _kernels.BACKEND == "bitset"
