"""The numpy elimination kernel against definition-level references."""

import numpy as np
from hypothesis import given, settings

from pentaseven import _kernels
from pentaseven.core import induced_subgraph, is_simplicial

from conftest import random_graphs


def nonedge_counts_by_pair_scan(g):
    counts = []
    for v in range(g.n):
        nbrs = sorted(g.neighbors(v))
        counts.append(sum(
            1
            for i, a in enumerate(nbrs)
            for b in nbrs[i + 1:]
            if not g.has_edge(a, b)
        ))
    return counts


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


@given(random_graphs(max_n=20))
@settings(max_examples=50, deadline=None)
def test_nonedge_counts_agree(g):
    got = _kernels.nonedge_counts(g.adj)
    assert np.asarray(got).tolist() == nonedge_counts_by_pair_scan(g)


@given(random_graphs(max_n=20))
@settings(max_examples=50, deadline=None)
def test_elimination_agrees(g):
    order, alive = _kernels.simplicial_elimination(g.adj)
    ref_order, ref_alive = elimination_by_definition(g)
    assert list(order) == ref_order
    assert set(np.flatnonzero(alive).tolist()) == ref_alive


def test_backend_reported():
    assert _kernels.BACKEND == "numpy"
