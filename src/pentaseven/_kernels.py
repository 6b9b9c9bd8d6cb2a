"""Numpy kernel for the simplicial elimination prefix."""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def nonedge_counts(adj):
    """counts[v] = number of nonadjacent vertex pairs inside N(v)."""
    a = adj.astype(np.int64)
    deg = a.sum(axis=1)
    # edges inside N(v) = triangles through v = diag(A^3)/2
    tri = np.einsum("ij,jk,ki->i", a, a, a) // 2
    return deg * (deg - 1) // 2 - tri


def simplicial_elimination(adj):
    """Maximal simplicial elimination prefix, smallest eligible index first.

    Returns (order, alive) where order lists the eliminated vertices and
    alive marks the remainder, which contains no simplicial vertex.
    """
    n = adj.shape[0]
    a = adj.copy()
    counts = nonedge_counts(a)
    alive = np.ones(n, dtype=np.bool_)
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
            delta = (a[nbrs][:, outside]).sum(axis=1)
            counts[nbrs] -= delta
        a[u, :] = False
        a[:, u] = False
    return np.asarray(order, dtype=np.int64), alive
