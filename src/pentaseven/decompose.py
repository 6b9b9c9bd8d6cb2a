"""Strip-down steps: simplicial elimination prefix, universal vertices, twins.

These are the three preprocessing moves of the recognition pipeline: peel a
maximal sequence of simplicial vertices, remove all universal vertices of the
rest in one shot, and quotient the remainder by the closed-neighborhood twin
relation so it can be matched against the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import Graph, _iter_bits, _mask_of, bits_of, induced_subgraph


@dataclass(frozen=True)
class SimplicialPrefix:
    """Maximal sequence order[0..t-1] with order[i] simplicial once
    order[0..i-1] are deleted; no remainder vertex is simplicial after that."""

    order: tuple[int, ...]
    remainder: frozenset[int]


@dataclass(frozen=True)
class TwinDecomposition:
    """Twin classes (cliques, pairwise complete or anticomplete) and the
    quotient graph on one representative per class."""

    classes: tuple[frozenset[int], ...]
    quotient: Graph


def simplicial_prefix(g: Graph) -> SimplicialPrefix:
    """Greedy maximal simplicial elimination, smallest eligible vertex first.

    Starts from the simplicial vertices of g; after a neighbor of v is
    deleted, keeps the count of nonadjacent pairs left inside v's
    neighborhood on the bitset rows, and v becomes eligible when it is zero.
    """
    order, rest = _kernels.simplicial_elimination(g)
    return SimplicialPrefix(order=tuple(order), remainder=bits_of(rest))


def twin_classes(g: Graph, within: int) -> TwinDecomposition:
    """Partition the vertex mask within by the closed-neighborhood relation
    N[x] = N[y] of the subgraph it induces.

    Classes are ordered by smallest member, so quotient vertex i is the
    smallest member of class i.
    """
    groups: dict[int, list[int]] = {}
    for v in _iter_bits(within):  # increasing, so groups open in class order
        groups.setdefault(g.closed_row(v) & within, []).append(v)
    classes = list(groups.values())
    return TwinDecomposition(
        classes=tuple(frozenset(c) for c in classes),
        quotient=induced_subgraph(g, [c[0] for c in classes])[0],
    )


def expand_thickening(
    h: Graph, sizes: dict[int, int] | list[int]
) -> tuple[Graph, list[list[int]]]:
    """Replace each vertex v of h by a clique of sizes[v] vertices.

    Class vertices get consecutive ids in increasing order of v; returns the
    expanded graph and the per-vertex id lists.
    """
    size_list = [sizes[v] for v in range(h.n)]
    if any(s < 1 for s in size_list):
        raise ValueError("thickening class sizes must be >= 1")
    n = sum(size_list)
    classmap: list[list[int]] = []
    nxt = 0
    for s in size_list:
        classmap.append(list(range(nxt, nxt + s)))
        nxt += s
    adj = np.zeros((n, n), dtype=np.bool_)
    for v in range(h.n):
        ids = classmap[v]
        for a in ids:
            for b in ids:
                if a != b:
                    adj[a, b] = True
        for u in range(v + 1, h.n):
            if h.has_edge(u, v):
                for a in ids:
                    for b in classmap[u]:
                        adj[a, b] = adj[b, a] = True
    return Graph(adj), classmap


def strip_universals(g: Graph, within: int) -> tuple[frozenset[int], int]:
    """Remove all universal vertices of the subgraph induced on within at once.

    Returns (w, rest): the universal vertices and the mask of the others;
    rest is 0 when that subgraph is complete (every vertex universal).
    """
    w = frozenset(v for v in _iter_bits(within) if g.closed_row(v) & within == within)
    return w, within & ~_mask_of(w)


def is_thickening_of(g: Graph, classes: list[list[int]], h: Graph) -> bool:
    """Check the thickening relation for an explicit class assignment."""
    seen = [v for ids in classes for v in ids]
    if len(classes) != h.n or sorted(seen) != list(range(g.n)):
        return False
    for ids in classes:
        if not ids:
            return False
        for a in ids:
            for b in ids:
                if a != b and not g.has_edge(a, b):
                    return False
    for u in range(h.n):
        for v in range(u + 1, h.n):
            want = h.has_edge(u, v)
            for a in classes[u]:
                for b in classes[v]:
                    if g.has_edge(a, b) != want:
                        return False
    return True
