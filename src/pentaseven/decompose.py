"""Strip-down steps: simplicial elimination prefix, universal vertices, twins.

These are the three preprocessing moves of the recognition pipeline: peel a
maximal sequence of simplicial vertices, remove all universal vertices of the
rest in one shot, and quotient the remainder by the closed-neighborhood twin
relation so it can be matched against the catalog.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from . import _kernels
from .core import Graph, _iter_bits, _mask_of, induced_subgraph


class SimplicialPrefix(NamedTuple):
    """Maximal sequence order[0..t-1] with order[i] simplicial once
    order[0..i-1] are deleted; no remainder vertex is simplicial after that."""

    order: tuple[int, ...]
    remainder_mask: int


class TwinDecomposition:
    """Twin classes (cliques, pairwise complete or anticomplete) of a vertex
    mask of graph, and the quotient graph on one representative per class."""

    def __init__(self, classes: tuple[frozenset[int], ...], graph: Graph):
        self.classes = classes
        self.graph = graph

    @cached_property
    def quotient(self) -> Graph:
        """Subgraph induced on the smallest member of each class, built on
        first read: a refusal by class count never needs it."""
        return induced_subgraph(self.graph, [min(c) for c in self.classes])[0]


def simplicial_prefix(g: Graph) -> SimplicialPrefix:
    """Greedy maximal simplicial elimination, smallest eligible vertex first.

    Starts from the simplicial vertices of g; every other vertex v watches
    one nonadjacent pair inside its alive neighborhood, is looked at again
    only when a vertex of that pair is deleted, and becomes eligible when
    its neighborhood has no such pair left.
    """
    order, rest = _kernels.simplicial_elimination(g)
    return SimplicialPrefix(order=tuple(order), remainder_mask=rest)


def twin_classes(g: Graph, within: int) -> TwinDecomposition:
    """Partition the vertex mask within by the closed-neighborhood relation
    N[x] = N[y] of the subgraph it induces.

    Classes are ordered by smallest member, so quotient vertex i is the
    smallest member of class i.
    """
    groups: dict[int, list[int]] = {}
    rows, m = g.rows, within
    while m:  # lowest first, so groups open in class order
        low = m & -m
        v = low.bit_length() - 1
        groups.setdefault((rows[v] | low) & within, []).append(v)  # N[v] in within
        m ^= low
    return TwinDecomposition(tuple(frozenset(c) for c in groups.values()), g)


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
    classmap: list[list[int]] = []
    nxt = 0
    for s in size_list:
        classmap.append(list(range(nxt, nxt + s)))
        nxt += s
    masks = [_mask_of(ids) for ids in classmap]
    rows = []
    for v in range(h.n):
        out = 0
        for u in _iter_bits(h.rows[v]):
            out |= masks[u]
        rows.extend(out | masks[v] & ~(1 << a) for a in classmap[v])
    return Graph.from_rows(rows), classmap


def strip_universals(g: Graph, within: int) -> tuple[frozenset[int], int]:
    """Remove all universal vertices of the subgraph induced on within at once.

    Returns (w, rest): the universal vertices and the mask of the others;
    rest is 0 when that subgraph is complete (every vertex universal).
    """
    w = frozenset(v for v in _iter_bits(within) if g.closed_row(v) & within == within)
    return w, within & ~_mask_of(w)
