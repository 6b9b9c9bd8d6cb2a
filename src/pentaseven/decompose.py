"""Strip-down steps: simplicial elimination prefix, universal vertices, twins.

These are the three preprocessing moves of the recognition pipeline: peel a
maximal sequence of simplicial vertices, remove all universal vertices of the
rest in one shot, and quotient the remainder by the closed-neighborhood twin
relation so it can be matched against the catalog.  Every step takes and
returns vertex masks of the input graph, or vertex tuples in ascending order.

The elimination watches, for every vertex v that is not yet eliminable, one
nonadjacent pair (w, x), w > x, inside its alive neighborhood L, the way a SAT
solver watches one literal per clause: v is looked at again only when w or x
is deleted.  The members of L above w were complete to L when v's walk passed
them and stay complete as L shrinks, so the next walk resumes at w and each
neighborhood is walked once over the whole elimination.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from typing import NamedTuple

from .core import Graph, _mask_of, bits, induced_subgraph, nonadjacent_pair


class SimplicialPrefix(NamedTuple):
    """Maximal sequence order[0..t-1] with order[i] simplicial once
    order[0..i-1] are deleted; no remainder vertex is simplicial after that."""

    order: tuple[int, ...]
    remainder_mask: int


class TwinDecomposition:
    """Twin classes (cliques, pairwise complete or anticomplete) of a vertex
    mask of graph, and the quotient graph on one representative per class."""

    def __init__(self, classes: tuple[tuple[int, ...], ...], graph: Graph):
        self.classes = classes
        self.graph = graph

    @cached_property
    def quotient(self) -> Graph:
        """Subgraph induced on the smallest member of each class, built on
        first read: a refusal by class count never needs it."""
        return induced_subgraph(self.graph, [c[0] for c in self.classes])[0]


def _seed_walk(g: Graph, stop: bool) -> int | None:
    """Walk the closed-twin classes of g in order of their least member, one
    clique walk per class: closed twins share N[v], so the walk from the
    least member v decides the class, and the pair it finds in N(v) avoids
    v's twins, which are complete to it.  With stop set, return v at the
    first simplicial class; a walk that reaches the end memoizes the seed
    on g and returns None."""
    rows = g.rows
    simplicial: list[int] = []
    blocked = []
    members_of: dict[int, list[int]] = {}  # N[v] -> its class's member list
    for v, r in enumerate(rows):
        closed = r | 1 << v
        members = members_of.get(closed)
        if members is None:
            pair = nonadjacent_pair(rows, r)
            if pair is None:
                if stop:
                    return v
                members = simplicial  # every simplicial class lands in one list
            else:
                members = []
                blocked.append((pair, members))
            members_of[closed] = members
        members.append(v)
    g._simplicial = tuple(simplicial), tuple(blocked)
    return None


def simplicial_seed(g: Graph) -> tuple[tuple[int, ...], tuple]:
    """(simplicial, blocked): the simplicial vertices of g in ascending
    order, and one (pair, members) per other closed-twin class in order of
    least member, pair nonadjacent inside the neighborhood of every member.
    Built by the class walk that least_simplicial may stop early; a walk that
    reaches the end memoizes the seed on g, which is immutable, so cwd's
    refusal check on a simplicial-free graph and the elimination in
    recognize share it."""
    if g._simplicial is None:
        _seed_walk(g, stop=False)
    return g._simplicial


def least_simplicial(g: Graph) -> int | None:
    """The least simplicial vertex of g, or None.  The class walk stops at
    the first simplicial class, so a graph with a simplicial vertex pays only
    for the classes before it; one without pays for a full walk and leaves
    the seed memoized, as simplicial_seed would."""
    if g._simplicial is not None:
        simplicial = g._simplicial[0]
        return simplicial[0] if simplicial else None
    return _seed_walk(g, stop=True)


def simplicial_prefix(g: Graph) -> SimplicialPrefix:
    """Greedy maximal simplicial elimination, smallest eligible vertex first.

    The remainder has no simplicial vertex.  Deleting vertices never makes a
    simplicial vertex non-simplicial, so eligible vertices wait in a heap,
    seeded with the simplicial vertices of g.  A neighborhood becomes a
    clique only when a watched vertex is deleted, so each vertex is pushed
    at the step a recount after every deletion would push it.
    """
    rows = g.rows
    simplicial, blocked = simplicial_seed(g)
    heap = list(simplicial)  # ascending, so already a heap
    # u -> the (pair, vertices) entries whose pair holds u
    watchers: dict[int, list] = {}
    for entry in blocked:
        for y in entry[0]:
            watchers.setdefault(y, []).append(entry)
    # v -> its pair once it has left its class's seed pair; None once queued
    pair_of: dict[int, tuple | None] = {}
    alive = g.full_mask
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        alive ^= 1 << u
        for watched, vs in watchers.pop(u, ()):
            for v in vs:
                if pair_of.get(v, watched) != watched:  # queued, or moved on
                    continue
                pair = pair_of[v] = nonadjacent_pair(rows, rows[v] & alive, watched[0])
                if pair is None:
                    heapq.heappush(heap, v)
                else:
                    for y in pair:
                        watchers.setdefault(y, []).append((pair, (v,)))
    return SimplicialPrefix(order=tuple(order), remainder_mask=alive)


def twin_classes(g: Graph, within: int) -> TwinDecomposition:
    """Partition the vertex mask within by the closed-neighborhood relation
    N[x] = N[y] of the subgraph it induces.

    Each class lists its members in ascending order, and classes are ordered
    by smallest member, so quotient vertex i is the first member of class i.
    """
    groups: dict[int, list[int]] = {}
    rows = g.rows
    for v in bits(within):  # lowest first, so groups open in class order
        groups.setdefault((rows[v] | 1 << v) & within, []).append(v)  # N[v] in within
    return TwinDecomposition(tuple(map(tuple, groups.values())), g)


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
        for u in bits(h.rows[v]):
            out |= masks[u]
        rows.extend(out | masks[v] & ~(1 << a) for a in classmap[v])
    return Graph.from_rows(rows), classmap


def strip_universals(g: Graph, within: int) -> tuple[tuple[int, ...], int]:
    """Remove all universal vertices of the subgraph induced on within at once.

    Returns (w, rest): the universal vertices in ascending order and the mask
    of the others; rest is 0 when that subgraph is complete (every vertex
    universal).
    """
    w = 0
    for v in bits(within):
        if g.closed_row(v) & within == within:
            w |= 1 << v
    return tuple(bits(w)), within & ~w
