"""Bitset kernel for the simplicial elimination prefix.

Every vertex v that is not yet eliminable watches one nonadjacent pair
(w, x), w > x, inside its alive neighborhood L, the way a SAT solver
watches one literal per clause: v is looked at again only when w or x is
deleted.  The members of L above w were complete to L when v's walk passed
them and stay complete as L shrinks, so the next walk resumes at w and each
neighborhood is walked once over the whole elimination.
"""

from __future__ import annotations

import heapq

from .core import Graph, nonadjacent_pair, simplicial_seed

BACKEND = "bitset"


def simplicial_elimination(g: Graph) -> tuple[list[int], int]:
    """Maximal simplicial elimination prefix, smallest eligible vertex first.

    Returns (order, rest): the eliminated vertices and the bitmask of the
    remainder, which has no simplicial vertex.  Deleting vertices never makes
    a simplicial vertex non-simplicial, so eligible vertices wait in a heap.
    A neighborhood becomes a clique only when a watched vertex is deleted,
    so each vertex is pushed at the step a recount after every deletion
    would push it.
    """
    rows = g.rows
    simplicial, blocked = simplicial_seed(g)
    heap = sorted(simplicial)
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
    return order, alive
