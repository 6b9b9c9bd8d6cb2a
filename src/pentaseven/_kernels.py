"""Bitset kernel for the simplicial elimination prefix."""

from __future__ import annotations

import heapq

from .core import Graph, _iter_bits, _mask_of, simplicial_vertices

BACKEND = "bitset"


def simplicial_elimination(g: Graph) -> tuple[list[int], int]:
    """Maximal simplicial elimination prefix, smallest eligible vertex first.

    Returns (order, rest): the eliminated vertices and the bitmask of the
    remainder, which has no simplicial vertex.  Deleting vertices never makes
    a simplicial vertex non-simplicial, so eligible vertices wait in a heap.
    """
    rows = g.rows
    heap = sorted(simplicial_vertices(g))
    queued = _mask_of(heap)
    missing: dict[int, int] = {}  # v -> nonadjacent pairs left in N(v)
    alive = g.full_mask
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        alive ^= 1 << u
        for v in _iter_bits(rows[u] & alive & ~queued):
            left = rows[v] & alive
            if v in missing:
                missing[v] -= (left & ~rows[u]).bit_count()
            else:  # first deleted neighbor: each pair counts twice, each w once
                counted = sum((left & ~rows[w]).bit_count() for w in _iter_bits(left))
                missing[v] = (counted - left.bit_count()) // 2
            if not missing[v]:
                heapq.heappush(heap, v)
                queued |= 1 << v
    return order, alive
