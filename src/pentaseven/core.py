"""Immutable simple graphs and the set/neighborhood predicates everything else uses.

Vertices are 0..n-1.  Adjacency is a dense symmetric boolean matrix; each row
is additionally cached as a Python integer bitmask, which is what the
combinatorial routines work with.  Graphs are nonnull (n >= 1) and loop-free.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

COMPLETE = "complete"
ANTICOMPLETE = "anticomplete"
MIXED = "mixed"


def _mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_of(mask: int) -> frozenset[int]:
    return frozenset(_iter_bits(mask))


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "_rows", "_hash")

    def __init__(self, adj: np.ndarray):
        adj = np.asarray(adj, dtype=np.bool_)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if adj.shape[0] < 1:
            raise ValueError("graphs are nonnull: need at least one vertex")
        if adj.diagonal().any():
            raise ValueError("adjacency has a loop")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency is not symmetric")
        self.n = adj.shape[0]
        a = adj.copy()
        a.flags.writeable = False
        self.adj = a
        self._rows: list[int] | None = None
        self._hash: int | None = None

    # -- bitmask views -------------------------------------------------

    @property
    def rows(self) -> list[int]:
        if self._rows is None:
            packed = np.packbits(self.adj, axis=1, bitorder="little")
            self._rows = [
                int.from_bytes(packed[v].tobytes(), "little") for v in range(self.n)
            ]
        return self._rows

    def row(self, v: int) -> int:
        return self.rows[v]

    def closed_row(self, v: int) -> int:
        return self.rows[v] | (1 << v)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    # -- basic queries --------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u, v])

    def degree(self, v: int) -> int:
        return int(self.adj[v].sum())

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.adj[v]).tolist())

    def edges(self) -> list[tuple[int, int]]:
        iu, iv = np.nonzero(np.triu(self.adj, k=1))
        return list(zip(iu.tolist(), iv.tolist()))

    @property
    def num_edges(self) -> int:
        return int(self.adj.sum()) // 2

    def vertices(self) -> range:
        return range(self.n)

    def complement(self) -> "Graph":
        a = ~self.adj
        np.fill_diagonal(a, False)
        return Graph(a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.adj, other.adj)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.adj.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from unordered vertex pairs; duplicates collapse.

    Rejects non-integer counts and endpoints (bools included), loops and
    out-of-range endpoints, naming the offending value or pair.
    """
    if not _is_int(n):
        raise ValueError(f"vertex count must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("graphs are nonnull: need n >= 1")
    adj = np.zeros((n, n), dtype=np.bool_)
    for pair in edges:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise ValueError(f"edge {pair!r} is not a pair of vertices") from None
        if type(u) is not int or type(v) is not int:  # plain ints skip the check
            for x in (u, v):
                if not _is_int(x):
                    raise ValueError(f"edge endpoint {x!r} in {pair!r} is not an integer")
        if u == v:
            raise ValueError(f"loop edge {pair!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range in {pair!r}")
        adj[u, v] = True
        adj[v, u] = True
    return Graph(adj)


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced on s, plus the old->new index map.

    New vertex i corresponds to the i-th smallest member of s.
    """
    vs = sorted(set(s))
    if not vs:
        raise ValueError("induced subgraph of the empty set (graphs are nonnull)")
    if vs[0] < 0 or vs[-1] >= g.n:
        raise ValueError("vertex out of range")
    idx = np.asarray(vs, dtype=np.intp)
    return Graph(g.adj[np.ix_(idx, idx)]), {old: new for new, old in enumerate(vs)}


def relation(g: Graph, a: Iterable[int], b: Iterable[int]) -> str:
    """COMPLETE, ANTICOMPLETE, or MIXED between disjoint nonempty sets."""
    sa, sb = set(a), set(b)
    if not sa or not sb:
        raise ValueError("relation needs nonempty sets")
    if sa & sb:
        raise ValueError(f"relation needs disjoint sets, both contain {min(sa & sb)}")
    bmask = _mask_of(sb)
    rows = g.rows
    seen_edge = seen_nonedge = False
    for u in sa:
        hits = rows[u] & bmask
        if hits:
            seen_edge = True
        if hits != bmask:
            seen_nonedge = True
        if seen_edge and seen_nonedge:
            return MIXED
    return COMPLETE if seen_edge or not seen_nonedge else ANTICOMPLETE


def reach_mask(rows: list[int], start: int, within: int) -> int:
    """Vertices of within reachable from the vertices of start (a submask of
    within) by paths inside within; rows are neighborhood bitmasks."""
    reach = frontier = start
    while frontier:
        v = frontier & -frontier
        frontier ^= v
        new = rows[v.bit_length() - 1] & within & ~reach
        reach |= new
        frontier |= new
    return reach


def component_masks(rows: list[int], within: int) -> list[int]:
    """Components of the subgraph induced on within, as bitmasks ordered by
    smallest member."""
    out = []
    todo = within
    while todo:
        reach = reach_mask(rows, todo & -todo, within)
        out.append(reach)
        todo &= ~reach
    return out


def components(g: Graph) -> list[frozenset[int]]:
    """Vertex sets of connected components, ordered by smallest member."""
    return [bits_of(m) for m in component_masks(g.rows, g.full_mask)]


def anticomponents(g: Graph) -> list[frozenset[int]]:
    """Components of the complement; pairwise complete to each other in g."""
    full = g.full_mask
    co_rows = [full & ~g.closed_row(v) for v in range(g.n)]
    return [bits_of(m) for m in component_masks(co_rows, full)]


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


def is_anticonnected(g: Graph) -> bool:
    return len(anticomponents(g)) == 1


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    """Empty and singleton sets count as cliques."""
    return is_clique_mask(g, _mask_of(s))


def is_clique_mask(g: Graph, mask: int) -> bool:
    rows = g.rows
    for v in _iter_bits(mask):
        if mask & ~(1 << v) & ~rows[v]:
            return False
    return True


def is_simplicial(g: Graph, v: int) -> bool:
    return is_clique_mask(g, g.row(v))


def simplicial_vertices(g: Graph) -> frozenset[int]:
    return frozenset(v for v in range(g.n) if is_simplicial(g, v))


def is_stable_set(g: Graph, s: Iterable[int]) -> bool:
    mask = _mask_of(s)
    return all(not (g.row(v) & mask) for v in _iter_bits(mask))


def greedy_extend(g: Graph, order: Iterable[int], assignment: dict[int, int]) -> None:
    """Give each vertex of order, in turn, the smallest color (from 1) that
    none of its already colored neighbors has."""
    for v in order:
        used = {assignment[u] for u in bits_of(g.row(v)) if u in assignment}
        c = 1
        while c in used:
            c += 1
        assignment[v] = c
