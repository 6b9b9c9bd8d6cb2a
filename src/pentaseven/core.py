"""Immutable simple graphs and the set/neighborhood predicates everything else uses.

Vertices are 0..n-1.  A graph is its vertex count and one Python integer
bitmask per vertex (its neighborhood row); every routine works on these rows.
Graphs are nonnull (n >= 1) and loop-free.  numpy enters only at the edges,
and is imported only there: `Graph(adj)` packs a dense boolean matrix and
`.adj` unpacks one on request.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

COMPLETE = "complete"
ANTICOMPLETE = "anticomplete"
MIXED = "mixed"

# The most vertices of a graph that the CLI reads or generates.
VERTEX_CAP = 10_000


class CapError(ValueError):
    """An input past one of the package's size caps."""


class VertexCapError(CapError):
    """A graph of n > VERTEX_CAP vertices, refused before its rows exist."""

    def __init__(self, n: int):
        super().__init__(f"graphs are capped at {VERTEX_CAP} vertices, got {n}")


def check_vertex_cap(n) -> None:
    """Refuse a graph of n vertices past VERTEX_CAP before its rows exist.
    An n that is not an int is left to build_graph to refuse."""
    if isinstance(n, int) and n > VERTEX_CAP:
        raise VertexCapError(n)


_DECIMAL = re.compile(r"-?[0-9]+")


def parse_int(text: str) -> int:
    """The integer text spells in ASCII digits, with an optional leading
    minus sign; ValueError for anything else.  int() would also take '1_0',
    '+1', surrounding blanks and non-ASCII digits."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


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
    """Immutable simple graph on vertices 0..n-1, stored as neighborhood rows."""

    # _simplicial: the simplicial seed, memoized by decompose.simplicial_seed
    __slots__ = ("n", "rows", "_hash", "_simplicial")

    def __init__(self, adj):
        import numpy as np

        adj = np.asarray(adj, dtype=np.bool_)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if adj.shape[0] < 1:
            raise ValueError("graphs are nonnull: need at least one vertex")
        if adj.diagonal().any():
            raise ValueError("adjacency has a loop")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency is not symmetric")
        packed = np.packbits(adj, axis=1, bitorder="little")
        self.n = adj.shape[0]
        self.rows = tuple(int.from_bytes(p.tobytes(), "little") for p in packed)
        self._hash = self._simplicial = None

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "Graph":
        """Graph whose vertex v has neighborhood bitmask rows[v].

        The rows are trusted: the caller builds both directions of every
        edge and sets no bit v in rows[v] and none at or past len(rows).
        """
        g = object.__new__(cls)
        g.n = len(rows)
        g.rows = tuple(rows)
        g._hash = g._simplicial = None
        return g

    # -- bitmask views -------------------------------------------------

    def closed_row(self, v: int) -> int:
        return self.rows[v] | (1 << v)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def adj(self):
        """Read-only dense boolean adjacency matrix, unpacked from the rows."""
        import numpy as np

        width = (self.n + 7) // 8
        packed = np.frombuffer(
            b"".join(r.to_bytes(width, "little") for r in self.rows), dtype=np.uint8
        ).reshape(self.n, width)
        a = np.unpackbits(packed, axis=1, count=self.n, bitorder="little").view(np.bool_)
        a.flags.writeable = False
        return a

    # -- basic queries --------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> frozenset[int]:
        return bits_of(self.rows[v])

    def edges(self) -> list[tuple[int, int]]:
        # r & -(2 << u) keeps the neighbors above u
        return [(u, v) for u, r in enumerate(self.rows) for v in _iter_bits(r & -(2 << u))]

    @property
    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def complement(self) -> "Graph":
        full = self.full_mask
        return Graph.from_rows([full & ~self.closed_row(v) for v in range(self.n)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.rows))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def vertex_mask(n: int, vertices) -> int | None:
    """The mask of vertices, or None unless each is a vertex of a graph on n
    vertices: a plain int in 0..n-1.  A bool, a numpy integer or any other
    int subclass is not a vertex."""
    m = 0
    try:
        for v in vertices:
            if type(v) is not int or not 0 <= v < n:
                return None
            m |= 1 << v
    except TypeError:  # vertices is not iterable
        return None
    return m


def build_graph(n: int, edges: Sequence[Sequence[int]]) -> Graph:
    """Build a graph from unordered vertex pairs; duplicates collapse.

    Rejects a count or an endpoint that is not a plain int, loops and
    out-of-range endpoints, naming the first offending value or pair.
    Valid input is built in one pass whose only per-pair test is the
    endpoint types; any other input is read again to name its first bad
    pair, so edges must be a sequence, not a one-shot iterator.
    """
    return _fold(n, edges, checked=True)


def _fold(n: int, edges: Iterable, checked: bool) -> Graph:
    """The graph of the pairs of edges, read once when they are valid.

    checked tests that both endpoints of each pair are plain ints.  A caller
    may leave it out only for pairs that hold no bool and no other stand-in
    for an int that indexes a list (a numpy integer): every other value
    build_graph rejects fails the fold's indexing, and is named by the same
    error.  No endpoint is range-checked: bit holds the n vertex bits
    followed by n Nones and each endpoint indexes both rows and bit, so one
    outside 0..n-1 either indexes past a list (IndexError) or ORs a None
    (TypeError).  A loop (v, v) sets bit v of rows[v], looked for after the
    fold.  On any failure edges is read again to name its first bad pair.
    """
    if type(n) is not int:
        raise ValueError(f"vertex count must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("graphs are nonnull: need n >= 1")
    bit: list[int | None] = [1 << v for v in range(n)]
    bit += [None] * n
    rows = [0] * n
    try:
        for u, v in edges:
            if checked and (type(u) is not int or type(v) is not int):
                raise TypeError("endpoint is not a plain int")
            rows[u] |= bit[v]
            rows[v] |= bit[u]
    except (TypeError, ValueError, IndexError):
        raise _bad_pair_error(n, edges) from None
    if any(r & b for r, b in zip(rows, bit)):  # a loop
        raise _bad_pair_error(n, edges)
    return Graph.from_rows(rows)


def _bad_pair_error(n: int, edges: Iterable) -> ValueError:
    """The error naming the first pair of edges, in input order, that is not
    two distinct vertices."""
    for pair in edges:
        try:
            u, v = pair
        except (TypeError, ValueError):
            return ValueError(f"edge {pair!r} is not a pair of vertices")
        m = vertex_mask(n, (u, v))
        if m is None or m.bit_count() < 2:
            for x in (u, v):
                if type(x) is not int:
                    return ValueError(f"edge endpoint {x!r} in {pair!r} is not an integer")
            if u == v:
                return ValueError(f"loop edge {pair!r}")
            return ValueError(f"edge endpoint out of range in {pair!r}")
    return ValueError("edges read differently the second time; pass a sequence")


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced on the vertices s, plus the old->new index map.

    New vertex i corresponds to the i-th smallest member of s.
    """
    keep = vertex_mask(g.n, s)
    if keep is None:
        raise ValueError("induced subgraph of a set with a member that is not a vertex")
    if not keep:
        raise ValueError("induced subgraph of the empty set (graphs are nonnull)")
    vs = list(_iter_bits(keep))
    index = {old: new for new, old in enumerate(vs)}
    rows = []
    for old in vs:
        r, m = 0, g.rows[old] & keep
        while m:
            low = m & -m
            r |= 1 << index[low.bit_length() - 1]
            m ^= low
        rows.append(r)
    return Graph.from_rows(rows), index


def relation(g: Graph, a: Iterable[int], b: Iterable[int]) -> str:
    """COMPLETE, ANTICOMPLETE, or MIXED between disjoint nonempty vertex sets."""
    ma, mb = vertex_mask(g.n, a), vertex_mask(g.n, b)
    if ma is None or mb is None:
        raise ValueError("relation needs sets of vertices")
    if not ma or not mb:
        raise ValueError("relation needs nonempty sets")
    if both := ma & mb:
        low = next(_iter_bits(both))
        raise ValueError(f"relation needs disjoint sets, both contain {low}")
    rows = g.rows
    seen_edge = seen_nonedge = False
    for u in _iter_bits(ma):
        hits = rows[u] & mb
        if hits:
            seen_edge = True
        if hits != mb:
            seen_nonedge = True
        if seen_edge and seen_nonedge:
            return MIXED
    return COMPLETE if seen_edge else ANTICOMPLETE


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


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


def nonadjacent_pair(
    rows: Sequence[int], mask: int, top: int | None = None
) -> tuple[int, int] | None:
    """Walk the members of mask at or below top, highest first, and return
    (w, x) for the first member w that misses another member, with x the
    highest member w misses; None when every walked member is complete to
    mask.  One row read per member walked, so a caller that knows the
    members above some w are complete to mask resumes at top=w."""
    todo = mask if top is None else mask & (2 << top) - 1
    while todo:
        w = todo.bit_length() - 1
        bit = 1 << w
        miss = mask & ~rows[w] ^ bit
        if miss:
            return w, miss.bit_length() - 1
        todo ^= bit
    return None


def greedy_extend(g: Graph, order: Iterable[int], assignment: dict[int, int]) -> None:
    """Give each vertex of order, in turn, the smallest color (from 1) that
    none of its already colored neighbors has."""
    classes: dict[int, int] = {}  # color -> mask of the vertices that have it
    for u, c in assignment.items():
        classes[c] = classes.get(c, 0) | 1 << u
    rows = g.rows
    for v in order:
        bit = 1 << v
        old = assignment.get(v)
        if old is not None:  # v is recolored: its old color no longer counts
            classes[old] &= ~bit
        row = rows[v]
        c = 1
        while classes.get(c, 0) & row:
            c += 1
        classes[c] = classes.get(c, 0) | bit
        assignment[v] = c


def verify_coloring(g: Graph, coloring) -> bool:
    """True iff coloring (a color.Coloring) is proper and uses exactly
    num_colors colors.  An assignment whose keys are not exactly the
    vertices of g raises ValueError."""
    a = coloring.assignment
    if vertex_mask(g.n, a) != g.full_mask:
        raise ValueError("assignment must cover every vertex exactly")
    for u, v in g.edges():
        if a[u] == a[v]:
            return False
    return len(set(a.values())) == coloring.num_colors
