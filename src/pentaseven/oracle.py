"""Brute-force ground truth at desk scale.

Everything here is exact and exhaustively verified, never heuristic: induced
subgraph search, hole-length enumeration, chromatic number, clique-cutsets,
and the class-membership verdict the rest of the test suite is anchored to.
Size caps are enforced, not advisory.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator, NamedTuple, Sequence

from .catalog import VERDICT_CAP, NamedGraph, SearchPlan, embed, fixed_graphs
from .catalog import pattern, search_plan
from .core import CapError, Graph, bits, bits_of, greedy_extend, is_connected
from .core import reach_mask, vertex_mask

HOLE_CAP = 16
CHROMATIC_CAP = 18
CUTSET_CAP = 18


class Embedding(NamedTuple):
    """Injective pattern->host map preserving adjacency and non-adjacency."""

    pattern: NamedGraph
    image: dict[int, int]

    def is_valid(self, host: Graph) -> bool:
        """True iff image maps the pattern's vertices to distinct vertices of
        host that induce the pattern."""
        img = self.image
        p = self.pattern.graph
        keys = vertex_mask(p.n, img)
        hits = vertex_mask(host.n, img.values())
        if keys != p.full_mask or hits is None or hits.bit_count() != p.n:
            return False
        return all(
            host.has_edge(img[u], img[v]) == p.has_edge(u, v)
            for u in range(p.n)
            for v in range(u + 1, p.n)
        )


@cache
def _fixed_plan(name: str) -> SearchPlan:
    """The plan of the fixed pattern name, built once per process: highest
    degree first, so adjacency constraints bite as early as possible."""
    p = pattern(name).graph
    rows = p.rows
    return search_plan(p, key=lambda u: (-rows[u].bit_count(), u))


def find_induced(g: Graph, h: NamedGraph) -> Embedding | None:
    """Exhaustive search for an induced copy of h in g.  h must be one of the
    catalog's fixed patterns, as catalog.pattern returns them."""
    if fixed_graphs().get(h.name) is not h:
        raise ValueError(f"{h.name!r} is not one of the catalog's fixed patterns")
    p = h.graph
    if p.n > g.n:
        return None
    plan = _fixed_plan(h.name)
    # degs_ok[d]: the vertices of degree >= d (degrees above p.n count as p.n)
    degs_ok = [0] * (p.n + 1)
    for v, r in enumerate(g.rows):
        degs_ok[min(r.bit_count(), p.n)] |= 1 << v
    for d in range(p.n - 1, -1, -1):
        degs_ok[d] |= degs_ok[d + 1]
    image = embed(plan, g, [degs_ok[d] for d in plan.degrees])
    return None if image is None else Embedding(h, dict(enumerate(image)))


def holes(g: Graph) -> Iterator[tuple[int, ...]]:
    """Every hole (induced cycle of length >= 4) once, as a vertex tuple
    that starts at its smallest vertex."""
    rows = g.rows
    for s in range(g.n):
        higher = ~((1 << (s + 1)) - 1)
        s_row = rows[s]

        # path = s, v1, ..., vk with all vi > s; a vertex adjacent to s may
        # only close the cycle, and interior chords are excluded by blocking
        # the neighborhoods of interior vertices
        def grow(path: tuple[int, ...], blocked: int):
            last = path[-1]
            ext = rows[last] & higher & ~blocked
            for w in bits_of(ext):
                if s_row >> w & 1:
                    if len(path) >= 3 and path[1] < w:
                        yield path + (w,)
                    continue
                yield from grow(path + (w,), blocked | rows[last] | (1 << w))

        for v1 in bits_of(s_row & higher):
            yield from grow((s, v1), (1 << s) | (1 << v1))


def all_hole_lengths(g: Graph) -> set[int]:
    """Exact set of induced-cycle lengths >= 4."""
    if g.n > HOLE_CAP:
        raise CapError(f"hole enumeration capped at {HOLE_CAP} vertices")
    return {len(h) for h in holes(g)}


def max_weighted_clique(
    rows: list[int], weights: Sequence[int], support: int
) -> tuple[int, int]:
    """Exact maximum weight clique inside the vertex mask support, as
    (weight, mask); weights are >= 0.

    Branch and bound over cliques grown in increasing vertex order, bounded
    by the weight of the candidates left.  The mask changes only on a strict
    improvement, so of several best cliques the first one reached is kept.
    """
    best = best_mask = 0

    def grow(cur: int, cand: int, total: int):
        nonlocal best, best_mask
        if not cand:
            if total > best:
                best, best_mask = total, cur
            return
        rest = sum(weights[u] for u in bits(cand))
        while cand:
            if total + rest <= best:
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            rest -= weights[v]
            grow(cur | low, cand & rows[v], total + weights[v])

    grow(0, support, 0)
    return best, best_mask


def max_clique_mask(g: Graph) -> int:
    """Exact maximum clique, as a bitmask."""
    return max_weighted_clique(g.rows, [1] * g.n, g.full_mask)[1]


def chromatic_number_bf(g: Graph) -> tuple[int, dict[int, int]]:
    """Exact chromatic number with a witness coloring."""
    if g.n > CHROMATIC_CAP:
        raise CapError(f"chromatic number capped at {CHROMATIC_CAP} vertices")
    clique = max_clique_mask(g)
    lb = clique.bit_count()
    order = sorted(range(g.n), key=lambda v: -g.degree(v))
    witness: dict[int, int] = {}
    greedy_extend(g, order, witness)
    ub = max(witness.values())
    if lb == ub:
        return lb, witness

    rows = g.rows

    def try_k(k: int) -> dict[int, int] | None:
        colors = [0] * g.n
        for i, v in enumerate(bits_of(clique)):
            colors[v] = i + 1
        uncolored = [v for v in range(g.n) if colors[v] == 0]

        def feasible(vs: list[int], max_used: int) -> bool:
            if not vs:
                return True
            # most-constrained vertex first
            def avail(v):
                used = {colors[u] for u in bits_of(rows[v]) if colors[u]}
                return [c for c in range(1, min(k, max_used + 1) + 1) if c not in used]

            v = min(vs, key=lambda u: len(avail(u)))
            rest = [u for u in vs if u != v]
            for c in avail(v):
                colors[v] = c
                if feasible(rest, max(max_used, c)):
                    return True
            colors[v] = 0
            return False

        if feasible(uncolored, lb):
            return {v: colors[v] for v in range(g.n)}
        return None

    for k in range(lb, ub):
        got = try_k(k)
        if got is not None:
            return k, got
    return ub, witness


def _all_clique_masks(g: Graph) -> list[int]:
    rows = g.rows
    out: list[int] = []

    def grow(cur: int, cand: int):
        pool = cand
        while pool:
            low = pool & -pool
            pool ^= low
            v = low.bit_length() - 1
            nxt = cur | low
            out.append(nxt)
            grow(nxt, cand & rows[v] & ~((low << 1) - 1))

    grow(0, g.full_mask)
    return out


def clique_cutset_bf(g: Graph) -> frozenset[int] | None:
    """Some clique whose removal disconnects g, or None.

    Returns the empty set when g is already disconnected.
    """
    if g.n > CUTSET_CAP:
        raise CapError(f"clique-cutset search capped at {CUTSET_CAP} vertices")
    if not is_connected(g):
        return frozenset()
    if g.n <= 2:
        return None
    rows = g.rows
    full = g.full_mask
    for mask in _all_clique_masks(g):
        keep = full & ~mask
        if keep and reach_mask(rows, keep & -keep, keep) != keep:
            return bits_of(mask)
    return None


class ClassVerdict(NamedTuple):
    """Exact membership flags for the target class, with witnesses."""

    is_2p3_free: bool
    is_c4_free: bool
    is_c6_free: bool
    is_c7_free: bool
    has_t0: bool
    witnesses: dict[str, Embedding]

    @property
    def has_c7(self) -> bool:
        return not self.is_c7_free

    @property
    def in_class(self) -> bool:
        return (
            self.is_2p3_free
            and self.is_c4_free
            and self.is_c6_free
            and (self.has_c7 or self.has_t0)
        )


def class_verdict(g: Graph) -> ClassVerdict:
    if g.n > VERDICT_CAP:
        raise CapError(f"class verdict capped at {VERDICT_CAP} vertices")
    witnesses: dict[str, Embedding] = {}
    flags = {}
    for name in ("2P3", "C4", "C6", "C7", "T0"):
        emb = find_induced(g, pattern(name))
        flags[name] = emb is None
        if emb is not None:
            witnesses[name] = emb
    return ClassVerdict(
        is_2p3_free=flags["2P3"],
        is_c4_free=flags["C4"],
        is_c6_free=flags["C6"],
        is_c7_free=flags["C7"],
        has_t0=not flags["T0"],
        witnesses=witnesses,
    )
