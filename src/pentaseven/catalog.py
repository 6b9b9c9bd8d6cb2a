"""The fixed small graphs of the toolkit, with their standard vertex labels.

Holds the forbidden patterns (2P3, C4, C6, C7, P7, 4K1), the 9-vertex block
T0 and its one-vertex extension T1, the 3-pentagon, and the base family M:
the twelve-vertex graph M0 stripped of any subset of its five optional
vertices, plus the three sporadic bases M1, M2, M3.  Thickenings of family
members (optionally under extra universal vertices) are exactly the graphs
the recognizer accepts on the 7-hole side.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import NamedTuple

from .core import CapError, Graph, build_graph, induced_subgraph

ISO_SIZE_CAP = 16
# Largest catalog entry (M0); also the cap on the twin quotients that
# recognition matches, the weighted colorer solves and cwd thickens.
QUOTIENT_CAP = 12
# Largest graph the brute-force class verdict runs on, and so the largest
# refused graph that recognition searches a witness in.
VERDICT_CAP = 20

M0_OPTIONAL = ("y0", "y3", "z0", "z3", "z4")

# T0's labels; vertex k of pattern("T0") is T0_LABELS[k]
T0_LABELS = ("a0", "a1", "b0", "b1", "b2", "b3", "c1", "c2", "c3")


class NamedGraph(NamedTuple):
    name: str
    graph: Graph
    labels: dict[int, str]  # vertex -> label, bijective

    @property
    def by_label(self) -> dict[str, int]:
        return {lab: v for v, lab in self.labels.items()}

    def __repr__(self) -> str:
        return f"NamedGraph({self.name!r}, n={self.graph.n})"


def _named(name: str, labels: list[str], edges: list[tuple[str, str]]) -> NamedGraph:
    index = {lab: i for i, lab in enumerate(labels)}
    g = build_graph(len(labels), [(index[a], index[b]) for a, b in edges])
    return NamedGraph(name, g, {i: lab for lab, i in index.items()})


def _cycle(name: str, k: int) -> NamedGraph:
    labels = [f"x{i}" for i in range(k)]
    return _named(name, labels, [(f"x{i}", f"x{(i + 1) % k}") for i in range(k)])


def _path(name: str, k: int) -> NamedGraph:
    labels = [f"v{i}" for i in range(k)]
    return _named(name, labels, [(f"v{i}", f"v{i + 1}") for i in range(k - 1)])


def _t0_edges() -> list[tuple[str, str]]:
    return [
        ("a0", "a1"),
        ("a0", "b0"), ("a0", "b2"), ("a0", "b3"),
        ("a1", "b1"), ("a1", "b2"), ("a1", "b3"),
        ("c1", "c2"), ("c1", "c3"), ("c2", "c3"),
        ("b0", "c1"), ("b1", "c1"), ("b2", "c2"), ("b3", "c3"),
    ]


@cache
def fixed_graphs() -> dict[str, NamedGraph]:
    """The named pattern graphs: C4, C6, C7, P7, 2P3, 4K1, P3, 3-pentagon, T0, T1."""
    t1_labels = [*T0_LABELS, "f3"]
    t1_edges = _t0_edges() + [
        ("f3", x) for x in ("a0", "a1", "b0", "b1", "b2", "c1", "c2")
    ]
    pent_labels = ["t", "b1", "b2", "b3", "c1", "c2", "c3"]
    pent_edges = (
        [("t", f"b{i}") for i in (1, 2, 3)]
        + [(f"b{i}", f"c{i}") for i in (1, 2, 3)]
        + [("c1", "c2"), ("c1", "c3"), ("c2", "c3")]
    )
    two_p3 = _named(
        "2P3",
        ["a0", "a1", "a2", "b0", "b1", "b2"],
        [("a0", "a1"), ("a1", "a2"), ("b0", "b1"), ("b1", "b2")],
    )
    four_k1 = NamedGraph(
        "4K1", build_graph(4, []), {i: f"v{i}" for i in range(4)}
    )
    entries = [
        _cycle("C4", 4),
        _cycle("C6", 6),
        _cycle("C7", 7),
        _path("P7", 7),
        _path("P3", 3),
        two_p3,
        four_k1,
        _named("3-pentagon", pent_labels, pent_edges),
        _named("T0", list(T0_LABELS), _t0_edges()),
        _named("T1", t1_labels, t1_edges),
    ]
    return {e.name: e for e in entries}


def pattern(name: str) -> NamedGraph:
    return fixed_graphs()[name]


def _build_m0() -> NamedGraph:
    labels = [f"x{i}" for i in range(7)] + ["y0", "y3", "z0", "z3", "z4"]
    edges = [(f"x{i}", f"x{(i + 1) % 7}") for i in range(7)]
    hole_attach = {
        "y0": (0, 1, 4),
        "y3": (3, 4, 0),
        "z0": (0, 1, 2, 3, 4),
        "z3": (3, 4, 5, 6, 0),
        "z4": (4, 5, 6, 0, 1),
    }
    for lab, idxs in hole_attach.items():
        edges += [(lab, f"x{i}") for i in idxs]
    edges += [(a, b) for a, b in combinations(M0_OPTIONAL, 2)]
    return _named("M0", labels, edges)


def _build_m1() -> NamedGraph:
    labels = [f"x{i}" for i in range(7)] + ["y0", "z2"]
    edges = [(f"x{i}", f"x{(i + 1) % 7}") for i in range(7)]
    edges += [("y0", f"x{i}") for i in (0, 1, 4)]
    edges += [("z2", f"x{i}") for i in (2, 3, 4, 5, 6)]
    return _named("M1", labels, edges)


def _extend_m1(name: str, extra: str, hole_idxs: tuple[int, ...]) -> NamedGraph:
    m1 = _build_m1()
    labels = [m1.labels[v] for v in range(m1.graph.n)] + [extra]
    edges = [(m1.labels[u], m1.labels[v]) for u, v in m1.graph.edges()]
    edges += [(extra, f"x{i}") for i in hole_idxs]
    edges += [(extra, "y0"), (extra, "z2")]
    return _named(name, labels, edges)


@cache
def family_M() -> list[NamedGraph]:
    """All 35 family members: 32 induced subgraphs of M0 keeping the 7-hole,
    plus M1, M2, M3.  Deterministic order; duplicates by isomorphism remain."""
    m0 = _build_m0()
    out = []
    for bits in range(32):
        removed = [M0_OPTIONAL[i] for i in range(5) if bits >> i & 1]
        if not removed:
            out.append(m0)
            continue
        keep = [v for v in range(m0.graph.n) if m0.labels[v] not in removed]
        sub, old_to_new = induced_subgraph(m0.graph, keep)
        labels = {old_to_new[v]: m0.labels[v] for v in keep}
        name = "M0-minus-{" + ",".join(sorted(removed)) + "}"
        out.append(NamedGraph(name, sub, labels))
    out.append(_build_m1())
    out.append(_extend_m1("M2", "z1", (1, 2, 3, 4, 5)))
    out.append(_extend_m1("M3", "z3", (3, 4, 5, 6, 0)))
    return out


def connected_order(g: Graph, key) -> list[int]:
    """g's vertices in connected-extension order: each next vertex touches an
    earlier one when any does (per connected piece), the least under key
    first.  key must tell vertices apart, as (..., u) does."""
    order: list[int] = []
    placed = 0
    remaining = set(range(g.n))
    while remaining:
        touching = [v for v in remaining if g.rows[v] & placed]
        v = min(touching or remaining, key=key)
        order.append(v)
        placed |= 1 << v
        remaining.discard(v)
    return order


class SearchPlan(NamedTuple):
    """The pattern side of an embedding search, which depends only on the
    pattern and its placing order: the vertices in that order, the degree
    of each, per level k the later levels j with whether order[j] is
    adjacent to order[k], and the pattern's symmetry.

    ties[k] lists the later levels j such that some automorphism of the
    pattern fixes order[0..k-1] and maps order[k] to order[j].  orbits
    pairs each level k that is not the first of its orbit under all the
    automorphisms with that first level."""

    order: tuple[int, ...]
    degrees: tuple[int, ...]
    later: tuple[tuple[tuple[int, int], ...], ...]
    ties: tuple[tuple[int, ...], ...]
    orbits: tuple[tuple[int, int], ...]


def search_plan(p: Graph, key) -> SearchPlan:
    """The plan that places p's vertices in connected_order(p, key), with
    its ties and orbits found by embedding p into itself."""
    order = tuple(connected_order(p, key))
    rows = p.rows
    size = len(order)
    later = tuple(
        tuple((j, rows[v] >> order[j] & 1) for j in range(k + 1, size))
        for k, v in enumerate(order)
    )
    degrees = tuple(rows[v].bit_count() for v in order)
    plan = SearchPlan(order, degrees, later, ((),) * size, ())
    # For each level k and later level j of k's degree, the first
    # automorphism that fixes order[0..k-1] and maps order[k] to order[j],
    # if any.  Those found over every k make a strong generating set along
    # the order (Schreier-Sims), so their cycles join the levels into the
    # orbits of the whole group.
    level = {v: k for k, v in enumerate(order)}
    orbit = list(range(size))
    ties = []
    for k in range(size):
        fixed = [1 << v for v in order[:k]]
        rest = [p.full_mask] * (size - k - 1)
        tied = []
        for j in range(k + 1, size):
            if degrees[j] != degrees[k]:
                continue
            sigma = embed(plan, p, [*fixed, 1 << order[j], *rest])
            if sigma is None:
                continue
            tied.append(j)
            for v, w in enumerate(sigma):
                a, b = sorted((orbit[level[v]], orbit[level[w]]))
                if a != b:
                    orbit = [a if o == b else o for o in orbit]
        ties.append(tuple(tied))
    orbits = tuple((k, o) for k, o in enumerate(orbit) if o != k)
    return plan._replace(ties=tuple(ties), orbits=orbits)


def _cut_above(masks: list[int], levels: tuple[int, ...], low: int) -> bool:
    """Cut masks[j] for each j in levels to the vertices above low's bit;
    False as soon as one runs out."""
    above = -(low << 1)
    for j in levels:
        m = masks[j] & above
        if not m:
            return False
        masks[j] = m
    return True


def embed(plan: SearchPlan, host: Graph, cands: list[int]) -> list[int] | None:
    """First induced embedding of the plan's pattern into host, as the list
    pattern vertex -> host vertex, or None.

    Backtracking places plan.order[k] on the lowest unused host vertex of the
    mask cands[k] that keeps every adjacency and non-adjacency to the
    vertices placed before it; each placement narrows the later masks, and a
    branch stops as soon as one of them runs out.  The map found first is
    therefore the least in level order among those the masks admit, and
    depends on the order, which the caller's plan chose.

    That least map puts order[k] below every level in plan.ties[k]: an
    automorphism that fixes the levels before k and moves order[k] to a
    tied level would otherwise give a lesser map.  So placing x at level k
    also cuts each tied level's mask to the vertices above x, which skips
    branches that only mirror another one and keeps the same first map.
    That holds only when cands gives every level of one orbit the same
    mask, as masks by degree do; any other cands raises ValueError.
    """
    order, later, ties = plan.order, plan.later, plan.ties
    for k, o in plan.orbits:
        if cands[k] != cands[o]:
            raise ValueError("cands must give the levels of each orbit of "
                             "the pattern's automorphisms one mask")
    size = len(order)
    rows = host.rows
    # miss[x]: the host vertices other than x that x is not adjacent to.
    # Neither rows[x] nor miss[x] holds x, so a placed vertex leaves every
    # later mask and no separate used set is needed.
    miss = [~(r | 1 << x) for x, r in enumerate(rows)]
    # masks[k][j], j >= k: cands[j] narrowed by the placements before level k
    masks = [list(cands)] + [[0] * size for _ in range(size)]
    image = [-1] * size

    def extend(k: int) -> bool:
        if k == size:
            return True
        cur, nxt, pairs = masks[k], masks[k + 1], later[k]
        tied = ties[k]
        pool = cur[k]
        while pool:
            low = pool & -pool
            pool ^= low
            x = low.bit_length() - 1
            row, non = rows[x], miss[x]
            for j, adjacent in pairs:
                m = cur[j] & (row if adjacent else non)
                if not m:
                    break
                nxt[j] = m
            else:
                if tied and not _cut_above(nxt, tied, low):
                    continue
                if extend(k + 1):
                    image[order[k]] = x
                    return True
        return False

    return image if extend(0) else None


def _iso_plan(g: Graph) -> SearchPlan:
    """Lowest degree first."""
    rows = g.rows
    return search_plan(g, key=lambda u: (rows[u].bit_count(), u))


def _isomorphism(plan: SearchPlan, h: Graph) -> dict[int, int] | None:
    """The first map from the plan's pattern onto h, which has the same
    degree sequence; each pattern vertex may only go to h's vertices of its
    degree."""
    by_degree: dict[int, int] = {}
    for w, r in enumerate(h.rows):
        d = r.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << w
    image = embed(plan, h, [by_degree[d] for d in plan.degrees])
    return None if image is None else dict(enumerate(image))


def is_isomorphic_small(g: Graph, h: Graph) -> dict[int, int] | None:
    """Backtracking isomorphism on <= 16 vertices; returns a g->h vertex map."""
    if g.n > ISO_SIZE_CAP or h.n > ISO_SIZE_CAP:
        raise CapError(f"isomorphism test capped at {ISO_SIZE_CAP} vertices")
    if g.n != h.n or g.num_edges != h.num_edges:
        return None
    if sorted(r.bit_count() for r in g.rows) != sorted(r.bit_count() for r in h.rows):
        return None
    return _isomorphism(_iso_plan(g), h)


def _invariant_key(g: Graph) -> tuple[int, int, tuple[int, ...]]:
    """(n, m, sorted degree sequence): equal for isomorphic graphs."""
    degrees = sorted(r.bit_count() for r in g.rows)
    return g.n, sum(degrees) // 2, tuple(degrees)


@cache
def _targets_by_key() -> dict[tuple[int, int, tuple[int, ...]], NamedGraph]:
    """Family plus T0/T1 by invariant key, the first entry of each key in
    catalog order.  Catalog entries that share a key are isomorphic (a test
    checks it), so no isomorphism test is needed, and a graph has one
    candidate at most."""
    by_key = {}
    for entry in family_M() + [pattern("T0"), pattern("T1")]:
        by_key.setdefault(_invariant_key(entry.graph), entry)
    return by_key


@cache
def _target_plan(name: str) -> SearchPlan:
    """The isomorphism plan of the target entry name, built the first time
    a graph matches its key."""
    return _iso_plan(catalog_entry(name).graph)


def match_catalog(g: Graph) -> tuple[str, dict[int, int]] | None:
    """Match g against the deduplicated family plus {T0, T1}.

    Returns (entry name, map from entry vertices to g vertices), or None.
    """
    if g.n > QUOTIENT_CAP:
        return None
    entry = _targets_by_key().get(_invariant_key(g))
    if entry is None:
        return None
    # the keys match, so do the degree sequences
    bij = _isomorphism(_target_plan(entry.name), g)
    return None if bij is None else (entry.name, bij)


def catalog_entry(name: str) -> NamedGraph:
    for entry in family_M():
        if entry.name == name:
            return entry
    return pattern(name)
