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

from .core import Graph, build_graph, induced_subgraph

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


def embed(
    p: Graph, host: Graph, order: list[int], cands: list[int]
) -> list[int] | None:
    """First induced embedding of p into host, as the list p vertex -> host
    vertex, or None.

    Backtracking places order[k] on the lowest unused host vertex of the mask
    cands[k] that keeps every adjacency and non-adjacency to the vertices
    placed before it; each placement narrows the later masks, and a branch
    stops as soon as one of them runs out.  The map found first therefore
    depends on order, which the caller chooses.
    """
    size = len(order)
    # later[k]: (j, order[j] adjacent to order[k]) for every later position j
    later = [
        [(j, p.rows[order[k]] >> order[j] & 1) for j in range(k + 1, size)]
        for k in range(size)
    ]
    rows = host.rows
    # miss[x]: the host vertices other than x that x is not adjacent to.
    # Neither rows[x] nor miss[x] holds x, so a placed vertex leaves every
    # later mask and no separate used set is needed.
    miss = [~(r | 1 << x) for x, r in enumerate(rows)]
    # masks[k][j], j >= k: cands[j] narrowed by the placements before level k
    masks = [list(cands)] + [[0] * size for _ in range(size)]
    image = [-1] * p.n

    def extend(k: int) -> bool:
        if k == size:
            return True
        cur, nxt, pairs = masks[k], masks[k + 1], later[k]
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
                if extend(k + 1):
                    image[order[k]] = x
                    return True
        return False

    return image if extend(0) else None


def is_isomorphic_small(g: Graph, h: Graph) -> dict[int, int] | None:
    """Backtracking isomorphism on <= 16 vertices; returns a g->h vertex map."""
    if g.n > ISO_SIZE_CAP or h.n > ISO_SIZE_CAP:
        raise ValueError(f"isomorphism test capped at {ISO_SIZE_CAP} vertices")
    if g.n != h.n or g.num_edges != h.num_edges:
        return None
    degs_g = [g.degree(v) for v in range(g.n)]
    degs_h = [h.degree(v) for v in range(h.n)]
    if sorted(degs_g) != sorted(degs_h):
        return None
    # lowest degree first; g's vertex v may only go to h's vertices of its degree
    by_degree: dict[int, int] = {}
    for w, d in enumerate(degs_h):
        by_degree[d] = by_degree.get(d, 0) | 1 << w
    order = connected_order(g, key=lambda u: (degs_g[u], u))
    image = embed(g, h, order, [by_degree[degs_g[v]] for v in order])
    return None if image is None else dict(enumerate(image))


@cache
def _dedup_targets() -> list[NamedGraph]:
    """Family plus T0/T1, one representative per isomorphism class, in
    catalog order.  Isomorphic graphs share an invariant key, so an entry is
    tested only against the earlier representatives with its key."""
    reps: list[NamedGraph] = []
    reps_by_key: dict[tuple[int, int, tuple[int, ...]], list[NamedGraph]] = {}
    for entry in family_M() + [pattern("T0"), pattern("T1")]:
        same_key = reps_by_key.setdefault(_invariant_key(entry.graph), [])
        if all(is_isomorphic_small(rep.graph, entry.graph) is None for rep in same_key):
            same_key.append(entry)
            reps.append(entry)
    return reps


def _invariant_key(g: Graph) -> tuple[int, int, tuple[int, ...]]:
    """(n, m, sorted degree sequence): equal for isomorphic graphs."""
    degrees = sorted(r.bit_count() for r in g.rows)
    return g.n, sum(degrees) // 2, tuple(degrees)


@cache
def _targets_by_key() -> dict[tuple[int, int, tuple[int, ...]], NamedGraph]:
    """The deduplicated targets by invariant key.  No two share a key, so a
    graph has one candidate at most, and the isomorphic one when any is."""
    targets = _dedup_targets()
    by_key = {_invariant_key(e.graph): e for e in targets}
    assert len(by_key) == len(targets), "two catalog targets share a key"
    return by_key


def match_catalog(g: Graph) -> tuple[str, dict[int, int]] | None:
    """Match g against the deduplicated family plus {T0, T1}.

    Returns (entry name, map from entry vertices to g vertices), or None.
    """
    if g.n > QUOTIENT_CAP:
        return None
    entry = _targets_by_key().get(_invariant_key(g))
    if entry is None:
        return None
    bij = is_isomorphic_small(entry.graph, g)
    return None if bij is None else (entry.name, bij)


def catalog_entry(name: str) -> NamedGraph:
    for entry in family_M():
        if entry.name == name:
            return entry
    return pattern(name)
