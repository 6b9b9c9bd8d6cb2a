"""Seeded constructive generators for every structure the verifiers accept
(special partitions, saucers, tents), plus an adversarial single-flip
mutator.

Randomness comes from numpy's Philox counter-based generator keyed on the
64-bit seed; identical (seed, params) reproduce the output bit for bit, which
is part of the repo's reproducibility contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import T0_LABELS, NamedGraph, family_M, pattern
from .core import Graph, build_graph
from .recognize import (
    MOD7,
    SaucerPartition,
    SpecialPartition,
    TentPartition,
)


@dataclass(frozen=True)
class GenParams:
    seed: int
    max_class_size: int = 3
    p_nonempty: float = 0.5
    p_attach: float = 0.5
    a_components: tuple[int, int] = (0, 2)
    z_components: tuple[int, int] = (0, 2)
    max_component_size: int = 3
    universal_count: tuple[int, int] = (0, 2)

    def __post_init__(self):
        if not 0.0 <= self.p_nonempty <= 1.0 or not 0.0 <= self.p_attach <= 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
        if self.max_class_size < 1 or self.max_component_size < 1:
            raise ValueError("size bounds must be >= 1")
        for lo, hi in (self.a_components, self.z_components, self.universal_count):
            if lo < 0 or hi < lo:
                raise ValueError("count ranges must satisfy 0 <= lo <= hi")


def _rng(params: GenParams) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=params.seed))


def _rand_range(rng, lo: int, hi: int) -> int:
    return int(rng.integers(lo, hi + 1))


def _subset(rng, pool: list[int], p: float) -> set[int]:
    return {v for v in pool if rng.random() < p}


def _chain(rng, pool: list[int], r: int, p: float) -> list[set[int]]:
    """Nested target sets S_1 >= S_2 >= ... >= S_r sampled top-down."""
    sets: list[set[int]] = []
    cur = _subset(rng, pool, p)
    sets.append(cur)
    for _ in range(r - 1):
        cur = _subset(rng, sorted(cur), 0.7)
        sets.append(cur)
    return sets


@dataclass
class _Builder:
    n: int = 0
    edges: list[tuple[int, int]] | None = None

    def __post_init__(self):
        self.edges = []

    def clique(self, size: int) -> list[int]:
        ids = list(range(self.n, self.n + size))
        self.n += size
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                self.edges.append((a, b))
        return ids

    def join(self, xs: list[int], ys: list[int]) -> None:
        for a in xs:
            for b in ys:
                self.edges.append((a, b))

    def graph(self) -> Graph:
        return build_graph(self.n, self.edges)


def _thicken_named(rng, base: NamedGraph, params: GenParams, b: _Builder):
    sizes = {
        v: _rand_range(rng, 1, params.max_class_size) for v in range(base.graph.n)
    }
    ids = {v: b.clique(sizes[v]) for v in range(base.graph.n)}
    for u, v in base.graph.edges():
        b.join(ids[u], ids[v])
    return ids


def _pendant_cliques(
    rng, b: _Builder, pool: list[int], count: int, params: GenParams
) -> list[tuple[int, ...]]:
    """count new cliques, each vertex joined to one set of a nested chain
    drawn from pool: closed neighborhoods nest, the first id's largest."""
    comps = []
    for _ in range(count):
        size = _rand_range(rng, 1, params.max_component_size)
        ids = b.clique(size)
        for v, tset in zip(ids, _chain(rng, pool, size, params.p_attach)):
            b.join([v], sorted(tset))
        comps.append(tuple(ids))
    return comps


def gen_special(params: GenParams) -> tuple[Graph, SpecialPartition]:
    """A thickening of a uniformly chosen family member plus universal
    vertices; the emptiness clauses hold because the base enforces them."""
    rng = _rng(params)
    fam = family_M()
    base = fam[int(rng.integers(0, len(fam)))]
    b = _Builder()
    ids = _thicken_named(rng, base, params, b)
    w_count = _rand_range(rng, *params.universal_count)
    w_ids = b.clique(w_count)
    core = [v for c in ids.values() for v in c]
    b.join(w_ids, core)
    g = b.graph()

    xs = [frozenset() for _ in MOD7]
    ys = [frozenset() for _ in MOD7]
    zs = [frozenset() for _ in MOD7]
    for v, lab in base.labels.items():
        kind, idx = lab[0], int(lab[1:])
        members = frozenset(ids[v])
        if kind == "x":
            xs[idx] = members
        elif kind == "y":
            ys[idx] = members
        else:
            zs[idx] = members
    part = SpecialPartition(
        x=tuple(xs), y=tuple(ys), z=tuple(zs), w=frozenset(w_ids)
    )
    return g, part


def gen_saucer(params: GenParams) -> tuple[Graph, SaucerPartition]:
    """gen_special plus pendant clique components with nested attachments.

    Components may touch Y_i only when Z_{i+2} is empty; deciding the
    permitted indices up front keeps generation rejection-free.
    """
    g0, special = gen_special(params)
    rng = _rng(params)
    rng.bit_generator.advance(1 << 32)  # disjoint stream from gen_special
    allowed_y = [i for i in MOD7 if not special.z[(i + 2) % 7]]
    pool = sorted(
        set().union(*(special.y[i] for i in allowed_y), *special.z, special.w)
    )
    n_comp = _rand_range(rng, *params.a_components)
    b = _Builder()
    b.n = g0.n
    b.edges = [tuple(e) for e in g0.edges()]
    comps = _pendant_cliques(rng, b, pool, n_comp, params)
    g = b.graph()
    part = SaucerPartition(
        special=special,
        a=frozenset(v for c in comps for v in c),
        a_components=tuple(comps),
    )
    return g, part


def gen_tent(params: GenParams) -> tuple[Graph, TentPartition]:
    """Core tent cliques, at most one of F2/F3/Y, a W clique, and pendant
    Z-components chained into F2+F3+W."""
    rng = _rng(params)
    b = _Builder()
    by_vertex = _thicken_named(rng, pattern("T0"), params, b)
    ids = {nm: by_vertex[v] for v, nm in enumerate(T0_LABELS)}

    f2: list[int] = []
    f3: list[int] = []
    y: list[int] = []
    if rng.random() < params.p_nonempty:
        which = int(rng.integers(0, 3))
        size = _rand_range(rng, 1, params.max_class_size)
        if which == 0:
            f2 = b.clique(size)
            for nm in ("a0", "a1", "b0", "b1", "b3", "c1", "c3"):
                b.join(f2, ids[nm])
        elif which == 1:
            f3 = b.clique(size)
            for nm in ("a0", "a1", "b0", "b1", "b2", "c1", "c2"):
                b.join(f3, ids[nm])
        else:
            y = b.clique(size)
            b.join(y, ids["c2"])
            b.join(y, ids["c3"])

    w = b.clique(_rand_range(rng, *params.universal_count))
    for nm in T0_LABELS:
        b.join(w, ids[nm])
    b.join(w, f2)
    b.join(w, f3)

    y_order: tuple[int, ...] = ()
    if y:
        chain = _chain(rng, sorted(w), len(y), params.p_attach)
        for v, tset in zip(y, chain):
            b.join([v], sorted(tset))
        y_order = tuple(y)

    n_comp = _rand_range(rng, *params.z_components)
    z_comps = _pendant_cliques(rng, b, sorted(f2 + f3 + w), n_comp, params)
    g = b.graph()
    part = TentPartition(
        a0=frozenset(ids["a0"]), a1=frozenset(ids["a1"]),
        b0=frozenset(ids["b0"]), b1=frozenset(ids["b1"]),
        b2=frozenset(ids["b2"]), b3=frozenset(ids["b3"]),
        c1=frozenset(ids["c1"]), c2=frozenset(ids["c2"]),
        c3=frozenset(ids["c3"]),
        f2=frozenset(f2), f3=frozenset(f3), w=frozenset(w),
        y=frozenset(y), z=frozenset(v for c in z_comps for v in c),
        y_order=y_order, z_components=tuple(z_comps),
    )
    return g, part


def mutate(g: Graph, seed: int) -> Graph:
    """Flip the adjacency of one uniformly random vertex pair."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    if g.n < 2:
        return g
    u = int(rng.integers(0, g.n))
    v = int(rng.integers(0, g.n - 1))
    if v >= u:
        v += 1
    rows = list(g.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Graph.from_rows(rows)
