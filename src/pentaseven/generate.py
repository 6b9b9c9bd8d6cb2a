"""Seeded constructive generators for every structure the verifiers accept
(special partitions, saucers, tents), plus an adversarial single-flip
mutator.

Randomness comes from numpy's Philox counter-based generator, keyed by the
seed itself, an integer in [0, 2**128); identical (seed, params) reproduce
the output bit for bit, which is part of the repo's reproducibility contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

import numpy as np

from .catalog import T0_LABELS, NamedGraph, family_M, pattern
from .core import Graph, _mask_of, check_vertex_cap
from .decompose import expand_thickening
from .structure import (
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
    rows: list[int]  # new vertices take the next ids

    def clique(self, size: int) -> list[int]:
        start = len(self.rows)
        check_vertex_cap(start + size)
        mask = ((1 << size) - 1) << start
        self.rows.extend(mask ^ 1 << v for v in range(start, start + size))
        return list(range(start, start + size))

    def join(self, xs: Collection[int], ys: Collection[int]) -> None:
        mx, my = _mask_of(xs), _mask_of(ys)
        for a in xs:
            self.rows[a] |= my
        for b in ys:
            self.rows[b] |= mx

    def graph(self) -> Graph:
        return Graph.from_rows(self.rows)


def _thicken_named(rng, base: NamedGraph, params: GenParams):
    """A builder holding base thickened by drawn class sizes, and the class ids."""
    sizes = [_rand_range(rng, 1, params.max_class_size) for _ in range(base.graph.n)]
    check_vertex_cap(sum(sizes))
    g, ids = expand_thickening(base.graph, sizes)
    return _Builder(list(g.rows)), ids


def _pendant_cliques(
    rng, b: _Builder, pool: list[int], count: int, params: GenParams
) -> list[tuple[int, ...]]:
    """count new cliques, each vertex joined to one set of a nested chain
    drawn from pool: closed neighborhoods nest, the first id's largest."""
    check_vertex_cap(len(b.rows) + count)  # each component has a vertex
    comps = []
    for _ in range(count):
        size = _rand_range(rng, 1, params.max_component_size)
        ids = b.clique(size)
        for v, tset in zip(ids, _chain(rng, pool, size, params.p_attach)):
            b.join([v], tset)
        comps.append(tuple(ids))
    return comps


def gen_special(params: GenParams) -> tuple[Graph, SpecialPartition]:
    """A thickening of a uniformly chosen family member plus universal
    vertices; the emptiness clauses hold because the base enforces them."""
    rng = _rng(params)
    fam = family_M()
    base = fam[int(rng.integers(0, len(fam)))]
    b, ids = _thicken_named(rng, base, params)
    w_ids = b.clique(_rand_range(rng, *params.universal_count))
    b.join(w_ids, [v for c in ids for v in c])

    sets = {kind: [frozenset()] * 7 for kind in "xyz"}  # X_i, Y_i, Z_i by label
    for v, lab in base.labels.items():
        sets[lab[0]][int(lab[1:])] = frozenset(ids[v])
    part = SpecialPartition(x=tuple(sets["x"]), y=tuple(sets["y"]),
                            z=tuple(sets["z"]), w=frozenset(w_ids))
    return b.graph(), part


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
    b = _Builder(list(g0.rows))
    comps = _pendant_cliques(rng, b, pool, n_comp, params)
    part = SaucerPartition(
        special=special,
        a=frozenset(v for c in comps for v in c),
        a_components=tuple(comps),
    )
    return b.graph(), part


# The T0 classes that each optional tent class, F2, F3 or Y, is complete to.
_TENT_OPTIONAL = {
    "f2": ("a0", "a1", "b0", "b1", "b3", "c1", "c3"),
    "f3": ("a0", "a1", "b0", "b1", "b2", "c1", "c2"),
    "y": ("c2", "c3"),
}


def gen_tent(params: GenParams) -> tuple[Graph, TentPartition]:
    """Core tent cliques, at most one of F2/F3/Y, a W clique, and pendant
    Z-components chained into F2+F3+W."""
    rng = _rng(params)
    b, by_vertex = _thicken_named(rng, pattern("T0"), params)
    ids = dict(zip(T0_LABELS, by_vertex))

    optional: dict[str, list[int]] = {nm: [] for nm in _TENT_OPTIONAL}
    if rng.random() < params.p_nonempty:
        nm = tuple(_TENT_OPTIONAL)[int(rng.integers(0, 3))]
        optional[nm] = b.clique(_rand_range(rng, 1, params.max_class_size))
        b.join(optional[nm], [v for t in _TENT_OPTIONAL[nm] for v in ids[t]])
    f2, f3, y = optional.values()

    w = b.clique(_rand_range(rng, *params.universal_count))
    b.join(w, [v for c in by_vertex for v in c] + f2 + f3)
    if y:
        for v, tset in zip(y, _chain(rng, sorted(w), len(y), params.p_attach)):
            b.join([v], tset)

    n_comp = _rand_range(rng, *params.z_components)
    z_comps = _pendant_cliques(rng, b, sorted(f2 + f3 + w), n_comp, params)
    part = TentPartition(
        **{nm: frozenset(c) for nm, c in ids.items()},
        f2=frozenset(f2), f3=frozenset(f3), w=frozenset(w),
        y=frozenset(y), z=frozenset(v for c in z_comps for v in c),
        y_order=tuple(y), z_components=tuple(z_comps),
    )
    return b.graph(), part


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
