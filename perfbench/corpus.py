"""Seeded input corpora for the pipeline benchmark, with ground truth.

Every graph is written as an edge-JSON file, the only thing the program under
test receives.  The benchmark keeps the adjacency matrix and the expected
verdict in memory to check the program's outputs.  Vertex ids are shuffled
with the workload seed so that no input arrives in generator order.

Each slot's size (or, in desk_mix, size range and generator) is fixed, not
drawn, so that two seeds give corpora of equal cost: the seed changes the
structure of each graph, not the mix.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from pentaseven import generate
from pentaseven.catalog import catalog_entry, pattern


@dataclass(frozen=True)
class Item:
    name: str
    path: str
    adj: np.ndarray
    truth: bool | None  # in the class; None: the oracle decides, n <= 20

    @property
    def n(self) -> int:
        return self.adj.shape[0]


# thick_large: simplicial-free thickenings of catalog bases, n = 200 .. 800.
# Weighted to small n, so that a round of all three commands takes about
# 10 s on one 2-vCPU Xeon core with the numpy backend, and every op is
# measured several times in a run.
THICK_BASES = ("M0", "M1", "M2", "T0", "T1")
THICK_SIZES = (200, 205, 210, 215, 220, 225, 230, 240, 250, 260,
               270, 280, 290, 300, 315, 330, 345, 360, 480, 800)

# pendant_prefix: saucers and tents whose pendant clique components make up
# most of the graph, trimmed to exact sizes.
PENDANT_SIZES = (300, 305, 310, 315, 320, 325, 330, 335, 340, 350,
                 360, 370, 380, 390, 400, 410, 420, 440, 470, 500)

# desk_mix: (kind, n range, count); kinds are generated in-class graphs,
# single-flip mutants of them, and in-class graphs with a planted obstruction.
# 188 graphs put the tail at p90 with 18 graphs beyond it (p95 would leave 9).
DESK_BUCKETS = (10, 20), (21, 40), (41, 70), (71, 100)
DESK_PLAN = (
    [("gen", b, 16) for b in DESK_BUCKETS]
    + [("mutant", DESK_BUCKETS[0], 44), ("mutant", DESK_BUCKETS[1], 16)]
    + [("planted", b, 16) for b in DESK_BUCKETS]
)

WORKLOADS = ("thick_large", "pendant_prefix", "desk_mix")


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def _shuffle(rng: np.random.Generator, adj: np.ndarray) -> np.ndarray:
    perm = rng.permutation(adj.shape[0])
    return np.ascontiguousarray(adj[np.ix_(perm, perm)])


def _write(path: str, adj: np.ndarray) -> None:
    iu, iv = np.nonzero(np.triu(adj, k=1))
    edges = [[u, v] for u, v in zip(iu.tolist(), iv.tolist())]
    with open(path, "w") as fh:
        json.dump({"n": int(adj.shape[0]), "edges": edges}, fh)
        fh.write("\n")


def _thickening(rng: np.random.Generator, base_name: str, n: int) -> np.ndarray:
    """A thickening of a catalog base plus 0-2 universal vertices.

    Class sizes are near-equal with random jitter: a lopsided split would
    make the edge count, and so the parse and colour costs, vary by seed.
    """
    base = catalog_entry(base_name).graph
    w = int(rng.integers(0, 3))
    k = base.n
    share = rng.dirichlet(np.full(k, 30.0))
    sizes = 1 + np.floor(share * (n - w - k)).astype(int)
    sizes[rng.choice(k, size=n - w - int(sizes.sum()), replace=False)] += 1
    label = np.repeat(np.arange(k), sizes)
    core = base.adj[np.ix_(label, label)] | (label[:, None] == label[None, :])
    adj = np.ones((n, n), dtype=np.bool_)
    adj[: n - w, : n - w] = core
    np.fill_diagonal(adj, False)
    return adj


def _trimmed(g, comps, n: int) -> np.ndarray | None:
    """Drop pendant vertices, last of the last component first, down to n.

    The last vertex of a pendant chain has the smallest closed neighborhood,
    so each deletion keeps the components nested cliques and the graph in
    the class.  None when the pendant part is too small.
    """
    drop: list[int] = []
    for comp in reversed(comps):
        for v in reversed(comp):
            if g.n - len(drop) == n:
                break
            drop.append(v)
    if g.n - len(drop) != n:
        return None
    keep = np.setdiff1d(np.arange(g.n), drop)
    return g.adj[np.ix_(keep, keep)]


def _pendant(rng: np.random.Generator, n: int, tent: bool) -> np.ndarray:
    comps = max(2, round(n / 8))
    while True:
        params = generate.GenParams(
            seed=_sub_seed(rng),
            max_class_size=3,
            a_components=(comps, comps),
            z_components=(comps, comps),
            max_component_size=20,
            universal_count=(1, 3),
        )
        if tent:
            g, part = generate.gen_tent(params)
            adj = _trimmed(g, part.z_components, n)
        else:
            g, part = generate.gen_saucer(params)
            adj = _trimmed(g, part.a_components, n)
        if adj is not None:
            return adj


GENERATORS = (generate.gen_special, generate.gen_saucer, generate.gen_tent)
OBSTRUCTIONS = ("C4", "C6", "P3")


def _in_class(rng: np.random.Generator, slot: int, lo: int, hi: int):
    """A generated special, saucer or tent with lo <= n <= hi.

    The generator and its class-size cap cycle with the slot rather than
    being drawn, so that every seed's corpus has the same mix.
    """
    gen = GENERATORS[slot % 3]
    caps = [m for m in range(1, 13) if lo <= 10 * (m + 1) / 2 + 1 <= hi] or [12]
    for _ in range(10_000):
        params = generate.GenParams(
            seed=_sub_seed(rng),
            max_class_size=caps[slot // 3 % len(caps)],
            a_components=(0, 3),
            z_components=(0, 3),
            max_component_size=int(rng.integers(1, 5)),
        )
        g, _ = gen(params)
        if lo <= g.n <= hi:
            return g
    raise RuntimeError(f"no generated graph with {lo} <= n <= {hi}")


def _planted(rng: np.random.Generator, slot: int, lo: int, hi: int) -> np.ndarray:
    """An in-class graph plus a disjoint induced C4, C6 or P3."""
    obstruction = pattern(OBSTRUCTIONS[slot % 3]).graph
    k = obstruction.n
    g = _in_class(rng, slot // 3, lo - k, hi - k)
    adj = np.zeros((g.n + k, g.n + k), dtype=np.bool_)
    adj[: g.n, : g.n] = g.adj
    adj[g.n :, g.n :] = obstruction.adj
    return adj


def _desk_graphs(rng: np.random.Generator):
    for kind, (lo, hi), count in DESK_PLAN:
        for slot in range(count):
            if kind == "gen":
                yield kind, _in_class(rng, slot, lo, hi).adj, True
            elif kind == "mutant":
                g = _in_class(rng, slot, lo, hi)
                yield kind, generate.mutate(g, _sub_seed(rng)).adj, None
            else:
                yield kind, _planted(rng, slot, lo, hi), False


def _graphs(workload: str, rng: np.random.Generator, scale: float):
    if workload == "thick_large":
        for i, n in enumerate(THICK_SIZES):
            base = THICK_BASES[i % len(THICK_BASES)]
            yield "thick", _thickening(rng, base, max(20, round(n * scale))), True
    elif workload == "pendant_prefix":
        for i, n in enumerate(PENDANT_SIZES):
            tent = i % 2 == 1
            adj = _pendant(rng, max(60, round(n * scale)), tent)
            yield ("tent" if tent else "saucer"), adj, True
    elif workload == "desk_mix":
        yield from _desk_graphs(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int, out_dir: str, scale: float = 1.0,
          stride: int = 1) -> list[Item]:
    """Write the workload's corpus for this seed into out_dir.

    scale shrinks vertex counts and stride keeps every stride-th graph; both
    exist for the smoke check and keep their defaults in measured runs.
    """
    salt = WORKLOADS.index(workload)
    rng = np.random.default_rng([salt, seed])
    os.makedirs(out_dir, exist_ok=True)
    items: list[Item] = []
    for slot, (kind, adj, truth) in enumerate(_graphs(workload, rng, scale)):
        adj = _shuffle(rng, adj)
        if slot % stride:
            continue
        name = f"{slot:03d}-{kind}-n{adj.shape[0]}"
        path = os.path.join(out_dir, name + ".json")
        _write(path, adj)
        items.append(Item(name, path, adj, truth))
    return items
