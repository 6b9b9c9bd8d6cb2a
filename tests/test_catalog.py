import numpy as np
import pytest

from pentaseven import catalog, generate, oracle
from pentaseven.catalog import (
    _dedup_targets,
    _invariant_key,
    _targets_by_key,
    catalog_entry,
    family_M,
    fixed_graphs,
    is_isomorphic_small,
    match_catalog,
    pattern,
)
from pentaseven.core import (
    build_graph,
    components,
)
from pentaseven.decompose import strip_universals, twin_classes
from pentaseven.oracle import find_induced

from conftest import dedup_family_index, is_free_of, random_graphs, simplicial_vertices


def iso_reference(g, h):
    """The earlier standalone isomorphism walker: same degree checks and
    vertex order, each candidate tested against every placed vertex."""
    if g.n != h.n or g.num_edges != h.num_edges:
        return None
    degs_g = [g.degree(v) for v in range(g.n)]
    degs_h = [h.degree(v) for v in range(h.n)]
    if sorted(degs_g) != sorted(degs_h):
        return None
    order: list[int] = []
    placed_mask = 0
    remaining = set(range(g.n))
    while remaining:
        candidates = [v for v in remaining if g.rows[v] & placed_mask]
        pool = candidates or list(remaining)
        v = min(pool, key=lambda u: (degs_g[u], u))
        order.append(v)
        placed_mask |= 1 << v
        remaining.discard(v)
    image = [-1] * g.n
    used_h = 0

    def extend(k):
        nonlocal used_h
        if k == len(order):
            return True
        v = order[k]
        for w in range(h.n):
            if used_h >> w & 1 or degs_h[w] != degs_g[v]:
                continue
            if any(g.has_edge(v, u) != h.has_edge(w, image[u]) for u in order[:k]):
                continue
            image[v] = w
            used_h |= 1 << w
            if extend(k + 1):
                return True
            used_h &= ~(1 << w)
            image[v] = -1
        return False

    if not extend(0):
        return None
    return {v: image[v] for v in range(g.n)}


def embed_reference(p, host, order, cands):
    """The earlier walker: a method call per pattern adjacency, closed host
    rows built per call, and a used set tracked next to the masks."""
    host_rows = host.rows
    host_closed = [host.closed_row(x) for x in range(host.n)]
    image = [-1] * p.n

    def extend(k, cands, used):
        if k == len(order):
            return True
        v = order[k]
        pool = cands[k] & ~used
        while pool:
            low = pool & -pool
            pool ^= low
            x = low.bit_length() - 1
            image[v] = x
            new_cands = list(cands)
            ok = True
            for j in range(k + 1, len(order)):
                w = order[j]
                if p.has_edge(w, v):
                    new_cands[j] &= host_rows[x]
                else:
                    new_cands[j] &= ~host_closed[x]
                if not new_cands[j] & ~(used | low):
                    ok = False
                    break
            if ok and extend(k + 1, new_cands, used | low):
                return True
        image[v] = -1
        return False

    return image if extend(0, cands, 0) else None


def match_reference(g):
    """The earlier catalog match: every deduplicated target in turn."""
    if g.n > catalog.QUOTIENT_CAP:
        return None
    for entry in _dedup_targets():
        if entry.graph.n == g.n:
            bij = is_isomorphic_small(entry.graph, g)
            if bij is not None:
                return entry.name, bij
    return None


def random_graph(rng, max_n):
    n = int(rng.integers(1, max_n + 1))
    p = float(rng.uniform(0.1, 0.9))
    adj = np.triu(rng.random((n, n)) < p, 1)
    return build_graph(n, [(int(a), int(b)) for a, b in zip(*np.nonzero(adj))])


def relabeled(g, rng):
    perm = rng.permutation(g.n).tolist()
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def swapped(g, rng):
    """g with edges ab, cd replaced by ad, cb: same degrees, and usually not
    isomorphic to g.  g itself when no such pair of edges exists."""
    edges = g.edges()
    for i in rng.permutation(len(edges)).tolist():
        for j in rng.permutation(len(edges)).tolist():
            (a, b), (c, d) = edges[i], edges[j]
            if len({a, b, c, d}) == 4 and not g.has_edge(a, d) and not g.has_edge(c, b):
                rest = [e for k, e in enumerate(edges) if k not in (i, j)]
                return build_graph(g.n, rest + [(a, d), (c, b)])
    return g


class TestFamily:
    def test_family_has_35_entries(self):
        assert len(family_M()) == 35

    def test_m1_adjacency(self):
        m1 = catalog_entry("M1")
        lab = m1.by_label
        g = m1.graph
        assert g.neighbors(lab["y0"]) == {lab["x0"], lab["x1"], lab["x4"]}
        assert g.neighbors(lab["z2"]) == {
            lab[f"x{i}"] for i in (2, 3, 4, 5, 6)
        }
        assert not g.has_edge(lab["y0"], lab["z2"])

    def test_m0_minus_all_is_c7(self):
        name = "M0-minus-{y0,y3,z0,z3,z4}"
        entry = next(e for e in family_M() if e.name == name)
        assert is_isomorphic_small(entry.graph, pattern("C7").graph) is not None

    def test_every_member_contains_c7(self):
        for entry in family_M():
            assert find_induced(entry.graph, pattern("C7")) is not None, entry.name

    def test_members_anticonnected_no_simplicial_no_universal(self):
        for entry in family_M():
            g = entry.graph
            assert len(components(g.complement())) == 1, entry.name
            assert not simplicial_vertices(g), entry.name
            assert not strip_universals(g, g.full_mask)[0], entry.name

    def test_no_member_has_twins(self):
        for entry in family_M() + [pattern("T0"), pattern("T1")]:
            g = entry.graph
            assert len(twin_classes(g, g.full_mask).classes) == g.n, entry.name

    def test_dedup_count_recorded(self):
        # the family is defined extensionally; the deduplicated index size is
        # computed, not asserted against an external constant
        reps = dedup_family_index()
        assert len(reps) <= 37
        print(f"\ndedup index: {len(reps)} isomorphism classes (incl. T0, T1)")

    def test_dedup_keeps_the_first_of_each_class_in_order(self, monkeypatch):
        # an entry is tested only against the representatives that share its
        # invariant key, so the index costs 15 isomorphism tests, not 99
        tests = []
        iso = catalog.is_isomorphic_small
        monkeypatch.setattr(catalog, "is_isomorphic_small",
                            lambda g, h: tests.append(1) or iso(g, h))
        _dedup_targets.cache_clear()
        try:
            names = [e.name for e in _dedup_targets()]
        finally:
            _dedup_targets.cache_clear()
        subsets = ["{y0}", "{y0,y3}", "{z0}", "{y0,z0}", "{y0,y3,z0}", "{z3}",
                   "{y0,z3}", "{y3,z3}", "{y0,y3,z3}", "{z0,z3}", "{y0,z0,z3}",
                   "{y3,z0,z3}", "{y0,y3,z0,z3}", "{z3,z4}", "{z0,z3,z4}",
                   "{y0,z0,z3,z4}", "{y0,y3,z0,z3,z4}"]
        assert names == ["M0", *(f"M0-minus-{s}" for s in subsets),
                         "M1", "M2", "T0", "T1"]
        assert len(tests) == 15


class TestFixedGraphs:
    def test_t0_shape(self):
        t0 = pattern("T0")
        g, lab = t0.graph, t0.by_label
        assert g.n == 9
        bs = [lab[f"b{i}"] for i in range(4)]
        assert not any(g.has_edge(u, v) for u in bs for v in bs)
        assert g.neighbors(lab["b0"]) == {lab["a0"], lab["c1"]}

    def test_t0_minus_a_vertices_degrees(self):
        t0 = pattern("T0")
        lab = t0.by_label
        from pentaseven.core import induced_subgraph

        keep = [v for v in range(9) if t0.labels[v] not in ("a0", "a1")]
        sub, old_to_new = induced_subgraph(t0.graph, keep)
        for i in range(4):
            assert sub.degree(old_to_new[lab[f"b{i}"]]) == 1

    def test_t1_extends_t0(self):
        t1 = pattern("T1")
        g, lab = t1.graph, t1.by_label
        assert g.n == 10
        f3 = lab["f3"]
        non_neighbors = set(range(10)) - g.neighbors(f3) - {f3}
        assert non_neighbors == {lab["b3"], lab["c3"]}

    def test_t0_t1_free_of_forbidden(self):
        for name in ("T0", "T1"):
            assert is_free_of(pattern(name).graph, "2P3", "C4", "C6", "C7")

    def test_c7_regular(self):
        g = pattern("C7").graph
        assert g.n == 7 and g.num_edges == 7
        assert all(g.degree(v) == 2 for v in range(7))


class TestIsomorphism:
    def test_rotated_c7(self):
        g = pattern("C7").graph
        h = build_graph(7, [((i + 3) % 7, (i + 4) % 7) for i in range(7)])
        assert is_isomorphic_small(g, h) is not None

    def test_t0_t1_not_isomorphic(self):
        assert is_isomorphic_small(pattern("T0").graph, pattern("T1").graph) is None

    def test_reflexive_on_catalog(self):
        for entry in family_M()[:8] + [pattern("T0")]:
            assert is_isomorphic_small(entry.graph, entry.graph) is not None

    def test_symmetric(self):
        a = catalog_entry("M1").graph
        b = catalog_entry("M2").graph
        assert (is_isomorphic_small(a, b) is None) == (
            is_isomorphic_small(b, a) is None
        )

    def test_size_cap(self):
        big = build_graph(17, [])
        with pytest.raises(ValueError):
            is_isomorphic_small(big, big)

    def test_mapping_preserves_adjacency(self):
        a = catalog_entry("M3").graph
        perm = list(reversed(range(a.n)))
        b = build_graph(a.n, [(perm[u], perm[v]) for u, v in a.edges()])
        bij = is_isomorphic_small(a, b)
        assert bij is not None
        for u in range(a.n):
            for v in range(u + 1, a.n):
                assert a.has_edge(u, v) == b.has_edge(bij[u], bij[v])


    def test_same_map_as_reference_on_catalog(self):
        rng = np.random.default_rng(7)
        entries = [e.graph for e in family_M()]
        entries += [e.graph for e in fixed_graphs().values()]
        for _ in range(2):
            targets = [relabeled(h, rng) for h in entries]
            targets += [relabeled(swapped(h, rng), rng) for h in entries]
            for g in entries:
                for h in targets:
                    assert is_isomorphic_small(g, h) == iso_reference(g, h)
            for h in targets:
                assert match_catalog(h) == match_reference(h)

    def test_same_map_as_reference_on_random_graphs(self):
        rng = np.random.default_rng(12)
        for seed in range(300):
            g = random_graph(rng, 12)
            assert match_catalog(g) == match_reference(g), seed
            for h in (relabeled(g, rng), relabeled(swapped(g, rng), rng)):
                assert is_isomorphic_small(g, h) == iso_reference(g, h), seed


WALKER_PATTERNS = ("2P3", "C4", "C6", "P3", "4K1", "T0")


@pytest.fixture
def walker_results(monkeypatch):
    """Every embed call that find_induced and is_isomorphic_small make, with
    their own orders and masks, must return embed_reference's image list
    (or None) exactly: a refusal prints the image, not only its existence.
    Returns the list of the results."""
    results = []
    walker = catalog.embed

    def checked(p, host, order, cands):
        got = walker(p, host, order, cands)
        assert got == embed_reference(p, host, order, cands)
        results.append(got)
        return got

    monkeypatch.setattr(catalog, "embed", checked)
    monkeypatch.setattr(oracle, "embed", checked)
    return results


def _search_patterns(host):
    for name in WALKER_PATTERNS:
        find_induced(host, pattern(name))


class TestWalker:
    def test_random_hosts(self, walker_results):
        rng = np.random.default_rng(13)
        for _ in range(150):
            _search_patterns(random_graph(rng, 14))
        assert None in walker_results
        assert sum(r is not None for r in walker_results) > 100

    def test_single_flip_mutants(self, walker_results):
        # in-class graphs with one pair flipped, as desk_mix's mutants
        gens = (generate.gen_special, generate.gen_saucer, generate.gen_tent)
        hosts = 0
        for seed in range(60):
            g, _ = gens[seed % 3](generate.GenParams(seed=seed, max_class_size=2))
            if g.n <= 20:
                _search_patterns(generate.mutate(g, seed))
                hosts += 1
        assert hosts >= 20
        assert None in walker_results
        assert sum(r is not None for r in walker_results) > 20

    def test_relabeled_catalog_bases(self, walker_results):
        rng = np.random.default_rng(5)
        bases = [e.graph for e in family_M()]
        bases += [pattern(name).graph for name in ("T0", "T1", "3-pentagon")]
        for g in bases:
            h = relabeled(g, rng)
            _search_patterns(h)
            assert is_isomorphic_small(g, g) is not None
            assert is_isomorphic_small(g, h) is not None
        assert None in walker_results


class TestMatchCatalog:
    def test_independent_m2_matches(self):
        # M2 rebuilt straight from its adjacency description
        edges = [(i, (i + 1) % 7) for i in range(7)]
        y0, z1, z2 = 7, 8, 9
        edges += [(y0, i) for i in (0, 1, 4)]
        edges += [(z1, i) for i in (1, 2, 3, 4, 5)]
        edges += [(z2, i) for i in (2, 3, 4, 5, 6)]
        edges += [(z1, y0), (z1, z2)]
        g = build_graph(10, edges)
        got = match_catalog(g)
        assert got is not None and got[0] == "M2"

    def test_keys_distinct(self):
        keys = {_invariant_key(e.graph) for e in dedup_family_index()}
        assert len(keys) == len(dedup_family_index()) == 22
        assert set(_targets_by_key()) == keys

    def test_c6_absent(self):
        assert match_catalog(pattern("C6").graph) is None

    def test_t1_matches(self):
        got = match_catalog(pattern("T1").graph)
        assert got is not None and got[0] == "T1"
        name, bij = got
        entry = pattern("T1")
        for u in range(10):
            for v in range(u + 1, 10):
                assert entry.graph.has_edge(u, v) == pattern("T1").graph.has_edge(
                    bij[u], bij[v]
                )
