import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from pentaseven import catalog, generate, oracle
from pentaseven.catalog import (
    NamedGraph,
    _invariant_key,
    _targets_by_key,
    catalog_entry,
    embed,
    family_M,
    fixed_graphs,
    match_catalog,
    pattern,
)
from pentaseven.core import (
    build_graph,
    components,
)
from pentaseven.decompose import expand_thickening, strip_universals, twin_classes
from pentaseven.oracle import find_induced

from conftest import (
    dedup_family_index,
    fresh_env,
    is_free_of,
    isomorphic,
    random_graphs,
    simplicial_vertices,
    to_nx,
)


def iso_reference(g, h):
    """The earlier standalone isomorphism walker: g's vertices lowest degree
    first in connected-extension order, each candidate tested against every
    placed vertex; the first g -> h map, or None."""
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
    for entry in dedup_family_index():
        if entry.graph.n == g.n:
            bij = iso_reference(entry.graph, g)
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
        assert isomorphic(entry.graph, pattern("C7").graph)

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
        # the index keeps the first entry of each invariant key and runs no
        # isomorphism search
        tests = []
        monkeypatch.setattr(catalog, "embed", lambda *a: tests.append(1))
        # build the index cold: clear the module's private caches
        indexes = [f for name, f in vars(catalog).items()
                   if name.startswith("_") and hasattr(f, "cache_clear")]
        for f in indexes:
            f.cache_clear()
        try:
            names = [e.name for e in dedup_family_index()]
        finally:
            for f in indexes:
                f.cache_clear()
        subsets = ["{y0}", "{y0,y3}", "{z0}", "{y0,z0}", "{y0,y3,z0}", "{z3}",
                   "{y0,z3}", "{y3,z3}", "{y0,y3,z3}", "{z0,z3}", "{y0,z0,z3}",
                   "{y3,z0,z3}", "{y0,y3,z0,z3}", "{z3,z4}", "{z0,z3,z4}",
                   "{y0,z0,z3,z4}", "{y0,y3,z0,z3,z4}"]
        assert names == ["M0", *(f"M0-minus-{s}" for s in subsets),
                         "M1", "M2", "T0", "T1"]
        assert tests == []

    def test_entries_sharing_a_key_are_isomorphic(self):
        # what lets the index keep the first entry of each key untested
        entries = family_M() + [pattern("T0"), pattern("T1")]
        assert len(entries) == 37
        shared = 0
        for a, b in combinations(entries, 2):
            if _invariant_key(a.graph) == _invariant_key(b.graph):
                shared += 1
                assert isomorphic(a.graph, b.graph), (a.name, b.name)
        assert shared > 0


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


def assert_maps_onto(name, bij, h):
    """bij maps the catalog entry name onto h, edge for edge."""
    g = catalog_entry(name).graph
    assert sorted(bij) == list(range(g.n)) and sorted(bij.values()) == list(range(h.n))
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert g.has_edge(u, v) == h.has_edge(bij[u], bij[v])


class TestIsomorphism:
    """Catalog matching is an isomorphism search against one target."""

    def test_rotated_c7(self):
        h = build_graph(7, [((i + 3) % 7, (i + 4) % 7) for i in range(7)])
        name, bij = match_catalog(h)
        assert name == "M0-minus-{y0,y3,z0,z3,z4}"
        assert_maps_onto(name, bij, h)

    def test_t0_t1_not_isomorphic(self):
        assert not isomorphic(pattern("T0").graph, pattern("T1").graph)

    def test_reflexive_on_catalog(self):
        for entry in family_M() + [pattern("T0"), pattern("T1")]:
            name, bij = match_catalog(entry.graph)
            assert isomorphic(catalog_entry(name).graph, entry.graph)
            assert_maps_onto(name, bij, entry.graph)

    def test_relabeling_keeps_the_match(self):
        rng = np.random.default_rng(2)
        for name in ("M1", "M2", "T1"):
            g = catalog_entry(name).graph
            h = relabeled(g, rng)
            got, bij = match_catalog(h)
            assert got == match_catalog(g)[0] == name
            assert_maps_onto(name, bij, h)

    def test_mapping_preserves_adjacency(self):
        a = catalog_entry("M3").graph
        perm = list(reversed(range(a.n)))
        b = build_graph(a.n, [(perm[u], perm[v]) for u, v in a.edges()])
        name, bij = match_catalog(b)
        assert_maps_onto(name, bij, b)

    def test_same_map_as_reference_on_catalog(self):
        rng = np.random.default_rng(7)
        entries = [e.graph for e in family_M()]
        entries += [e.graph for e in fixed_graphs().values()]
        for _ in range(2):
            targets = [relabeled(h, rng) for h in entries]
            targets += [relabeled(swapped(h, rng), rng) for h in entries]
            for h in targets:
                assert match_catalog(h) == match_reference(h)

    def test_same_map_as_reference_on_random_graphs(self):
        rng = np.random.default_rng(12)
        for seed in range(300):
            g = random_graph(rng, 12)
            assert match_catalog(g) == match_reference(g), seed


def single_flip_mutants():
    """Single-flip mutants of generated in-class graphs with n <= 20."""
    gens = (generate.gen_special, generate.gen_saucer, generate.gen_tent)
    hosts = []
    for seed in range(60):
        g, _ = gens[seed % 3](generate.GenParams(seed=seed, max_class_size=2))
        if g.n <= 20:
            hosts.append(generate.mutate(g, seed))
    return hosts


WALKER_PATTERNS = ("2P3", "C4", "C6", "C7", "P3", "4K1", "T0", "T1", "3-pentagon")


@pytest.fixture
def walker_results(monkeypatch):
    """Every embed call that find_induced and match_catalog make, with
    their own orders and masks, must return embed_reference's image list
    (or None) exactly: a refusal prints the image, not only its existence.
    Returns the list of the results."""
    results = []
    walker = catalog.embed

    def checked(plan, host, cands):
        got = walker(plan, host, cands)
        # the plan's later table names every pair of pattern vertices
        order = plan.order
        p = build_graph(len(order), [(order[k], order[j])
                                     for k, pairs in enumerate(plan.later)
                                     for j, adjacent in pairs if adjacent])
        assert plan.degrees == tuple(p.degree(v) for v in order)
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
        hosts = single_flip_mutants()
        for h in hosts:
            _search_patterns(h)
        assert len(hosts) >= 20
        assert None in walker_results
        assert sum(r is not None for r in walker_results) > 20

    def test_relabeled_catalog_bases(self, walker_results):
        rng = np.random.default_rng(5)
        bases = [e.graph for e in family_M()]
        bases += [pattern(name).graph for name in ("T0", "T1", "3-pentagon")]
        for g in bases:
            h = relabeled(g, rng)
            _search_patterns(h)
            assert (match_catalog(g) is None) == (match_catalog(h) is None)
        assert None in walker_results


WITNESS_PATTERNS = ("2P3", "C4", "C6")


def degree_masks(plan, host):
    """find_induced's masks: per level, the host vertices of at least that
    level's degree."""
    return [sum(1 << x for x, r in enumerate(host.rows) if r.bit_count() >= d)
            for d in plan.degrees]


def untied(plan):
    """The plan with its ties and orbits removed: the same search without
    symmetry breaking."""
    return plan._replace(ties=((),) * len(plan.order), orbits=())


def walker_nodes(plan, host, cands):
    """(image, number of calls of embed's extend) of one search."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "extend":
            calls += 1

    sys.setprofile(count)
    try:
        image = embed(plan, host, cands)
    finally:
        sys.setprofile(None)
    return image, calls


def automorphisms(g):
    nxg = to_nx(g)
    return list(GraphMatcher(nxg, nxg).isomorphisms_iter())


class TestSymmetryBreaking:
    def test_ties_and_orbits_are_the_automorphisms(self):
        # every plan the library keeps: the fixed patterns' and the targets'
        plans = [(name, pattern(name).graph, oracle._fixed_plan(name))
                 for name in fixed_graphs()]
        plans += [(entry.name, entry.graph, catalog._target_plan(entry.name))
                  for entry in dedup_family_index()]
        assert len(plans) == 10 + 22
        tied = 0
        for name, g, plan in plans:
            auts = automorphisms(g)
            order = plan.order
            level = {v: k for k, v in enumerate(order)}
            for k, v in enumerate(order):
                fixing = [s for s in auts if all(s[u] == u for u in order[:k])]
                tied_levels = sorted({level[s[v]] for s in fixing} - {k})
                assert plan.ties[k] == tuple(tied_levels), (name, k)
                tied += len(tied_levels)
            first = [min(level[s[v]] for s in auts) for v in order]
            assert plan.orbits == tuple((k, o) for k, o in enumerate(first) if o != k)
        assert tied > 30

    def test_failing_witness_searches_visit_half_the_nodes(self):
        hosts = single_flip_mutants()
        assert len(hosts) >= 20
        for name in WITNESS_PATTERNS:
            plan = oracle._fixed_plan(name)
            bare = untied(plan)
            failed = tied_nodes = bare_nodes = 0
            for h in hosts:
                cands = degree_masks(plan, h)
                image, nodes = walker_nodes(plan, h, cands)
                bare_image, more = walker_nodes(bare, h, cands)
                assert image == bare_image
                if image is None:
                    failed += 1
                    tied_nodes += nodes
                    bare_nodes += more
            assert failed >= 10, name
            assert 2 * tied_nodes <= bare_nodes, (name, tied_nodes, bare_nodes)

    def test_masks_must_agree_across_an_orbit(self):
        plan = oracle._fixed_plan("C4")
        host = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        cands = degree_masks(plan, host)
        assert embed(plan, host, cands) is not None
        cands[1] = 1 << 0  # pin one level of C4
        with pytest.raises(ValueError, match="orbit"):
            embed(plan, host, cands)

    def test_tied_pairs_alone_are_not_enough(self):
        # 2P3 is a0-a1-a2 and b0-b1-b2.  The tie of a1 to b1 comes from
        # swapping the two paths, which also moves a0 onto b0, yet no tie
        # pairs a0 with b0.  Masks that agree on every tied pair but keep a0
        # from b0's vertices would let that tie cut the only embedding.
        plan = oracle._fixed_plan("2P3")
        host = pattern("2P3").graph
        # a1 and b1 may go to 1 or 4, a0 and a2 to 3 or 5, b0 and b2 to 0 or 2
        by_vertex = [0b101000, 0b010010, 0b101000, 0b000101, 0b010010, 0b000101]
        cands = [by_vertex[v] for v in plan.order]
        assert all(cands[k] == cands[j]
                   for k, js in enumerate(plan.ties) for j in js)
        with pytest.raises(ValueError, match="orbit"):
            embed(plan, host, cands)
        bare = untied(plan)
        assert embed(bare, host, cands) is not None
        assert embed(bare._replace(ties=plan.ties), host, cands) is None


def test_fixed_graphs_plan_their_searches_once(monkeypatch):
    # the twin quotient of a thickening of every target, relabeled, and
    # hosts for the witness patterns with and without a copy
    rng = np.random.default_rng(3)
    quotients = []
    for entry in dedup_family_index():
        h = entry.graph
        thick, _ = expand_thickening(relabeled(h, rng), [1 + v % 3 for v in range(h.n)])
        quotients.append(twin_classes(thick, thick.full_mask).quotient)
    hosts = [random_graph(rng, 14) for _ in range(20)] + [pattern("C7").graph]

    def run():
        for q, entry in zip(quotients, dedup_family_index()):
            assert match_catalog(q)[0] == entry.name
        return [find_induced(g, pattern(nm)) for g in hosts for nm in WITNESS_PATTERNS]

    warm = run()
    calls = []
    order = catalog.connected_order
    monkeypatch.setattr(catalog, "connected_order",
                        lambda *a, **k: calls.append(a) or order(*a, **k))
    for _ in range(3):
        assert run() == warm
    assert calls == []
    assert None in warm and sum(e is not None for e in warm) > 10


def test_caller_built_patterns_are_refused():
    # only the catalog's fixed patterns are searched: a caller's graph, even
    # one named like a fixed pattern, is refused, and nothing keeps a
    # reference to it
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    named = NamedGraph("C4", p4, {v: f"v{v}" for v in range(4)})
    host = build_graph(6, [(v, v + 1) for v in range(5)])
    before = sys.getrefcount(p4), sys.getrefcount(named), sys.getrefcount(host)
    for g in (host, pattern("C6").graph):
        with pytest.raises(ValueError, match="fixed patterns"):
            find_induced(g, named)
    assert (sys.getrefcount(p4), sys.getrefcount(named), sys.getrefcount(host)) == before
    assert find_induced(host, pattern("P3")) is not None
    assert oracle._fixed_plan.cache_info().currsize <= len(fixed_graphs())


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


def test_fresh_recognize_builds_one_target_plan():
    # a target's plan, ties included, is built when a quotient first
    # matches its key, not with the index
    script = (
        "from pentaseven import catalog, recognize\n"
        "built = []\n"
        "plan = catalog.search_plan\n"
        "catalog.search_plan = lambda *a, **k: built.append(a) or plan(*a, **k)\n"
        "assert recognize.recognize(catalog.catalog_entry('M2').graph).in_class\n"
        "print(len(built), catalog._target_plan.cache_info().currsize,\n"
        "      len(catalog._targets_by_key()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1", "22"]
