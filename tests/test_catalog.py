import pytest

from pentaseven.catalog import (
    catalog_entry,
    dedup_family_index,
    family_M,
    has_twins,
    is_isomorphic_small,
    match_catalog,
    pattern,
)
from pentaseven.core import (
    build_graph,
    is_anticonnected,
    is_stable_set,
    simplicial_vertices,
)
from pentaseven.decompose import strip_universals
from pentaseven.oracle import find_induced, is_free_of


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
            assert is_anticonnected(g), entry.name
            assert not simplicial_vertices(g), entry.name
            assert not strip_universals(g, g.full_mask)[0], entry.name

    def test_no_member_has_twins(self):
        for entry in family_M() + [pattern("T0"), pattern("T1")]:
            assert not has_twins(entry.graph), entry.name

    def test_dedup_count_recorded(self):
        # the family is defined extensionally; the deduplicated index size is
        # computed, not asserted against an external constant
        reps = dedup_family_index()
        assert len(reps) <= 37
        print(f"\ndedup index: {len(reps)} isomorphism classes (incl. T0, T1)")


class TestFixedGraphs:
    def test_t0_shape(self):
        t0 = pattern("T0")
        g, lab = t0.graph, t0.by_label
        assert g.n == 9
        assert is_stable_set(g, [lab[f"b{i}"] for i in range(4)])
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
