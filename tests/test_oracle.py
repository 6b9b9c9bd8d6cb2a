import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

from pentaseven.catalog import pattern
from pentaseven.core import (
    build_graph,
    induced_subgraph,
)
from pentaseven.oracle import (
    Embedding,
    all_hole_lengths,
    chromatic_number_bf,
    class_verdict,
    clique_cutset_bf,
    find_induced,
    max_clique_mask,
)

from conftest import is_clique, is_free_of, isomorphic, random_graphs, simplicial_vertices


def path(k):
    return build_graph(k, [(i, i + 1) for i in range(k - 1)])


def complete(k):
    return build_graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


class TestFindInduced:
    def test_p8_contains_2p3(self):
        emb = find_induced(path(8), pattern("2P3"))
        assert emb is not None and emb.is_valid(path(8))

    def test_t0_contains_pentagon(self):
        t0 = pattern("T0").graph
        emb = find_induced(t0, pattern("3-pentagon"))
        assert emb is not None and emb.is_valid(t0)

    def test_c7_has_no_c4(self):
        assert find_induced(pattern("C7").graph, pattern("C4")) is None

    def test_witness_is_induced_copy(self):
        g = pattern("T1").graph
        emb = find_induced(g, pattern("T0"))
        assert emb is not None
        sub, old_to_new = induced_subgraph(g, emb.image.values())
        assert isomorphic(sub, pattern("T0").graph)

    def test_pattern_cap(self):
        big = pattern("T1")
        from pentaseven.catalog import NamedGraph

        over = NamedGraph("over", build_graph(11, []), {i: str(i) for i in range(11)})
        with pytest.raises(ValueError):
            find_induced(build_graph(12, []), over)


class TestEmbeddingIsValid:
    C4 = pattern("C4")

    def test_identity_on_c4(self):
        assert Embedding(self.C4, {0: 0, 1: 1, 2: 2, 3: 3}).is_valid(self.C4.graph)

    @pytest.mark.parametrize("image", [
        {0: -4, 1: 1, 2: 2, 3: 3},  # -4 would index rows[0]
        {0: 0, 1: True, 2: 2, 3: 3},  # True would read as vertex 1
        {0: 0, 1: np.int64(1), 2: 2, 3: 3},
        {0: 7, 1: 1, 2: 2, 3: 3},  # past the host
        {0: 0, True: 1, 2: 2, 3: 3},  # a key that is not a pattern vertex
        {0: 0, 1: 1, 2: 2},
        {0: 0, 1: 1, 2: 2, 3: 1},
    ])
    def test_image_of_non_vertices_is_invalid(self, image):
        assert Embedding(self.C4, image).is_valid(self.C4.graph) is False


class TestHoleLengths:
    def test_t1_all_holes_length_five(self):
        assert all_hole_lengths(pattern("T1").graph) == {5}

    def test_c7(self):
        assert all_hole_lengths(pattern("C7").graph) == {7}

    def test_complete_graph_has_no_holes(self):
        assert all_hole_lengths(complete(4)) == set()

    def test_cap(self):
        with pytest.raises(ValueError):
            all_hole_lengths(build_graph(17, []))


class TestChromatic:
    def test_c7_needs_three(self):
        chi, wit = chromatic_number_bf(pattern("C7").graph)
        assert chi == 3

    def test_k5(self):
        assert chromatic_number_bf(complete(5))[0] == 5

    def test_t0_frozen(self):
        # regression constant, established by this oracle
        assert chromatic_number_bf(pattern("T0").graph)[0] == 3

    def test_witness_proper_and_lower_bound(self):
        for name in ("T0", "T1", "C7", "3-pentagon"):
            g = pattern(name).graph
            chi, wit = chromatic_number_bf(g)
            assert chi >= max_clique_mask(g).bit_count()
            for u, v in g.edges():
                assert wit[u] != wit[v]


class TestCliqueCutset:
    def test_disconnected_gives_empty_cutset(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert clique_cutset_bf(g) == frozenset()

    def test_p7_has_clique_cutset(self):
        cut = clique_cutset_bf(pattern("P7").graph)
        assert cut is not None and len(cut) == 1

    def test_c7_has_none(self):
        assert clique_cutset_bf(pattern("C7").graph) is None

    def test_returned_cutset_is_valid(self):
        g = pattern("T1").graph
        cut = clique_cutset_bf(g)
        if cut is not None:
            from pentaseven.core import components

            assert is_clique(g, cut)
            rest, _ = induced_subgraph(g, set(range(g.n)) - cut)
            assert len(components(rest)) >= 2


class TestClassVerdict:
    def test_t0_in_class(self):
        v = class_verdict(pattern("T0").graph)
        assert v.in_class and v.has_t0 and v.is_c7_free
        assert v.is_2p3_free and v.is_c4_free and v.is_c6_free

    def test_c6_flagged(self):
        v = class_verdict(pattern("C6").graph)
        assert not v.is_c6_free and not v.in_class

    def test_m2_in_class_with_c7(self):
        from pentaseven.catalog import catalog_entry

        v = class_verdict(catalog_entry("M2").graph)
        assert v.has_c7 and v.is_2p3_free and v.is_c4_free and v.is_c6_free

    def test_cap(self):
        with pytest.raises(ValueError):
            class_verdict(build_graph(21, []))


@given(random_graphs(max_n=12))
@settings(max_examples=40, deadline=None)
def test_hole_lengths_match_pattern_flags(g):
    lengths = all_hole_lengths(g)
    assert (find_induced(g, pattern("C4")) is None) == (4 not in lengths)
    assert (find_induced(g, pattern("C6")) is None) == (6 not in lengths)
    assert (find_induced(g, pattern("C7")) is None) == (7 not in lengths)


@given(random_graphs(max_n=8, min_n=2))
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
def test_clique_cutset_forces_simplicial_when_2p3_c4_free(g):
    assume(is_free_of(g, "2P3", "C4"))
    if clique_cutset_bf(g) is not None:
        assert simplicial_vertices(g)


def test_4k1_free_with_c7_has_no_clique_cutset():
    # sampled over generated and mutated graphs; random dense graphs almost
    # never contain an induced C7, so the generators supply the C7 side
    from pentaseven.generate import GenParams, gen_special, mutate

    checked = 0
    for seed in range(40):
        params = GenParams(seed=seed, max_class_size=2, universal_count=(0, 1))
        g, _ = gen_special(params)
        for candidate in (g, mutate(g, seed)):
            if candidate.n > 18:
                continue
            if find_induced(candidate, pattern("4K1")) is not None:
                continue
            if find_induced(candidate, pattern("C7")) is None:
                continue
            assert clique_cutset_bf(candidate) is None
            checked += 1
    assert checked >= 20
