import hashlib
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentaseven.cli import partition_to_json
from pentaseven.generate import GenParams, gen_saucer, gen_special, gen_tent, mutate
from pentaseven.oracle import class_verdict
from pentaseven.structure import (
    verify_saucer_partition,
    verify_special_partition,
    verify_tent_partition,
)

from conftest import simplicial_vertices


# sha256 of the generators' output on generator_cases(): the benchmark
# corpora are built from these generators, so a change to any generated
# graph, partition or mutant shows here.  Pin a new digest only with a
# change that means to alter the generated graphs, and say so where the
# change is described.
GENERATOR_DIGEST = "1418a3dca9a25201d6e94327c21c68bf7325918bb94925b47f92356c8756f539"


def generator_cases():
    """(generator, params): the default parameters, the pendant_prefix
    corpus's (long pendant components, 1-3 universal vertices) and the
    desk_mix corpus's (0-3 pendant components of at most 1-4 vertices)."""
    for seed in (0, 1, 2, 2**63 - 2):
        for gen in (gen_special, gen_saucer, gen_tent):
            yield gen, GenParams(seed=seed)
            for k in (2, 40):
                yield gen, GenParams(seed=seed, max_class_size=3,
                                     a_components=(k, k), z_components=(k, k),
                                     max_component_size=20, universal_count=(1, 3))
            for size in range(1, 5):
                yield gen, GenParams(seed=seed, a_components=(0, 3),
                                     z_components=(0, 3), max_component_size=size)


def test_generator_digest():
    h = hashlib.sha256()
    for gen, params in generator_cases():
        g, part = gen(params)
        for graph in (g, mutate(g, params.seed)):
            h.update(json.dumps([graph.n, [f"{r:x}" for r in graph.rows]]).encode())
        h.update(json.dumps(partition_to_json(part)).encode())
    assert h.hexdigest() == GENERATOR_DIGEST


def count_ranges(hi):
    return st.integers(0, hi).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, hi)))


gen_params = st.builds(
    GenParams,
    seed=st.integers(0, 2**128 - 1),
    max_class_size=st.integers(1, 5),
    p_nonempty=st.floats(0, 1),
    p_attach=st.floats(0, 1),
    a_components=count_ranges(4),
    z_components=count_ranges(4),
    max_component_size=st.integers(1, 5),
    universal_count=count_ranges(4),
)


@given(params=gen_params, gen=st.sampled_from([gen_special, gen_saucer, gen_tent]))
@settings(max_examples=300, deadline=None)
def test_generated_rows_are_a_simple_graph(params, gen):
    # Graph.from_rows trusts its rows, so the generators must build both
    # directions of every edge, no loop and no bit at or past n
    g, _ = gen(params)
    for u, row in enumerate(g.rows):
        assert 0 <= row < 1 << g.n and not row >> u & 1
        assert all(g.rows[v] >> u & 1 for v in range(g.n) if row >> v & 1)


def test_saucer_memory_is_its_rows():
    # n = 3 458 and 3.7 M edges: the rows take n**2 / 8 bytes, and building
    # through a list of edges peaked near 400 MB
    params = GenParams(seed=0, max_class_size=800)
    tracemalloc.start()
    try:
        g, _ = gen_saucer(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 3_000 <= g.n <= 4_000
    assert peak <= 4 * g.n**2 // 8


class TestDeterminism:
    def test_same_seed_same_graph(self):
        p = GenParams(seed=123, max_class_size=4, a_components=(1, 3))
        g1, part1 = gen_saucer(p)
        g2, part2 = gen_saucer(p)
        assert g1 == g2 and part1 == part2

    def test_different_seeds_differ_somewhere(self):
        graphs = {gen_tent(GenParams(seed=s, max_class_size=3))[0] for s in range(6)}
        assert len(graphs) > 1


class TestParams:
    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            GenParams(seed=0, p_nonempty=1.5)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            GenParams(seed=0, a_components=(3, 1))


class TestGenerated:
    def test_special_verifier_clean(self):
        for seed in range(25):
            g, part = gen_special(GenParams(seed=seed, max_class_size=3))
            assert verify_special_partition(g, part) == []

    def test_saucer_verifier_clean(self):
        for seed in range(25):
            g, part = gen_saucer(
                GenParams(seed=seed, max_class_size=3, a_components=(0, 3))
            )
            assert verify_saucer_partition(g, part) == []

    def test_tent_verifier_clean(self):
        for seed in range(25):
            g, part = gen_tent(
                GenParams(seed=seed, max_class_size=3, z_components=(0, 3))
            )
            assert verify_tent_partition(g, part) == []

    def test_unit_special_is_small(self):
        g, part = gen_special(
            GenParams(seed=7, max_class_size=1, universal_count=(0, 0))
        )
        assert g.n <= 12
        assert not part.w

    def test_oracle_direction_small(self):
        small = GenParams(seed=1, max_class_size=1, universal_count=(0, 1),
                          a_components=(0, 1), z_components=(0, 1),
                          max_component_size=2)
        g, _ = gen_saucer(small)
        v = class_verdict(g)
        assert v.is_2p3_free and v.is_c4_free and v.is_c6_free and v.has_c7
        g, _ = gen_tent(small)
        v = class_verdict(g)
        assert v.in_class and v.has_t0 and v.is_c7_free

    def test_tent_with_y_has_simplicial_vertex(self):
        found = 0
        for seed in range(40):
            g, part = gen_tent(GenParams(seed=seed, p_nonempty=1.0))
            if part.y:
                assert simplicial_vertices(g) & part.y
                found += 1
        assert found >= 3


class TestMutate:
    def test_double_flip_is_identity(self):
        g, _ = gen_tent(GenParams(seed=3))
        assert mutate(mutate(g, 77), 77) == g

    def test_flip_changes_exactly_one_pair(self):
        g, _ = gen_special(GenParams(seed=4))
        gm = mutate(g, 5)
        diff = (g.adj != gm.adj).sum()
        assert diff == 2  # one symmetric pair

    def test_chord_on_c7_detected_by_oracle(self):
        from pentaseven.catalog import pattern

        c7 = pattern("C7").graph
        for seed in range(20):
            gm = mutate(c7, seed)
            v = class_verdict(gm)
            if gm.num_edges > c7.num_edges:
                # adding any chord to C7 creates a C4, C5, or C6; the class
                # flags must notice the C4/C6 cases and the in-class flag
                # must drop either way
                assert not v.in_class
            else:
                assert not v.has_c7


def test_non_nested_component_reported():
    # build a saucer, then attach a second vertex of one A-component to a
    # target its chain predecessor does not have: the ordering clause breaks
    from pentaseven.core import Graph

    for seed in range(40):
        g, part = gen_saucer(
            GenParams(seed=seed, max_class_size=2, a_components=(1, 2),
                      max_component_size=2, p_attach=0.4)
        )
        comp = next((c for c in part.a_components if len(c) == 2), None)
        if comp is None:
            continue
        first, second = comp
        w_targets = sorted(part.special.w)
        fresh = [
            t for t in w_targets
            if not g.has_edge(first, t) and not g.has_edge(second, t)
        ]
        if not fresh:
            continue
        adj = g.adj.copy()
        adj[second, fresh[0]] = adj[fresh[0], second] = True
        violations = verify_saucer_partition(Graph(adj), part)
        assert any(v.clause == "nested-order" for v in violations)
        return
    raise AssertionError("no suitable saucer generated")
