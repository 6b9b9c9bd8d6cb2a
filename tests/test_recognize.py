import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentaseven import oracle
from pentaseven.catalog import catalog_entry, pattern
from pentaseven.core import Graph, _mask_of, build_graph, is_clique
from pentaseven.generate import GenParams, gen_saucer, gen_special, gen_tent, mutate
from pentaseven.oracle import class_verdict, clique_cutset_bf
from pentaseven.recognize import (
    IN_CLASS_C7,
    IN_CLASS_T0,
    NOT_IN_CLASS,
    Attachment,
    BuildFailure,
    SpecialPartition,
    T0_LABELS,
    Violation,
    _check_anticomplete,
    _check_pendant_components,
    build_saucer_from_hole,
    build_tent_from_T0,
    classify_vs_C7,
    classify_vs_T0,
    recognize,
    verify_saucer_partition,
    verify_special_partition,
    verify_tent_partition,
    yz_outcome,
)

from conftest import random_graphs


def t0_host_map():
    t0 = pattern("T0")
    return {lab: t0.by_label[lab] for lab in T0_LABELS}


class TestClassifyC7:
    def test_m1_y0_is_y_type(self):
        m1 = catalog_entry("M1")
        lab = m1.by_label
        hole = [lab[f"x{i}"] for i in range(7)]
        got = classify_vs_C7(m1.graph, hole, lab["y0"])
        assert got == Attachment("y", 0)

    def test_isolated_vertex_anticomplete(self):
        g = build_graph(8, [(i, (i + 1) % 7) for i in range(7)])
        got = classify_vs_C7(g, list(range(7)), 7)
        assert got == Attachment("anticomplete")

    def test_single_neighbor_is_violation(self):
        g = build_graph(8, [(i, (i + 1) % 7) for i in range(7)] + [(7, 0)])
        got = classify_vs_C7(g, list(range(7)), 7)
        assert isinstance(got, Violation)

    def test_bad_hole_rejected(self):
        g = pattern("T1").graph
        with pytest.raises(ValueError):
            classify_vs_C7(g, list(range(7)), 8)


class TestClassifyT0:
    def test_f3_of_t1(self):
        t1 = pattern("T1")
        host = {lab: t1.by_label[lab] for lab in T0_LABELS}
        got = classify_vs_T0(t1.graph, host, t1.by_label["f3"])
        assert got == Attachment("f", 3)

    def test_anticomplete_bucket(self):
        t0 = pattern("T0").graph
        adj = np.zeros((10, 10), dtype=bool)
        adj[:9, :9] = t0.adj
        g = Graph(adj)
        got = classify_vs_T0(g, t0_host_map(), 9)
        assert got == Attachment("anticomplete")

    def test_invalid_embedding_rejected(self):
        g = pattern("T1").graph
        bad = dict(t0_host_map())
        bad["a0"], bad["c1"] = bad["c1"], bad["a0"]  # breaks the a0-a1 edge
        with pytest.raises(ValueError):
            classify_vs_T0(g, bad, 9)


class TestVerifySpecial:
    def c7_partition(self):
        empty = tuple(frozenset() for _ in range(7))
        return SpecialPartition(
            x=tuple(frozenset({i}) for i in range(7)),
            y=empty,
            z=empty,
            w=frozenset(),
        )

    def test_c7_clean(self):
        assert verify_special_partition(pattern("C7").graph, self.c7_partition()) == []

    def test_m0_singletons_clean(self):
        m0 = catalog_entry("M0")
        lab = m0.by_label
        xs = tuple(frozenset({lab[f"x{i}"]}) for i in range(7))
        ys = tuple(
            frozenset({lab[f"y{i}"]}) if f"y{i}" in lab else frozenset()
            for i in range(7)
        )
        zs = tuple(
            frozenset({lab[f"z{i}"]}) if f"z{i}" in lab else frozenset()
            for i in range(7)
        )
        p = SpecialPartition(x=xs, y=ys, z=zs, w=frozenset())
        assert verify_special_partition(m0.graph, p) == []

    def test_added_chord_violates_b(self):
        g = build_graph(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 2)])
        violations = verify_special_partition(g, self.c7_partition())
        assert any(v.clause == "anticomplete" for v in violations)

    def test_non_partition_rejected(self):
        with pytest.raises(ValueError):
            verify_special_partition(pattern("C6").graph, self.c7_partition())


class TestVerifyStructures:
    def test_generated_saucer_clean(self):
        g, part = gen_saucer(GenParams(seed=11, max_class_size=3, a_components=(1, 2)))
        assert verify_saucer_partition(g, part) == []

    def test_generated_tent_clean(self):
        g, part = gen_tent(GenParams(seed=11, max_class_size=3, z_components=(1, 2)))
        assert verify_tent_partition(g, part) == []

    def test_tent_with_both_f2_f3_rejected(self):
        g, part = gen_tent(GenParams(seed=0, max_class_size=1))
        # graft a fake F2 label onto a W vertex (or vice versa) to break the
        # "at most one nonempty" clause structurally
        from dataclasses import replace

        g2, part2 = gen_tent(
            GenParams(seed=4, p_nonempty=1.0, universal_count=(1, 1))
        )
        if part2.f2 or part2.f3:
            broken = replace(
                part2,
                f2=part2.f2 | part2.w if part2.f3 else part2.f2,
                f3=part2.f3 | part2.w if part2.f2 else part2.f3,
                w=frozenset(),
            )
            violations = verify_tent_partition(g2, broken)
            assert violations

    def test_tent_y_not_complete_to_c2_rejected(self):
        for seed in range(40):
            g, part = gen_tent(GenParams(seed=seed, p_nonempty=1.0))
            if not part.y:
                continue
            y0 = min(part.y)
            c2 = min(part.c2)
            adj = g.adj.copy()
            adj[y0, c2] = adj[c2, y0] = False
            violations = verify_tent_partition(Graph(adj), part)
            assert any(
                v.clause == "complete" and "Y" in v.detail for v in violations
            )
            return
        raise AssertionError("no tent with nonempty Y generated")


def _with_edge(g, a, b):
    adj = g.adj.copy()
    adj[a, b] = adj[b, a] = True
    return Graph(adj)


# each break takes (g, components) to a broken (g, components) and names the
# clause and detail it must raise; {L} is the pendant set's label
PENDANT_BREAKS = {
    "empty": (lambda g, c: (g, c + ((),)),
              "{l}-components", "empty component listed"),
    "overlap": (lambda g, c: (g, c + (c[0][:1],)),
                "{l}-components", "components overlap"),
    "cover": (lambda g, c: (g, c[:-1]),
              "{l}-components", "components do not cover {L} exactly"),
    "clique": (lambda g, c: (g, (c[0] + c[1],) + c[2:]),
               "clique", "{L}-component is not a clique"),
    "anticomplete": (lambda g, c: (_with_edge(g, c[0][0], c[1][0]), c),
                     "anticomplete", "{L}-component not anticomplete to {L}-component"),
}


@pytest.mark.parametrize("label", ["A", "Z"])
@pytest.mark.parametrize("brk", sorted(PENDANT_BREAKS))
def test_pendant_component_clauses(label, brk):
    from dataclasses import replace

    if label == "A":
        g, part = gen_saucer(GenParams(seed=1, a_components=(2, 2)))
        field, verify = "a_components", verify_saucer_partition
    else:
        g, part = gen_tent(GenParams(seed=1, z_components=(2, 2)))
        field, verify = "z_components", verify_tent_partition
    assert verify(g, part) == []
    mutate, clause, detail = PENDANT_BREAKS[brk]
    g2, comps = mutate(g, getattr(part, field))
    found = verify(g2, replace(part, **{field: comps}))
    want = (clause.format(l=label.lower()), detail.format(L=label))
    assert want in [(v.clause, v.detail) for v in found]


@given(random_graphs(max_n=12), st.data())
@settings(max_examples=60, deadline=None)
def test_pendant_components_match_all_pairs_scan(g, data):
    # components may overlap or be empty; the report must equal a scan that
    # checks every pair
    vertices = st.lists(st.integers(0, g.n - 1), max_size=4, unique=True)
    comps = tuple(tuple(c) for c in data.draw(st.lists(vertices, max_size=6)))
    union = _mask_of(v for c in comps for v in c)
    got: list[Violation] = []
    _check_pendant_components(g, "A", comps, union, got)
    pairs: list[Violation] = []
    for i, ca in enumerate(comps):
        for cb in comps[i + 1 :]:
            _check_anticomplete(g, "A-component", _mask_of(ca),
                                "A-component", _mask_of(cb), pairs)
    assert [v for v in got if v.clause == "anticomplete"] == pairs


class TestBuildSaucer:
    def test_m3_buckets(self):
        m3 = catalog_entry("M3")
        lab = m3.by_label
        hole = [lab[f"x{i}"] for i in range(7)]
        part = build_saucer_from_hole(m3.graph, hole)
        assert not isinstance(part, BuildFailure)
        assert part.special.y[0] == {lab["y0"]}
        assert part.special.z[2] == {lab["z2"]}
        assert part.special.z[3] == {lab["z3"]}
        assert not part.a and not part.special.w

    def test_c7_trivial(self):
        part = build_saucer_from_hole(pattern("C7").graph, list(range(7)))
        assert not isinstance(part, BuildFailure)
        assert all(part.special.x[i] == {i} for i in range(7))

    def test_a_vertex_on_y0_with_z2_nonempty_fails(self):
        # M1 has Y0 = {y0} and Z2 = {z2}; hanging a pendant vertex on y0
        # violates the saucer attachment clause
        m1 = catalog_entry("M1")
        lab = m1.by_label
        n = m1.graph.n
        adj = np.zeros((n + 1, n + 1), dtype=bool)
        adj[:n, :n] = m1.graph.adj
        adj[n, lab["y0"]] = adj[lab["y0"], n] = True
        g = Graph(adj)
        hole = [lab[f"x{i}"] for i in range(7)]
        got = build_saucer_from_hole(g, hole)
        assert isinstance(got, BuildFailure)
        assert any(v.clause == "saucer-YZ" for v in got.violations)
        # and the oracle agrees the graph left the class
        assert not class_verdict(g).is_2p3_free

    def test_invalid_hole_rejected(self):
        with pytest.raises(ValueError):
            build_saucer_from_hole(pattern("C7").graph, [0, 1, 2, 3, 4, 5, 5])


class TestBuildTent:
    def test_t1_gives_f3(self):
        t1 = pattern("T1")
        host = {lab: t1.by_label[lab] for lab in T0_LABELS}
        part = build_tent_from_T0(t1.graph, host)
        assert not isinstance(part, BuildFailure)
        assert part.f3 == {t1.by_label["f3"]}
        assert not part.f2 and not part.w and not part.y and not part.z

    def test_t0_identity(self):
        part = build_tent_from_T0(pattern("T0").graph, t0_host_map())
        assert not isinstance(part, BuildFailure)
        assert not (part.f2 or part.f3 or part.w or part.y or part.z)

    def test_generator_roundtrip_class_sizes(self):
        g, part = gen_tent(
            GenParams(seed=9, max_class_size=3, p_nonempty=1.0, z_components=(1, 2))
        )
        host = {
            "a0": min(part.a0), "a1": min(part.a1),
            "b0": min(part.b0), "b1": min(part.b1),
            "b2": min(part.b2), "b3": min(part.b3),
            "c1": min(part.c1), "c2": min(part.c2), "c3": min(part.c3),
        }
        rebuilt = build_tent_from_T0(g, host)
        assert not isinstance(rebuilt, BuildFailure)
        for name in ("a0", "a1", "b0", "b1", "b2", "b3", "c1", "c2", "c3"):
            assert getattr(rebuilt, name) == getattr(part, name)
        assert rebuilt.y == part.y and rebuilt.z == part.z
        assert rebuilt.f2 == part.f2 and rebuilt.f3 == part.f3


class TestRecognize:
    def test_thickened_m0_with_universals_and_pendant(self):
        g0, part = gen_special(
            GenParams(seed=2, max_class_size=2, universal_count=(2, 2))
        )
        # hang a pendant clique on W
        w = sorted(part.w)
        n = g0.n
        adj = np.zeros((n + 2, n + 2), dtype=bool)
        adj[:n, :n] = g0.adj
        adj[n, n + 1] = adj[n + 1, n] = True
        for a in (n, n + 1):
            adj[a, w[0]] = adj[w[0], a] = True
        rep = recognize(Graph(adj))
        assert rep.kind == IN_CLASS_C7
        assert rep.saucer is not None and rep.saucer.a == {n, n + 1}

    def test_p8_is_chordal(self):
        p8 = build_graph(8, [(i, i + 1) for i in range(7)])
        rep = recognize(p8)
        assert rep.kind == NOT_IN_CLASS and "chordal" in rep.reason

    def test_t1_accepted(self):
        rep = recognize(pattern("T1").graph)
        assert rep.kind == IN_CLASS_T0
        assert rep.catalog_name == "T1"

    def test_soundness_verifier_clean(self):
        for seed in (3, 14, 15):
            g, _ = gen_saucer(GenParams(seed=seed, max_class_size=2, a_components=(1, 2)))
            rep = recognize(g)
            assert rep.kind == IN_CLASS_C7
            assert verify_saucer_partition(g, rep.saucer) == []

    def test_completeness_small(self):
        # every in-class graph at desk scale must be accepted
        rng = np.random.default_rng(99)
        tried = accepted = 0
        for seed in range(40):
            params = GenParams(seed=seed, max_class_size=1, universal_count=(0, 1),
                               a_components=(0, 1), z_components=(0, 1),
                               max_component_size=2)
            for gen in (gen_saucer, gen_tent):
                g, _ = gen(params)
                if g.n > 14:
                    continue
                verdict = class_verdict(g)
                rep = recognize(g)
                tried += 1
                assert verdict.in_class == rep.in_class
        assert tried >= 40


def _witness_by_class_verdict(g):
    # the refusal witness as first picked: the first of 2P3, C4, C6 that the
    # full class verdict found
    verdict = class_verdict(g)
    for nm in ("2P3", "C4", "C6"):
        if nm in verdict.witnesses:
            return verdict.witnesses[nm]
    return None


@given(random_graphs(max_n=20))
@settings(max_examples=60, deadline=None)
def test_refusal_witness_matches_class_verdict_pick(g):
    rep = recognize(g)
    if not rep.in_class:
        assert rep.witness == _witness_by_class_verdict(g)


def test_refusal_witness_on_single_flip_mutants(monkeypatch):
    small = []
    for seed in range(30):
        params = GenParams(seed=seed, max_class_size=1, universal_count=(0, 1),
                           a_components=(0, 1), z_components=(0, 1),
                           max_component_size=2)
        for gen in (gen_saucer, gen_tent):
            g = mutate(gen(params)[0], seed)
            if g.n <= oracle.VERDICT_CAP:
                small.append(g)
    want = [_witness_by_class_verdict(g) for g in small]

    def no_verdict(g):
        raise AssertionError("recognize ran the full class verdict")

    monkeypatch.setattr(oracle, "class_verdict", no_verdict)
    reports = [recognize(g) for g in small]
    refused = [(rep.witness, w) for rep, w in zip(reports, want) if not rep.in_class]
    assert sum(w is not None for _, w in refused) >= 20
    for got, w in refused:
        assert got == w


def test_in_class_recognize_builds_only_the_quotient(monkeypatch):
    graphs = [
        gen_saucer(GenParams(seed=3, max_class_size=2, a_components=(1, 2)))[0],
        gen_tent(GenParams(seed=1, p_nonempty=1.0, z_components=(1, 2)))[0],
        gen_special(GenParams(seed=2, max_class_size=2, universal_count=(1, 2)))[0],
    ]
    for g in graphs:  # fills the catalog caches
        assert recognize(g).in_class
    built = []
    init = Graph.__init__

    def counting_init(self, adj):
        built.append(np.asarray(adj).shape[0])
        init(self, adj)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    for g in graphs:
        built.clear()
        rep = recognize(g)
        assert rep.in_class and built == [rep.quotient.n]


class TestStructureFacts:
    def test_yz_dichotomy_on_generated(self):
        for seed in range(30):
            g, part = gen_special(GenParams(seed=seed, max_class_size=2))
            kind, i = yz_outcome(part)
            y_all = frozenset().union(*part.y)
            z_all = frozenset().union(*part.z)
            assert is_clique(g, y_all) and is_clique(g, z_all)
            assert is_clique(g, y_all | z_all) == (kind == "a")

    def test_saucer_neighborhood_of_a_is_clique(self):
        for seed in range(20):
            g, part = gen_saucer(
                GenParams(seed=seed, max_class_size=2, a_components=(1, 3))
            )
            if not part.a:
                continue
            nbrs = set()
            for a in part.a:
                nbrs |= g.neighbors(a)
            nbrs -= part.a
            assert is_clique(g, nbrs)

    def test_special_graphs_have_no_clique_cutset(self):
        for seed in range(6):
            g, _ = gen_special(GenParams(seed=seed, max_class_size=1,
                                         universal_count=(0, 1)))
            if g.n <= 18:
                assert clique_cutset_bf(g) is None

    def test_special_graph_anticomponent_shape(self):
        # a graph with a special partition has exactly one nontrivial
        # anticomponent: the complement of W, a thickening of a catalog base
        from pentaseven.catalog import match_catalog
        from pentaseven.core import anticomponents, induced_subgraph
        from pentaseven.decompose import twin_classes

        for seed in range(12):
            g, part = gen_special(
                GenParams(seed=seed, max_class_size=2, universal_count=(0, 3))
            )
            nontrivial = [a for a in anticomponents(g) if len(a) > 1]
            assert len(nontrivial) == 1
            assert nontrivial[0] == frozenset(range(g.n)) - part.w
            core, _ = induced_subgraph(g, nontrivial[0])
            got = match_catalog(twin_classes(core, core.full_mask).quotient)
            assert got is not None
