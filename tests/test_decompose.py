import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pentaseven.catalog import pattern
from pentaseven.core import (
    Graph,
    _mask_of,
    bits_of,
    build_graph,
    induced_subgraph,
)
from pentaseven.decompose import (
    expand_thickening,
    simplicial_prefix,
    strip_universals,
    twin_classes,
)

from conftest import is_simplicial, isomorphic, random_graphs, remainder, simplicial_vertices


def complete(k):
    return build_graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def universals(g):
    return strip_universals(g, g.full_mask)[0]


# reference versions that build a new graph at each step; the pipeline's
# versions work on vertex masks of the input graph instead


def strip_universals_by_graph(g):
    full = g.full_mask
    w = tuple(v for v in range(g.n) if g.closed_row(v) == full)
    if len(w) == g.n:
        return w, None, ()
    rest = sorted(set(range(g.n)).difference(w))
    sub, _ = induced_subgraph(g, rest)
    return w, sub, tuple(rest)


def twin_classes_by_graph(g):
    groups = {}
    for v in range(g.n):
        groups.setdefault(g.closed_row(v), []).append(v)
    classes = sorted(groups.values(), key=lambda c: c[0])
    quotient, _ = induced_subgraph(g, [c[0] for c in classes])
    return tuple(map(tuple, classes)), quotient


class TestSimplicialPrefix:
    def test_tree_fully_eliminated(self):
        tree = build_graph(7, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (4, 6)])
        pre = simplicial_prefix(tree)
        assert not remainder(pre) and len(pre.order) == 7

    def test_c7_stalls_immediately(self):
        pre = simplicial_prefix(pattern("C7").graph)
        assert pre.order == () and len(remainder(pre)) == 7

    def test_tent_prefix_consumes_y_and_z(self):
        from pentaseven.generate import GenParams, gen_tent

        for seed in range(30):
            g, part = gen_tent(
                GenParams(seed=seed, p_nonempty=1.0, z_components=(1, 2))
            )
            if not part.y:
                continue
            pre = simplicial_prefix(g)
            assert set(pre.order) == set(part.y | part.z)
            return
        raise AssertionError("no tent with nonempty Y generated")

    def test_maximality(self):
        g = pattern("T1").graph
        pre = simplicial_prefix(g)
        sub, old_to_new = (
            induced_subgraph(g, remainder(pre)) if remainder(pre) else (None, None)
        )
        if sub is not None:
            assert not simplicial_vertices(sub)

    def test_order_is_valid_elimination(self):
        from pentaseven.generate import GenParams, gen_saucer

        g, _ = gen_saucer(GenParams(seed=5, max_class_size=3, a_components=(1, 3)))
        pre = simplicial_prefix(g)
        alive = set(range(g.n))
        for v in pre.order:
            sub, old_to_new = induced_subgraph(g, alive)
            assert is_simplicial(sub, old_to_new[v])
            alive.discard(v)


class TestTwinClasses:
    def test_k5_single_class(self):
        k5 = complete(5)
        dec = twin_classes(k5, k5.full_mask)
        assert len(dec.classes) == 1 and dec.quotient.n == 1

    def test_c7_all_singletons(self):
        c7 = pattern("C7").graph
        dec = twin_classes(c7, c7.full_mask)
        assert len(dec.classes) == 7
        assert isomorphic(dec.quotient, pattern("C7").graph)

    def test_thickened_t0_recovers_t0(self):
        t0 = pattern("T0").graph
        sizes = [2, 1, 1, 1, 1, 1, 1, 1, 1]
        big, classmap = expand_thickening(t0, sizes)
        dec = twin_classes(big, big.full_mask)
        assert isomorphic(dec.quotient, t0)
        assert sorted(map(len, dec.classes)) == sorted(sizes)


class TestExpandThickening:
    def test_unit_sizes_identity(self):
        t1 = pattern("T1").graph
        big, classmap = expand_thickening(t1, [1] * t1.n)
        assert big == t1

    def test_k2_blows_to_k5(self):
        big, _ = expand_thickening(build_graph(2, [(0, 1)]), [2, 3])
        assert big == complete(5)

    def test_zero_size_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            expand_thickening(build_graph(2, [(0, 1)]), [1, 0])

    def test_classmap_witnesses_thickening(self):
        g = pattern("3-pentagon").graph
        sizes = [1, 2, 3, 1, 2, 1, 1]
        big, classmap = expand_thickening(g, sizes)
        assert [len(ids) for ids in classmap] == sizes
        assert sorted(v for ids in classmap for v in ids) == list(range(big.n))
        masks = [_mask_of(ids) for ids in classmap]
        for u, ids in enumerate(classmap):
            # each class is a clique joined to exactly the classes of u's neighbors
            want = masks[u] | _mask_of(v for w in g.neighbors(u) for v in classmap[w])
            assert all(big.closed_row(a) == want for a in ids)


class TestStripUniversals:
    def test_complete_graph_flagged(self):
        k4 = complete(4)
        w, rest = strip_universals(k4, k4.full_mask)
        assert len(w) == 4 and rest == 0

    def test_apex_over_c7(self):
        c7 = pattern("C7").graph
        adj = np.zeros((8, 8), dtype=bool)
        adj[:7, :7] = c7.adj
        adj[7, :7] = adj[:7, 7] = True
        g = Graph(adj)
        w, rest = strip_universals(g, g.full_mask)
        assert w == (7,) and rest == c7.full_mask

    def test_t0_has_none(self):
        t0 = pattern("T0").graph
        w, rest = strip_universals(t0, t0.full_mask)
        assert not w and rest == t0.full_mask

    def test_within_a_mask(self):
        # inside the 7-hole, vertices 0, 1, 2 induce a P3 whose middle is universal
        c7 = pattern("C7").graph
        w, rest = strip_universals(c7, 0b111)
        assert w == (1,) and rest == 0b101


@given(random_graphs(max_n=12), st.data())
@settings(max_examples=80, deadline=None)
def test_mask_steps_match_graph_building_reference(g, data):
    within = data.draw(st.integers(1, g.full_mask))
    vs = sorted(bits_of(within))
    sub, _ = induced_subgraph(g, vs)
    w_ref, _, ids_ref = strip_universals_by_graph(sub)
    w, rest = strip_universals(g, within)
    assert w == tuple(vs[i] for i in w_ref)
    assert rest == _mask_of(vs[i] for i in ids_ref)
    classes_ref, quotient_ref = twin_classes_by_graph(sub)
    dec = twin_classes(g, within)
    assert dec.classes == tuple(tuple(vs[i] for i in c) for c in classes_ref)
    assert dec.quotient == quotient_ref


@given(random_graphs(max_n=8), st.data())
@settings(max_examples=50, deadline=None)
def test_thickening_roundtrip_and_props(g, data):
    sizes = [data.draw(st.integers(1, 3)) for _ in range(g.n)]
    big, _ = expand_thickening(g, sizes)
    # simplicial and universal presence transfer both ways
    assert bool(simplicial_vertices(big)) == bool(simplicial_vertices(g))
    assert bool(universals(big)) == bool(universals(g))
    if len(twin_classes(g, g.full_mask).classes) == g.n:  # g has no twins
        dec = twin_classes(big, big.full_mask)
        assert isomorphic(dec.quotient, g)


@given(random_graphs(max_n=10, min_n=2), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_adding_universals_preserves_simplicial_presence(g, k):
    n = g.n + k
    adj = np.zeros((n, n), dtype=bool)
    adj[: g.n, : g.n] = g.adj
    adj[g.n :, :] = True
    adj[:, g.n :] = True
    np.fill_diagonal(adj, False)
    joined = Graph(adj)
    w, rest = strip_universals(joined, joined.full_mask)
    assert bool(simplicial_vertices(joined)) == bool(simplicial_vertices(g))
    if not universals(g):
        assert w == tuple(range(g.n, n))
        assert rest == g.full_mask


def test_prefix_remainder_stable_under_relabeling():
    # a vertex simplicial in G[A] stays simplicial in every G[B] with
    # v in B inside A, so every maximal elimination leaves the same
    # remainder: a permuted vertex order (a different tie-break) agrees
    from pentaseven.generate import GenParams, gen_saucer, gen_tent, mutate

    for seed in range(30):
        params = GenParams(seed=seed, max_class_size=2, a_components=(0, 2),
                           z_components=(0, 2))
        for gen in (gen_saucer, gen_tent):
            g, _ = gen(params)
            g = mutate(g, seed)
            rng = np.random.default_rng(seed)
            perm = rng.permutation(g.n)
            relabeled = build_graph(
                g.n, [(int(perm[u]), int(perm[v])) for u, v in g.edges()]
            )
            r1 = remainder(simplicial_prefix(g))
            r2 = remainder(simplicial_prefix(relabeled))
            assert {int(perm[v]) for v in r1} == set(r2), (seed, gen.__name__)
