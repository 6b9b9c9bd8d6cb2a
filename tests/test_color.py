import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from pentaseven import cli, color, oracle
from pentaseven.catalog import pattern
from pentaseven.color import (
    Coloring,
    WeightedInstance,
    _lp_cover,
    _maximal_indep,
    color_in_class,
    solve_weighted,
)
from pentaseven.core import Graph, build_graph, verify_coloring
from pentaseven.decompose import expand_thickening
from pentaseven.generate import GenParams, gen_saucer, gen_tent
from pentaseven.oracle import chromatic_number_bf, max_clique_mask
from pentaseven.recognize import NotInClassError, recognize

from conftest import GROETZSCH_WEIGHTS, dedup_family_index, groetzsch, remainder


def complete(k):
    return build_graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def lp_cover_fraction(sets, weights):
    """Reference: the same dense Bland simplex, over Fractions."""
    n = len(weights)
    m = len(sets)
    zero, one = Fraction(0), Fraction(1)
    tab = [[zero] * (n + m + 1) for _ in range(m)]
    for i, smask in enumerate(sets):
        for v in range(n):
            if smask >> v & 1:
                tab[i][v] = one
        tab[i][n + i] = one
        tab[i][-1] = one
    obj = [Fraction(weights[v]) for v in range(n)] + [zero] * (m + 1)
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n + m) if obj[j] > 0), None)
        if enter is None:
            break
        ratios = [
            (tab[i][-1] / tab[i][enter], basis[i], i)
            for i in range(m)
            if tab[i][enter] > 0
        ]
        _, _, row = min(ratios)
        pv = tab[row][enter]
        tab[row] = [c / pv for c in tab[row]]
        for i in range(m):
            if i != row and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[row])]
        f = obj[enter]
        obj = [a - f * b for a, b in zip(obj, tab[row])]
        basis[row] = enter
    y = [zero] * n
    for i, b in enumerate(basis):
        if b < n:
            y[b] = tab[i][-1]
    x = {s: -obj[n + s] for s in range(m) if obj[n + s] != 0}
    return -obj[-1], y, x


def all_indep_sets(g):
    co_rows = [g.full_mask & ~g.closed_row(v) for v in range(g.n)]
    return _maximal_indep(co_rows, 0, g.full_mask)


def assert_lp_matches_reference(g, weights):
    sets = all_indep_sets(g)
    value, y, x = _lp_cover(sets, weights)
    want_value, want_y, want_x = lp_cover_fraction(sets, weights)
    assert (value, y, x) == (want_value, want_y, want_x)
    assert list(x) == list(want_x)
    for got in (value, *y, *x.values()):
        assert type(got) is Fraction


class TestLpCover:
    def test_catalog_bases_random_weights(self, rng):
        for entry in dedup_family_index():
            g = entry.graph
            for _ in range(3):
                weights = tuple(int(w) for w in rng.integers(1, 1001, g.n))
                assert_lp_matches_reference(g, weights)

    def test_random_graphs(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 13))
            p = rng.uniform(0.1, 0.9)
            adj = np.triu(rng.random((n, n)) < p, 1)
            weights = tuple(int(w) for w in rng.integers(1, 1001, n))
            assert_lp_matches_reference(Graph(adj | adj.T), weights)

    def test_k12_and_edgeless(self, rng):
        for g in (complete(12), build_graph(12, [])):
            weights = tuple(int(w) for w in rng.integers(1, 1001, 12))
            assert_lp_matches_reference(g, weights)
        assert len(all_indep_sets(build_graph(12, []))) == 1
        assert len(all_indep_sets(complete(12))) == 12


def assert_valid_color_sets(g, weights, k, color_sets):
    for v in range(g.n):
        assert len(set(color_sets[v])) == weights[v] == len(color_sets[v])
        assert all(1 <= c <= k for c in color_sets[v])
    for u, v in g.edges():
        assert not set(color_sets[u]) & set(color_sets[v])


class TestSolveWeighted:
    def test_triangle(self):
        k, sets = solve_weighted(WeightedInstance(complete(3), (1, 1, 1)))
        assert k == 3

    def test_c7_unit(self):
        k, _ = solve_weighted(WeightedInstance(pattern("C7").graph, (1,) * 7))
        assert k == 3

    def test_c7_doubled_matches_expansion_oracle(self):
        c7 = pattern("C7").graph
        k, _ = solve_weighted(WeightedInstance(c7, (2,) * 7))
        big, _ = expand_thickening(c7, [2] * 7)
        assert k == chromatic_number_bf(big)[0] == 5

    def test_color_sets_are_valid(self):
        g = pattern("T1").graph
        weights = tuple(1 + (v % 3) for v in range(10))
        k, sets = solve_weighted(WeightedInstance(g, weights))
        assert_valid_color_sets(g, weights, k, sets)

    def test_bounds(self):
        g = pattern("T0").graph
        weights = tuple(1 + v % 2 for v in range(9))
        k, _ = solve_weighted(WeightedInstance(g, weights))
        clique = max(
            sum(weights[v] for v in range(9) if mask >> v & 1)
            for mask in [max_clique_mask(g)]
        )
        assert clique <= k <= sum(weights)

    def test_doubling_weights(self):
        g = pattern("T0").graph
        weights = tuple(1 + (v * 7) % 3 for v in range(9))
        k1, _ = solve_weighted(WeightedInstance(g, weights))
        k2, _ = solve_weighted(WeightedInstance(g, tuple(2 * w for w in weights)))
        assert k1 <= k2 <= 2 * k1

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            solve_weighted(WeightedInstance(build_graph(13, []), (1,) * 13))

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            WeightedInstance(complete(2), (1, 0))

    @pytest.mark.parametrize("weight", [1.5, 2.0, True, "2"])
    def test_weights_must_be_plain_ints(self, weight):
        # a float reached the LP and failed there; True passed as weight 1
        with pytest.raises(ValueError, match="plain ints >= 1"):
            WeightedInstance(pattern("C7").graph, (weight,) * 7)

    def test_exact_on_random_quotients(self, rng):
        done = 0
        for trial in range(60):
            n = int(rng.integers(2, 8))
            p = rng.uniform(0.2, 0.8)
            adj = np.triu(rng.random((n, n)) < p, 1)
            g = Graph(adj | adj.T)
            weights = tuple(int(rng.integers(1, 4)) for _ in range(n))
            if sum(weights) > 16:
                continue
            k, _ = solve_weighted(WeightedInstance(g, weights))
            big, _ = expand_thickening(g, list(weights))
            assert k == chromatic_number_bf(big)[0]
            done += 1
        assert done >= 30

    def test_groetzsch_needs_root_search(self):
        # chi = 4, but the largest clique is an edge and ceil(LP) is 3, so
        # only the root branch and bound proves that 3 colors do not suffice
        g = groetzsch()
        assert _lp_cover(all_indep_sets(g), (1,) * 11)[0] == Fraction(29, 10)
        k, color_sets = solve_weighted(WeightedInstance(g, (1,) * 11))
        assert k == chromatic_number_bf(g)[0] == 4
        assert_valid_color_sets(g, (1,) * 11, k, color_sets)

    def test_groetzsch_weighted_root_search_beats_lp_base(self):
        # ceil(LP) = ceil(79/10) = 8 is optimal; the LP base plus the exact
        # residual gives 9, and only the root branch and bound reaches 8
        g, weights = groetzsch(), GROETZSCH_WEIGHTS
        assert _lp_cover(all_indep_sets(g), weights)[0] == Fraction(79, 10)
        k, color_sets = solve_weighted(WeightedInstance(g, weights))
        assert k == 8
        assert_valid_color_sets(g, weights, k, color_sets)

    def test_memo_flush_keeps_the_result(self, monkeypatch):
        # a tiny memo budget flushes the memos inside the search, so replay
        # finds decisions missing and solves their instances again
        inst = WeightedInstance(groetzsch(), GROETZSCH_WEIGHTS)
        want = solve_weighted(inst)
        monkeypatch.setattr("pentaseven.color._MEMO_BUDGET", 2)
        assert solve_weighted(inst) == want
        assert want[0] == 8


# weightings of a quotient on n vertices, drawn from a numpy generator
WEIGHTINGS = {
    "1-3": lambda rng, n: rng.integers(1, 4, n),
    "1-10": lambda rng, n: rng.integers(1, 11, n),
    "1-1000": lambda rng, n: rng.integers(1, 1001, n),
    "powers-of-two": lambda rng, n: 1 << rng.integers(0, 10, n),
    "few-heavy": lambda rng, n: np.where(
        np.arange(n) < rng.integers(1, 4), rng.integers(10, 1001, n), 1
    )[rng.permutation(n)],
}


@pytest.mark.parametrize("dist", sorted(WEIGHTINGS))
def test_root_branch_and_bound_never_runs_on_the_catalog_bases(dist):
    """solve_weighted proves every k on the 22 bases by its root bounds: k is
    max(max weighted clique, ceil(LP)) and the instance's own weights reach
    max_weighted_clique once, for that bound, never for a root search."""
    calls = []

    def counted(rows, weights, support):
        calls.append(weights)
        return oracle.max_weighted_clique(rows, weights, support)

    for entry in dedup_family_index():
        q = entry.graph
        rng = np.random.default_rng([sorted(WEIGHTINGS).index(dist), q.n, q.num_edges])
        for _ in range(8):
            weights = tuple(int(w) for w in WEIGHTINGS[dist](rng, q.n))
            calls.clear()
            with mock.patch.object(color, "max_weighted_clique", counted):
                k, _ = solve_weighted(WeightedInstance(q, weights))
            assert sum(w is weights for w in calls) == 1, (entry.name, weights)
            omega = oracle.max_weighted_clique(q.rows, weights, q.full_mask)[0]
            lp_value = _lp_cover(all_indep_sets(q), weights)[0]
            assert k == max(omega, math.ceil(lp_value)), (entry.name, weights)


class TestColorInClass:
    def test_complete_graph(self):
        c = color_in_class(complete(6))
        assert c.num_colors == 6 and verify_coloring(complete(6), c)

    def test_t0_matches_oracle(self):
        g = pattern("T0").graph
        c = color_in_class(g)
        assert c.num_colors == chromatic_number_bf(g)[0] == 3

    def test_generated_matches_oracle(self):
        checked = 0
        for seed in range(30):
            params = GenParams(seed=seed, max_class_size=2, universal_count=(0, 1),
                               a_components=(0, 1), z_components=(0, 1),
                               max_component_size=2)
            for gen in (gen_saucer, gen_tent):
                g, _ = gen(params)
                if g.n > 16:
                    continue
                c = color_in_class(g)
                assert verify_coloring(g, c)
                assert c.num_colors == chromatic_number_bf(g)[0]
                checked += 1
        assert checked >= 20

    def test_out_of_class_refused(self):
        with pytest.raises(NotInClassError):
            color_in_class(pattern("C6").graph)

    def test_chordal_coloring_skips_witness_search(self, monkeypatch):
        # a chordal input is refused by recognize but colored by the
        # elimination order, so its refusal witness is never searched for
        calls = []
        find = oracle.find_induced

        def counting(g, pat):
            calls.append(pat.name)
            return find(g, pat)

        monkeypatch.setattr(oracle, "find_induced", counting)
        p20 = build_graph(20, [(i, i + 1) for i in range(19)])
        coloring = color_in_class(p20)
        assert coloring.num_colors == 2 and verify_coloring(p20, coloring)
        assert calls == []
        rep = recognize(p20)
        assert calls == []
        assert rep.witness.pattern.name == "2P3" and calls == ["2P3"]
        assert rep.witness is rep.witness and calls == ["2P3"]
        assert cli.report_to_json(rep)["witness"]["pattern"] == "2P3"
        assert calls == ["2P3"]
        with pytest.raises(NotInClassError) as exc:
            color_in_class(pattern("C6").graph)
        assert exc.value.report.witness.pattern.name == "C6"
        assert calls == ["2P3", "2P3", "C4", "C6"]

    def test_count_equals_max_stage_lower_bound(self):
        # the color count is forced: it equals the max over the quotient+W
        # stage and the clique bounds N[v] met while re-adding the prefix
        for seed in (5, 9, 21):
            g, _ = gen_saucer(
                GenParams(seed=seed, max_class_size=3, a_components=(1, 2),
                          universal_count=(1, 2))
            )
            rep = recognize(g)
            c = color_in_class(g)
            weights = tuple(len(ids) for ids in rep.class_ids)
            k0, _ = solve_weighted(WeightedInstance(rep.quotient, weights))
            bounds = [k0 + len(rep.universal_w)]
            alive = set(remainder(rep.prefix))
            for v in reversed(rep.prefix.order):
                bounds.append(len(g.neighbors(v) & alive) + 1)
                alive.add(v)
            assert c.num_colors == max(bounds)


def clique_tree_graph(rng, n):
    """A chordal graph on 0..n-1 and a perfect elimination order of it: each
    vertex v > 0 is joined to a random part of the clique formed by a random
    earlier vertex u and u's own earlier neighbors, so along the reversed
    vertex order every vertex's later neighbors form a clique."""
    spread = float(rng.uniform(0.2, 1.0))
    earlier: list[tuple[int, ...]] = [()]
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        earlier.append(tuple(w for w in (u, *earlier[u]) if rng.random() < spread))
        edges += [(w, v) for w in earlier[v]]
    return build_graph(n, edges), list(reversed(range(n)))


def interval_graph(rng, n):
    """An interval graph on 0..n-1 and a perfect elimination order of it:
    the intervals by right end, as every later interval that meets one
    contains its right end."""
    left = rng.integers(0, 2 * n, size=n)
    right = left + rng.integers(0, int(rng.integers(1, n + 1)) + 1, size=n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if left[u] <= right[v] and left[v] <= right[u]]
    return build_graph(n, edges), sorted(range(n), key=lambda v: (right[v], v))


def largest_later_neighborhood(g, order):
    """1 + the most neighbors a vertex has after it in order: the clique
    number of g when order is a perfect elimination order."""
    later = most = 0
    for v in reversed(order):
        most = max(most, (g.rows[v] & later).bit_count())
        later |= 1 << v
    return 1 + most


@pytest.mark.parametrize("build", [clique_tree_graph, interval_graph])
def test_chordal_colorings_are_optimal(build):
    # chi = omega on chordal graphs, so a coloring with one color per vertex
    # of the largest later neighborhood along an elimination order is
    # optimal, at sizes no oracle reaches
    rng = np.random.default_rng(23)
    sizes = [int(rng.integers(5, 31)) for _ in range(150)] + [200, 800, 2000]
    for n in sizes:
        g, order = build(rng, n)
        c = color_in_class(g)
        assert verify_coloring(g, c), n
        assert c.num_colors == largest_later_neighborhood(g, order), n


class TestVerifyColoring:
    def test_proper_c7(self):
        g = pattern("C7").graph
        c = Coloring({v: v % 2 + 1 if v < 6 else 3 for v in range(7)}, 3)
        assert verify_coloring(g, c)

    def test_monochrome_edge_fails(self):
        g = complete(2)
        assert not verify_coloring(g, Coloring({0: 1, 1: 1}, 1))

    def test_partial_assignment_rejected(self):
        with pytest.raises(ValueError):
            verify_coloring(complete(3), Coloring({0: 1}, 1))

    @pytest.mark.parametrize("key", [True, np.int64(1), 1.0, -1, 2])
    def test_key_that_is_not_a_vertex_rejected(self, key):
        # True == 1.0 == np.int64(1) == 1 as a dict key, so each would
        # otherwise be read as vertex 1 of this proper coloring
        with pytest.raises(ValueError, match="cover every vertex exactly"):
            verify_coloring(complete(2), Coloring({0: 1, key: 2}, 2))
