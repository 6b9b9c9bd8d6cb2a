"""Second-opinion checks for the oracle layer: every routine here is compared
against a deliberately dumb independent implementation on small instances."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentaseven.catalog import pattern
from pentaseven.core import Graph, bits_of
from pentaseven.oracle import (
    all_hole_lengths,
    chromatic_number_bf,
    clique_cutset_bf,
    find_induced,
    max_clique_mask,
    max_weighted_clique,
)

from conftest import dedup_family_index, is_clique, lp_in_fractions, random_graphs


def holes_by_subset_scan(g):
    """Induced cycles = connected 2-regular induced subgraphs."""
    out = set()
    for mask in range(1, 1 << g.n):
        size = mask.bit_count()
        if size < 4:
            continue
        if any(
            (g.rows[v] & mask).bit_count() != 2 for v in bits_of(mask)
        ):
            continue
        start = mask & -mask
        reach = start
        frontier = start
        while frontier:
            v = frontier & -frontier
            frontier ^= v
            new = g.rows[v.bit_length() - 1] & mask & ~reach
            reach |= new
            frontier |= new
        if reach == mask:
            out.add(size)
    return out


@given(random_graphs(max_n=11))
@settings(max_examples=60, deadline=None)
def test_hole_lengths_vs_subset_scan(g):
    assert all_hole_lengths(g) == holes_by_subset_scan(g)


def embeds_by_permutation(g, h):
    p = h.graph
    if p.n > g.n:
        return False
    for image in itertools.permutations(range(g.n), p.n):
        if all(
            g.has_edge(image[u], image[v]) == p.has_edge(u, v)
            for u in range(p.n)
            for v in range(u + 1, p.n)
        ):
            return True
    return False


@given(random_graphs(max_n=7))
@settings(max_examples=40, deadline=None)
def test_find_induced_vs_permutation_scan(g):
    for name in ("P3", "C4", "4K1", "2P3"):
        got = find_induced(g, pattern(name))
        assert (got is not None) == embeds_by_permutation(g, pattern(name))
        if got is not None:
            assert got.is_valid(g)


def chi_by_exhaustion(g):
    for k in range(1, g.n + 1):
        for assignment in itertools.product(range(k), repeat=g.n):
            if all(assignment[u] != assignment[v] for u, v in g.edges()):
                return k
    raise AssertionError("unreachable")


@given(random_graphs(max_n=7))
@settings(max_examples=30, deadline=None)
def test_chromatic_vs_exhaustion(g):
    assert chromatic_number_bf(g)[0] == chi_by_exhaustion(g)


def clique_cutset_by_subset_scan(g):
    from pentaseven.core import components, induced_subgraph

    for mask in range(1 << g.n):
        members = set(bits_of(mask))
        if len(members) >= g.n or not is_clique(g, members):
            continue
        rest = set(range(g.n)) - members
        sub, _ = induced_subgraph(g, rest)
        if len(components(sub)) >= 2:
            return True
    return False


@given(random_graphs(max_n=9, min_n=2))
@settings(max_examples=40, deadline=None)
def test_clique_cutset_vs_subset_scan(g):
    assert (clique_cutset_bf(g) is not None) == clique_cutset_by_subset_scan(g)


@given(random_graphs(max_n=10), st.data())
@settings(max_examples=40, deadline=None)
def test_max_clique_vs_subset_scan(g, data):
    weights = data.draw(st.lists(st.integers(0, 9), min_size=g.n, max_size=g.n))
    support = data.draw(st.integers(0, g.full_mask))
    cliques = [
        mask for mask in range(1 << g.n)
        if all(
            (g.rows[v] & mask & ~(1 << v)).bit_count() == mask.bit_count() - 1
            for v in bits_of(mask)
        )
    ]

    def weight(mask):
        return sum(weights[v] for v in bits_of(mask))

    assert max_clique_mask(g).bit_count() == max(m.bit_count() for m in cliques)
    best, mask = max_weighted_clique(g.rows, weights, support)
    assert best == max(weight(m) for m in cliques if not m & ~support)
    assert mask in cliques and not mask & ~support and weight(mask) == best


def test_lp_bound_vs_scipy_if_available():
    scipy_opt = pytest.importorskip("scipy.optimize")
    from pentaseven.color import _maximal_indep

    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(2, 10))
        p = rng.uniform(0.2, 0.8)
        adj = np.triu(rng.random((n, n)) < p, 1)
        g = Graph(adj | adj.T)
        weights = tuple(int(rng.integers(1, 20)) for _ in range(n))
        full = g.full_mask
        co_rows = [full & ~g.closed_row(v) for v in range(n)]
        sets = _maximal_indep(co_rows, 0, full)
        value, y, x = lp_in_fractions(sets, weights)
        # independent solve of the primal: min 1.x, A x >= w, x >= 0
        a_ub = np.zeros((n, len(sets)))
        for j, smask in enumerate(sets):
            for v in bits_of(smask):
                a_ub[v, j] = -1.0
        res = scipy_opt.linprog(
            c=np.ones(len(sets)), A_ub=a_ub, b_ub=-np.asarray(weights, float),
            bounds=(0, None), method="highs",
        )
        assert res.status == 0
        assert abs(float(value) - res.fun) < 1e-7, (trial, value, res.fun)
        # the dual vector must be feasible, making w.y a valid bound
        for smask in sets:
            assert sum(y[v] for v in bits_of(smask)) <= 1
        assert all(yv >= 0 for yv in y)


def weighted_chi_by_milp(g, weights, scipy_opt):
    """Independent optimum: min sum x_S over every independent set S, found
    by subset scan, with sum(x_S for S containing v) >= w_v, x integral."""
    sets = [
        mask for mask in range(1, 1 << g.n)
        if not any(g.rows[v] & mask for v in bits_of(mask))
    ]
    cover = np.zeros((g.n, len(sets)))
    for j, mask in enumerate(sets):
        for v in bits_of(mask):
            cover[v, j] = 1.0
    res = scipy_opt.milp(
        c=np.ones(len(sets)),
        constraints=scipy_opt.LinearConstraint(cover, lb=np.asarray(weights, float)),
        integrality=np.ones(len(sets)),
        bounds=scipy_opt.Bounds(0, np.inf),
        options={"mip_rel_gap": 0},
    )
    assert res.status == 0
    opt = round(res.fun)
    assert abs(res.fun - opt) < 1e-6
    return opt


def test_solve_weighted_vs_milp_if_available():
    # the expanded graphs are far beyond CHROMATIC_CAP, so this is the only
    # check of the optimum itself at these weights
    scipy_opt = pytest.importorskip("scipy.optimize")
    from pentaseven.color import WeightedInstance, solve_weighted

    rng = np.random.default_rng(11)
    for entry in dedup_family_index():
        g = entry.graph
        for _ in range(5):
            weights = tuple(int(w) for w in rng.integers(1, 201, g.n))
            k, _ = solve_weighted(WeightedInstance(g, weights))
            assert k == weighted_chi_by_milp(g, weights, scipy_opt), weights
