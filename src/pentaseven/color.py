"""Optimal proper coloring for graphs the recognizer accepts.

The pipeline mirrors recognition: color the (at most 12-vertex) twin quotient
exactly as a weighted instance, give universal vertices fresh colors, then
extend greedily along the reversed simplicial prefix.  Each step is forced by
a matching lower bound, so the result is optimal.  Chordal inputs (prefix
consumes everything) are colored greedily off the elimination ordering; any
other out-of-class input is refused.

The weighted solver replaces an external integer-programming step: it rounds
the exact LP relaxation down to a base of color classes, solves the residual
exactly, and proves the total optimal against the lower bounds max weighted
clique and ceil(LP), or else finds the optimum by branch and bound over the
maximal independent sets of the quotient.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .catalog import QUOTIENT_CAP
from .core import Graph, _iter_bits, greedy_extend
from .oracle import max_weighted_clique
from .recognize import NotInClassError, recognize

_MEMO_BUDGET = 500_000


@dataclass(frozen=True)
class Coloring:
    assignment: dict[int, int]  # vertex -> color, colors are 1-based
    num_colors: int


@dataclass(frozen=True)
class WeightedInstance:
    quotient: Graph
    weights: tuple[int, ...]

    def __post_init__(self):
        if self.quotient.n != len(self.weights):
            raise ValueError("one weight per quotient vertex")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be >= 1")


def _maximal_indep(co_rows: list[int], r: int, p: int) -> list[int]:
    """Maximal independent sets that contain r and otherwise draw from p, as
    maximal cliques of the complement (Bron-Kerbosch with pivoting)."""
    out: list[int] = []

    def bk(r: int, p: int, x: int):
        if not p and not x:
            out.append(r)
            return
        pool = p | x
        u = (pool & -pool).bit_length() - 1
        cand = p & ~co_rows[u]
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            bk(r | low, p & co_rows[v], x & co_rows[v])
            p &= ~low
            x |= low

    bk(r, p, 0)
    return out


def _lp_cover(sets: list[int], weights: tuple[int, ...]):
    """Exact rational LP relaxation of the set-multicover formulation.

    Solves max w.y subject to sum(y_v for v in S) <= 1 per independent set S,
    y >= 0 (the dual of min sum x_S with coverage >= w), by dense simplex with
    Bland's rule.  Each tableau row, and the objective row, is a list of ints
    over one positive int denominator (Edmonds' integer-preserving
    elimination): ratios compare by cross-multiplying and each row update is
    reduced by the gcd of its entries, so the pivots are those of the same
    simplex over Fractions.  Returns (value, y, x) as Fractions, where y is
    the dual vector and x maps set index -> primal multiplicity.  Callers must
    still verify y-feasibility before trusting the bound; weak duality then
    makes w.y a lower bound on the integer optimum regardless of solver bugs.
    """
    from fractions import Fraction

    n = len(weights)
    m = len(sets)
    # rows: constraints; columns: y vars, slacks, rhs; row i is tab[i] / den[i]
    tab = []
    for i, smask in enumerate(sets):
        r = [smask >> v & 1 for v in range(n)] + [0] * (m + 1)
        r[n + i] = r[-1] = 1
        tab.append(r)
    den = [1] * m
    obj = list(weights) + [0] * (m + 1)
    obj_den = 1
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n + m) if obj[j] > 0), None)
        if enter is None:
            break
        # min ratio rhs/a over a > 0, ties to the smaller basic variable
        row = -1
        for i, r in enumerate(tab):
            a = r[enter]
            if a <= 0:
                continue
            if row >= 0:
                d = r[-1] * best_a - best_rhs * a  # sign of this ratio - best
                if d > 0 or (d == 0 and basis[i] > basis[row]):
                    continue
            row, best_rhs, best_a = i, r[-1], a
        if row < 0:
            raise ArithmeticError("unbounded LP; constraint matrix is broken")
        # the pivot row divided by its pivot entry is prow / pd
        prow = tab[row]
        pd = prow[enter]
        g = math.gcd(pd, *prow)
        if g > 1:
            prow = [c // g for c in prow]
            pd //= g
        tab[row], den[row] = prow, pd
        for i, r in enumerate(tab):
            f = r[enter]
            if f and i != row:
                new = [a * pd - f * b for a, b in zip(r, prow)]
                g = math.gcd(den[i] * pd, *new)
                tab[i] = [c // g for c in new] if g > 1 else new
                den[i] = den[i] * pd // g
        f = obj[enter]
        new = [a * pd - f * b for a, b in zip(obj, prow)]
        g = math.gcd(obj_den * pd, *new)
        obj = [c // g for c in new] if g > 1 else new
        obj_den = obj_den * pd // g
        basis[row] = enter
    y = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            y[b] = Fraction(tab[i][-1], den[i])
    value = Fraction(-obj[-1], obj_den)
    x = {s: Fraction(-obj[n + s], obj_den) for s in range(m) if obj[n + s] != 0}
    return value, y, x


def solve_weighted(inst: WeightedInstance) -> tuple[int, list[list[int]]]:
    """Exact weighted chromatic number of the quotient.

    Returns (k, color sets): vertex v receives exactly weights[v] colors from
    1..k, and adjacent vertices get disjoint sets.  The LP primal, rounded
    down, plus an exact solve of the residual gives k.  When k exceeds the
    root lower bound, the larger of the maximum weighted clique and ceil(LP),
    a branch and bound over the whole instance decides the optimum.  Both
    searches branch on the maximal independent sets containing a
    maximum-residual-weight vertex, are bounded below by the exact maximum
    weighted clique, and memoize exact values and proven lower bounds
    separately.
    """
    q = inst.quotient
    if q.n > QUOTIENT_CAP:
        raise ValueError(f"weighted solver capped at {QUOTIENT_CAP} vertices")
    rows = q.rows
    full = q.full_mask
    co_rows = [full & ~q.closed_row(v) for v in range(q.n)]
    mis_cache: dict[tuple[int, int], list[int]] = {}

    # fractional relaxation at the root: a verified-feasible dual vector is
    # a sound lower bound by weak duality; the primal multiplicities, rounded
    # down, leave only a small residual instance to solve exactly
    all_sets = _maximal_indep(co_rows, 0, full)
    lp_floor = 0
    lp_base: list[tuple[int, int]] = []
    lp_value, y, x = _lp_cover(all_sets, inst.weights)
    # y checked exactly, as int numerators over one common denominator
    y_den = math.lcm(*(yv.denominator for yv in y))
    y_num = [yv.numerator * (y_den // yv.denominator) for yv in y]
    y_bits = [(1 << v, yn) for v, yn in enumerate(y_num) if yn]
    feasible = all(yn >= 0 for yn in y_num) and all(
        sum(yn for bit, yn in y_bits if smask & bit) <= y_den for smask in all_sets
    )
    if feasible:
        wy = sum(w * yn for w, yn in zip(inst.weights, y_num))
        lp_floor = -(-wy // y_den)  # ceil of w.y
    for s, mult in x.items():
        times = int(mult) if mult >= 0 else 0
        if times > 0:
            lp_base.append((all_sets[s], times))

    def greedy(wvec: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
        w = list(wvec)
        chosen: list[tuple[int, int]] = []
        total = 0
        while True:
            support = [v for v in range(q.n) if w[v] > 0]
            if not support:
                return total, chosen
            support.sort(key=lambda v: -w[v])
            smask = 0
            for v in support:
                if not rows[v] & smask:
                    smask |= 1 << v
            times = min(w[v] for v in _iter_bits(smask))
            chosen.append((smask, times))
            total += times
            for v in _iter_bits(smask):
                w[v] -= times

    exact: dict[tuple[int, ...], tuple[int, object]] = {}
    floor_memo: dict[tuple[int, ...], int] = {}

    def solve(wvec: tuple[int, ...], budget: int) -> int | None:
        """Exact f(wvec) when f <= budget, else None (proving f > budget)."""
        known = exact.get(wvec)
        if known is not None:
            return known[0] if known[0] <= budget else None
        support = 0
        for v in range(q.n):
            if wvec[v] > 0:
                support |= 1 << v
        if not support:
            return 0
        lb = max(
            max_weighted_clique(rows, wvec, support)[0], floor_memo.get(wvec, 0)
        )
        if lb > budget:
            return None
        ub, _ = greedy(wvec)
        if lb == ub:
            exact[wvec] = (ub, "greedy")
            return ub
        pivot = max(_iter_bits(support), key=lambda v: (wvec[v], -v))
        key = (support, pivot)
        sets = mis_cache.get(key)
        if sets is None:
            sets = _maximal_indep(co_rows, 1 << pivot, co_rows[pivot] & support)
            mis_cache[key] = sets
        best: int | None = ub if ub <= budget else None
        best_set: object = "greedy"
        limit = (best - 1 if best is not None else budget) - 1
        for smask in sets:
            if limit + 1 < lb:
                break
            nxt = tuple(
                wvec[v] - 1 if smask >> v & 1 else wvec[v] for v in range(q.n)
            )
            got = solve(nxt, limit)
            if got is not None:
                best, best_set = 1 + got, smask
                limit = best - 2
                if best == lb:
                    break
        if len(exact) + len(floor_memo) > _MEMO_BUDGET:
            exact.clear()
            floor_memo.clear()
        if best is None:
            floor_memo[wvec] = max(floor_memo.get(wvec, 0), budget + 1)
            return None
        exact[wvec] = (best, best_set)
        return best

    def replay(wvec: tuple[int, ...]) -> list[int]:
        """Walk the recorded decisions, one color class per step."""
        out: list[int] = []
        while any(wvec):
            if wvec not in exact:
                got = solve(wvec, greedy(wvec)[0])  # after a flush
                assert got is not None
            choice = exact[wvec][1]
            if choice == "greedy":
                _, chosen = greedy(wvec)
                for smask, times in chosen:
                    out.extend([smask] * times)
                break
            out.append(choice)
            wvec = tuple(
                wvec[v] - 1 if choice >> v & 1 else wvec[v] for v in range(q.n)
            )
        return out

    # the chain of branching decisions is one frame per color class
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 3 * sum(inst.weights) + 10_000))
    try:
        # the floor of the LP primal plus an exact small residual
        residual = list(inst.weights)
        for smask, times in lp_base:
            for v in _iter_bits(smask):
                residual[v] = max(0, residual[v] - times)
        r = tuple(residual)
        classes = [smask for smask, times in lp_base for _ in range(times)]
        k = len(classes)
        if any(r):
            fr = solve(r, greedy(r)[0])
            assert fr is not None
            classes += replay(r)
            k += fr
        lb_root = max(max_weighted_clique(rows, inst.weights, full)[0], lp_floor)
        if k > lb_root:
            got = solve(inst.weights, k - 1)
            if got is not None:
                k = got
                classes = replay(inst.weights)
    finally:
        sys.setrecursionlimit(old_limit)
    assert len(classes) == k
    color_sets: list[list[int]] = [[] for _ in range(q.n)]
    remaining = list(inst.weights)
    for color, smask in enumerate(classes, start=1):
        for v in _iter_bits(smask):
            if remaining[v] > 0:
                color_sets[v].append(color)
                remaining[v] -= 1
    assert all(r == 0 for r in remaining)
    return k, color_sets


def color_in_class(g: Graph) -> Coloring:
    """Optimal coloring, or NotInClassError carrying the recognition report.

    In-class inputs color their twin quotient with the exact solver and the
    universal vertices with fresh colors.  Then every input, chordal ones
    included, colors its simplicial prefix greedily along the reversed
    elimination ordering.
    """
    report = recognize(g)
    if report.prefix.remainder_mask and not report.in_class:
        raise NotInClassError(report)
    assignment: dict[int, int] = {}
    if report.quotient is not None:  # None: chordal, the prefix is all of g
        weights = tuple(len(ids) for ids in report.class_ids)
        k0, color_sets = solve_weighted(WeightedInstance(report.quotient, weights))
        for q, ids in enumerate(report.class_ids):
            for v, c in zip(ids, color_sets[q]):
                assignment[v] = c
        for nxt, v in enumerate(report.universal_w, k0 + 1):
            assignment[v] = nxt
    greedy_extend(g, list(reversed(report.prefix.order)), assignment)
    return Coloring(assignment, max(assignment.values()))


def verify_coloring(g: Graph, coloring: Coloring) -> bool:
    """True iff the assignment is total and proper."""
    if set(coloring.assignment) != set(range(g.n)):
        raise ValueError("assignment must cover every vertex exactly")
    for u, v in g.edges():
        if coloring.assignment[u] == coloring.assignment[v]:
            return False
    return len(set(coloring.assignment.values())) == coloring.num_colors
