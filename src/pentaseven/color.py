"""Optimal proper coloring for graphs the recognizer accepts.

The pipeline mirrors recognition: color the (at most 12-vertex) twin quotient
exactly as a weighted instance, give universal vertices fresh colors, then
extend greedily along the reversed simplicial prefix.  Each step is forced by
a matching lower bound, so the result is optimal.  Chordal inputs (prefix
consumes everything) are colored greedily off the elimination ordering; any
other out-of-class input is refused.

The weighted solver replaces an external integer-programming step with an
exact branch-and-bound over maximal independent sets of the quotient.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .core import Graph, bits_of, greedy_extend
from .oracle import holes, max_weighted_clique
from .recognize import NotInClassError, RecognitionReport, recognize

QUOTIENT_CAP = 12
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
    y >= 0 (the dual of min sum x_S with coverage >= w), by dense simplex over
    Fractions with Bland's rule.  Returns (value, y, x) where y is the dual
    vector and x maps set index -> primal multiplicity.  Callers must verify
    y-feasibility before trusting the bound; weak duality then makes w.y a
    lower bound on the integer optimum regardless of solver bugs.
    """
    from fractions import Fraction

    n = len(weights)
    m = len(sets)
    zero, one = Fraction(0), Fraction(1)
    # rows: constraints; columns: y vars, slacks, rhs
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
        if not ratios:
            raise ArithmeticError("unbounded LP; constraint matrix is broken")
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
    value = -obj[-1]
    x = {s: -obj[n + s] for s in range(m) if obj[n + s] != 0}
    return value, y, x


def _odd_holes(q: Graph) -> list[tuple[tuple[int, ...], int]]:
    """Induced odd cycles of length >= 5, as (vertex tuple, floor(len/2)).

    Any color class meets a (2k+1)-hole in at most k vertices, so
    ceil(weight(hole) / k) lower-bounds the weighted chromatic number.
    """
    return [(h, len(h) // 2) for h in holes(q) if len(h) % 2]


def solve_weighted(inst: WeightedInstance) -> tuple[int, list[list[int]]]:
    """Exact weighted chromatic number of the quotient.

    Returns (k, color sets): vertex v receives exactly weights[v] colors from
    1..k, and adjacent vertices get disjoint sets.  Branch and bound over
    maximal independent sets containing a maximum-residual-weight vertex,
    lower-bounded by the exact maximum weighted clique and by odd-hole
    counting, with exact values and proven lower bounds memoized separately.
    """
    q = inst.quotient
    if q.n > QUOTIENT_CAP:
        raise ValueError(f"weighted solver capped at {QUOTIENT_CAP} vertices")
    rows = q.rows
    full = q.full_mask
    co_rows = [full & ~q.closed_row(v) for v in range(q.n)]
    odd_holes = _odd_holes(q)
    mis_cache: dict[tuple[int, int], list[int]] = {}

    def bound(wvec, support: int) -> int:
        lb = max_weighted_clique(rows, wvec, support)[0]
        for hole, k in odd_holes:
            total = sum(wvec[v] for v in hole)
            lb = max(lb, -(-total // k))
        return lb

    # fractional relaxation at the root: a verified-feasible dual vector is
    # a sound lower bound by weak duality; the primal multiplicities, rounded
    # down, leave only a small residual instance to solve exactly
    all_sets = _maximal_indep(co_rows, 0, full)
    lp_floor = 0
    lp_base: list[tuple[int, int]] = []
    lp_value, y, x = _lp_cover(all_sets, inst.weights)
    feasible = all(yv >= 0 for yv in y) and all(
        sum(y[v] for v in bits_of(smask)) <= 1 for smask in all_sets
    )
    if feasible:
        wy = sum(inst.weights[v] * y[v] for v in range(q.n))
        lp_floor = -(-wy.numerator // wy.denominator)  # ceil of a Fraction
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
            times = min(w[v] for v in bits_of(smask))
            chosen.append((smask, times))
            total += times
            for v in bits_of(smask):
                w[v] -= times

    exact: dict[tuple[int, ...], tuple[int, object]] = {}
    floor_memo: dict[tuple[int, ...], int] = {}

    def solve(wvec: tuple[int, ...], budget: int, depth: int | None) -> int | None:
        """Exact f(wvec) when f <= budget, else None (proving f > budget).

        depth counts branching steps from the root instance; since every step
        spends one color, f(state) >= lp_floor - depth there.  Residual
        instances off the root path pass depth=None to skip that term.
        """
        known = exact.get(wvec)
        if known is not None:
            return known[0] if known[0] <= budget else None
        support = 0
        for v in range(q.n):
            if wvec[v] > 0:
                support |= 1 << v
        if not support:
            return 0
        lb = max(bound(wvec, support), floor_memo.get(wvec, 0))
        if depth is not None:
            lb = max(lb, lp_floor - depth)
        if lb > budget:
            return None
        ub, _ = greedy(wvec)
        if lb == ub:
            exact[wvec] = (ub, "greedy")
            return ub
        pivot = max(bits_of(support), key=lambda v: (wvec[v], -v))
        key = (support, pivot)
        sets = mis_cache.get(key)
        if sets is None:
            sets = _maximal_indep(co_rows, 1 << pivot, co_rows[pivot] & support)
            mis_cache[key] = sets
        best: int | None = ub if ub <= budget else None
        best_set: object = "greedy"
        limit = (best - 1 if best is not None else budget) - 1
        child_depth = None if depth is None else depth + 1
        for smask in sets:
            if limit + 1 < lb:
                break
            nxt = tuple(
                wvec[v] - 1 if smask >> v & 1 else wvec[v] for v in range(q.n)
            )
            got = solve(nxt, limit, child_depth)
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
                got = solve(wvec, greedy(wvec)[0], None)  # after a flush
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
        # upper bound 1: floor of the LP primal plus an exact small residual
        residual = list(inst.weights)
        for smask, times in lp_base:
            for v in bits_of(smask):
                residual[v] = max(0, residual[v] - times)
        r = tuple(residual)
        base_count = sum(times for _, times in lp_base)
        if any(r):
            fr = solve(r, greedy(r)[0], None)
            assert fr is not None
            classes = [s for smask, t in lp_base for s in [smask] * t] + replay(r)
        else:
            fr = 0
            classes = [s for smask, t in lp_base for s in [smask] * t]
        k = base_count + fr
        # upper bound 2: plain greedy
        g_total, g_chosen = greedy(inst.weights)
        if g_total < k:
            k = g_total
            classes = [s for smask, t in g_chosen for s in [smask] * t]
        support0 = 0
        for v in range(q.n):
            support0 |= 1 << v
        lb_root = max(bound(inst.weights, support0), lp_floor)
        if k > lb_root:
            got = solve(inst.weights, k - 1, 0)
            if got is not None:
                k = got
                classes = replay(inst.weights)
    finally:
        sys.setrecursionlimit(old_limit)
    assert len(classes) == k
    color_sets: list[list[int]] = [[] for _ in range(q.n)]
    remaining = list(inst.weights)
    for color, smask in enumerate(classes, start=1):
        for v in bits_of(smask):
            if remaining[v] > 0:
                color_sets[v].append(color)
                remaining[v] -= 1
    assert all(r == 0 for r in remaining)
    return k, color_sets


def color_in_class(g: Graph) -> Coloring:
    """Optimal coloring, or NotInClassError carrying the recognition report.

    Chordal inputs are colored greedily along the reversed elimination
    ordering; in-class inputs go through the exact quotient solver.
    """
    report = recognize(g)
    prefix = report.prefix
    if prefix is not None and not prefix.remainder:
        assignment: dict[int, int] = {}
        greedy_extend(g, list(reversed(prefix.order)), assignment)
        return Coloring(assignment, max(assignment.values()))
    if not report.in_class:
        raise NotInClassError(report)
    return _color_from_report(g, report)


def _color_from_report(g: Graph, report: RecognitionReport) -> Coloring:
    quotient = report.quotient
    weights = tuple(len(ids) for ids in report.class_ids)
    k0, color_sets = solve_weighted(WeightedInstance(quotient, weights))
    assignment: dict[int, int] = {}
    for q, ids in enumerate(report.class_ids):
        for v, c in zip(ids, color_sets[q]):
            assignment[v] = c
    nxt = k0
    for v in sorted(report.universal_w):
        nxt += 1
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
