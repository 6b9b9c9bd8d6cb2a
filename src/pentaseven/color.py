"""Optimal proper coloring for graphs the recognizer accepts.

The pipeline mirrors recognition: color the (at most 12-vertex) twin quotient
exactly as a weighted instance, give universal vertices fresh colors, then
extend greedily along the reversed simplicial prefix.  Each step is forced by
a matching lower bound, so the result is optimal.  Chordal inputs (prefix
consumes everything) are colored greedily off the elimination ordering; any
other out-of-class input is refused.

The weighted solver replaces an external integer-programming step.  It
solves the exact LP relaxation in ints and reads k = ceil(LP) off the root
dual, which, once checked feasible, proves that no coloring uses fewer
colors.  The rounded-down LP primal is a base of color classes, and the
residual is peeled one class at a time, each keeping the residual's
ceil(LP) within the colors left.  On the catalog bases ceil(LP) is the
weighted chromatic number, so the peel never gets stuck there; where it
does, the solver raises rather than return more than k colors.  Color
classes stay (set, times) pairs up to the final assignment, so the work
does not grow with the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import QUOTIENT_CAP
from .core import CapError, Graph, bits, greedy_extend
from .recognize import NotInClassError, recognize


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
        if any(type(w) is not int or w < 1 for w in self.weights):
            raise ValueError("weights must be plain ints >= 1")


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
    """Exact LP relaxation of the set-multicover formulation, in ints.

    Solves max w.y subject to sum(y_v for v in S) <= 1 per independent set S,
    y >= 0 (the dual of min sum x_S with coverage >= w), by Bland's simplex
    on a dictionary: labels 0..n-1 are the y_v and n + s is the slack of set
    s; one row per basic variable holds its coefficients over the n nonbasic
    columns and its value, and the objective row the reduced costs, each as
    ints over one positive int denominator, reduced by their gcd after every
    update (Edmonds' integer-preserving elimination).  The entering variable
    is the lowest label with a positive reduced cost and ratio ties go to the
    smaller basic variable, so the pivots are those of the same simplex over
    the rationals.  Returns (y, y_den, x, x_den): the dual vector y[v] / y_den
    (w.y / y_den is the LP value) and set index -> primal multiplicity
    x[s] / x_den, in ascending set order.  Callers must still verify
    y-feasibility before trusting the bound; weak duality then makes w.y a
    lower bound on the integer optimum regardless of solver bugs.
    """
    n, m = len(weights), len(sets)
    cols = list(range(n))  # the label of each nonbasic column
    basis = list(range(n, n + m))
    # row i < m is basic variable basis[i], row m the objective
    tab = [[smask >> v & 1 for v in range(n)] + [1] for smask in sets]
    tab.append(list(weights) + [0])
    den = [1] * (m + 1)  # row i is tab[i] / den[i]
    while True:
        obj = tab[m]
        enter = min((c for c in range(n) if obj[c] > 0), key=cols.__getitem__,
                    default=None)
        if enter is None:
            break
        # min ratio rhs/a over a > 0, ties to the smaller basic variable
        row = -1
        for i in range(m):
            rhs, a = tab[i][-1], tab[i][enter]
            if a <= 0:
                continue
            if row >= 0:
                d = rhs * best_a - best_rhs * a  # sign of this ratio - best
                if d > 0 or (d == 0 and basis[i] > basis[row]):
                    continue
            row, best_rhs, best_a = i, rhs, a
        if row < 0:
            raise ArithmeticError("unbounded LP; constraint matrix is broken")
        # the pivot row solved for the entering variable is prow / pd; the
        # leaving variable takes over the entering column
        prow = tab[row]
        pd, prow[enter] = prow[enter], den[row]
        g = math.gcd(pd, *prow)
        if g > 1:
            prow = [c // g for c in prow]
            pd //= g
        tab[row], den[row] = prow, pd
        for i, r in enumerate(tab):
            f = r[enter]
            if f and i != row:
                new = [a * pd - f * b for a, b in zip(r, prow)]
                new[enter] -= f * pd
                g = math.gcd(den[i] * pd, *new)
                tab[i] = [c // g for c in new] if g > 1 else new
                den[i] = den[i] * pd // g
        basis[row], cols[enter] = cols[enter], basis[row]
    y_den = math.lcm(*(d for b, d in zip(basis, den) if b < n))
    y = [0] * n
    for b, r, d in zip(basis, tab, den):
        if b < n:
            y[b] = r[-1] * (y_den // d)
    x = dict(sorted((s - n, -f) for s, f in zip(cols, tab[m]) if s >= n and f))
    return y, y_den, x, den[m]


def solve_weighted(inst: WeightedInstance) -> tuple[int, list[list[int]]]:
    """Exact weighted chromatic number of the quotient.

    Returns (k, color sets): vertex v receives exactly weights[v] colors from
    1..k, and adjacent vertices get disjoint sets.  k is ceil(LP), read off
    the root dual y once it is checked feasible, so by weak duality no
    coloring uses fewer colors.  The root primal, rounded down, gives a base
    of color classes; the residual r is then peeled one color class at a
    time, each a maximal independent set cut to the support of r whose
    removal leaves ceil(LP) within the colors left.  Such a class exists
    whenever each residual needs only ceil(LP) of its own colors; on the
    catalog bases no weighting tried has needed more.  Raises
    ArithmeticError when the dual fails its check or no class can be
    peeled.
    """
    q = inst.quotient
    if q.n > QUOTIENT_CAP:
        raise CapError(f"weighted solver capped at {QUOTIENT_CAP} vertices")
    full = q.full_mask
    co_rows = [full & ~q.closed_row(v) for v in range(q.n)]
    all_sets = _maximal_indep(co_rows, 0, full)
    y, y_den, x, x_den = _lp_cover(all_sets, inst.weights)
    y_bits = [(1 << v, yv) for v, yv in enumerate(y) if yv]
    if any(yv < 0 for yv in y) or any(
        sum(yv for bit, yv in y_bits if smask & bit) > y_den for smask in all_sets
    ):
        raise ArithmeticError("the LP dual is infeasible; the simplex is broken")
    k = -(-sum(w * yv for w, yv in zip(inst.weights, y)) // y_den)  # ceil of w.y
    classes = [(all_sets[s], xs // x_den) for s, xs in x.items() if xs >= x_den]
    residual = list(inst.weights)
    for smask, times in classes:
        for v in bits(smask):
            residual[v] = max(0, residual[v] - times)
    r = tuple(residual)
    left = k - sum(times for _, times in classes)
    # the fractional parts of x cover r at LP(w) minus the base, and nothing
    # covers r for less, or the base would beat LP(w): they solve r's LP
    x = {s: xs % x_den for s, xs in x.items() if xs % x_den}
    while any(r):
        support = sum(1 << v for v, rv in enumerate(r) if rv)
        order = sorted(x, key=lambda s: (-x[s], s))
        order += [s for s in range(len(all_sets)) if s not in x]
        tried = {0}
        for s in order:
            cut = all_sets[s] & support
            if cut in tried:
                continue
            tried.add(cut)
            nxt = tuple(rv - (cut >> v & 1) for v, rv in enumerate(r))
            _, _, x, x_den = _lp_cover(all_sets, nxt)
            if -(-sum(x.values()) // x_den) <= left - 1:
                break
        else:
            raise ArithmeticError(
                f"no color class peels the weights {inst.weights} within ceil(LP): "
                "a residual needs more colors than its LP bound"
            )
        classes.append((cut, 1))
        r, left = nxt, left - 1
    # class (smask, times) holds colors c..c + times - 1; each of its
    # vertices takes as many of them as it still needs
    color_sets: list[list[int]] = [[] for _ in range(q.n)]
    remaining = list(inst.weights)
    c = 1
    for smask, times in classes:
        for v in bits(smask):
            t = min(times, remaining[v])
            color_sets[v] += range(c, c + t)
            remaining[v] -= t
        c += times
    assert c == k + 1 and not any(remaining)
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

