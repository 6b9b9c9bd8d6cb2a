import contextlib
import os
from fractions import Fraction
from pathlib import Path
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import strategies as st

import pentaseven
from pentaseven import color, core
from pentaseven.catalog import _targets_by_key, pattern
from pentaseven.color import _lp_cover
from pentaseven.core import (
    Graph,
    _mask_of,
    bits_of,
    build_graph,
    nonadjacent_pair,
)
from pentaseven.decompose import SimplicialPrefix, simplicial_seed
from pentaseven.expr import Expr, _complete_expr
from pentaseven.oracle import find_induced


# the source root of the package under test, which need not be the
# checkout's own src/
SRC = Path(pentaseven.__file__).resolve().parent.parent


@contextlib.contextmanager
def fold_loops():
    """The loop each core._fold inside the block takes, "cell" or "row", in
    order."""
    loops = []

    def spy(name, loop):
        def counted(*args):
            loops.append(name)
            return loop(*args)
        return mock.patch.object(core, loop.__name__, counted)

    with spy("cell", core._cell_rows), spy("row", core._bit_rows):
        yield loops


def recorded_lp_solves(monkeypatch) -> list:
    """The (sets, weights, result) of each color._lp_cover call from now on."""
    solves = []

    def recorded(sets, weights):
        solves.append((sets, weights, _lp_cover(sets, weights)))
        return solves[-1][2]

    monkeypatch.setattr(color, "_lp_cover", recorded)
    return solves


def fresh_env(**extra: str) -> dict[str, str]:
    """The environment, with extra, for a fresh interpreter that imports
    the package under test: SRC first on PYTHONPATH."""
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


@st.composite
def random_graphs(draw, max_n: int = 12, min_n: int = 1):
    n = draw(st.integers(min_n, max_n))
    p = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < p, 1)
    return Graph(adj | adj.T)


def is_free_of(g: Graph, *names: str) -> bool:
    """True iff g contains no induced copy of any named pattern."""
    return all(find_induced(g, pattern(nm)) is None for nm in names)


def lp_in_fractions(sets, weights):
    """_lp_cover's integer result as (value, y, x) in Fractions: value is
    w.y / y_den, y_v is y[v] / y_den and x_s is x[s] / x_den, x's keys kept
    in the order _lp_cover gave them."""
    y, y_den, x, x_den = _lp_cover(sets, weights)
    assert all(type(c) is int for c in (y_den, x_den, *y, *x, *x.values()))
    assert y_den > 0 and x_den > 0
    value = Fraction(sum(w * yv for w, yv in zip(weights, y)), y_den)
    return value, [Fraction(yv, y_den) for yv in y], {
        s: Fraction(xs, x_den) for s, xs in x.items()
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# weights on groetzsch() where ceil(LP) = ceil(79/10) = 8 is the optimum but
# the residual of the rounded-down LP primal needs one color more than the
# colors left for it, so the colorer's peel must get stuck
GROETZSCH_WEIGHTS = (2, 2, 3, 3, 3, 2, 3, 4, 3, 4, 2)


def groetzsch() -> Graph:
    """The Groetzsch graph (Mycielskian of C5), chromatic number 4: 0..4 a
    5-cycle, 5 + i adjacent to the cycle neighbours of i, 10 adjacent to
    5..9."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, (i + d) % 5) for i in range(5) for d in (1, -1)]
    edges += [(10, 5 + i) for i in range(5)]
    return build_graph(11, edges)


class CountingRows(tuple):
    """Neighborhood rows that count the reads made by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def counting_copy(g: Graph) -> tuple[Graph, CountingRows]:
    """A fresh copy of g (no memoized seed) and its rows, which count the
    reads made by index."""
    g = Graph.from_rows(g.rows)
    g.rows = rows = CountingRows(g.rows)
    return g, rows


# ---------------------------------------------------------------------------
# views of the library that only the tests read


def is_clique_mask(g: Graph, mask: int) -> bool:
    return nonadjacent_pair(g.rows, mask) is None


def is_clique(g: Graph, s) -> bool:
    """Empty and singleton sets count as cliques."""
    return is_clique_mask(g, _mask_of(s))


def is_simplicial(g: Graph, v: int) -> bool:
    return is_clique_mask(g, g.rows[v])


def simplicial_vertices(g: Graph) -> frozenset[int]:
    """Vertices whose neighborhood is a clique (memoized with the pairs)."""
    return frozenset(simplicial_seed(g)[0])


def remainder(pre: SimplicialPrefix) -> frozenset[int]:
    """The vertices of the prefix's remainder."""
    return bits_of(pre.remainder_mask)


def expr_complete(k: int) -> Expr:
    """K_k on vertices 0..k-1; width 1 for k = 1, otherwise width 2."""
    if k < 1:
        raise ValueError("complete graphs need k >= 1")
    return _complete_expr(list(range(k)), 1, 2)


def to_nx(g: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return nxg


def isomorphic(g: Graph, h: Graph) -> bool:
    return nx.is_isomorphic(to_nx(g), to_nx(h))


def dedup_family_index():
    """Family plus T0/T1, one entry per isomorphism class, in catalog order."""
    return list(_targets_by_key().values())
