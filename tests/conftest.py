import numpy as np
import pytest
from hypothesis import strategies as st

from pentaseven.catalog import _targets_by_key, pattern
from pentaseven.core import (
    Graph,
    _mask_of,
    bits_of,
    build_graph,
    nonadjacent_pair,
)
from pentaseven.cwd import Expr, _complete_expr
from pentaseven.decompose import SimplicialPrefix, simplicial_seed
from pentaseven.oracle import find_induced


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# weights on groetzsch() where ceil(LP) = ceil(79/10) = 8 is the optimum but
# the rounded-down LP primal plus an exact residual solve gives 9
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


def dedup_family_index():
    """Family plus T0/T1, one entry per isomorphism class, in catalog order."""
    return list(_targets_by_key().values())
