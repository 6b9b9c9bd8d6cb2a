import numpy as np
import pytest
from hypothesis import strategies as st

from pentaseven.catalog import pattern
from pentaseven.core import Graph, build_graph
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
