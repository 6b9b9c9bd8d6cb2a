"""Metamorphic relations between the outputs on related inputs, checked at
sizes no oracle reaches (n from 200 to 2 000): a relabeling changes no
output that names no vertex, and each universal vertex added to an in-class
graph keeps it in class and raises |W| and the chromatic number by one."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pentaseven import cwd
from pentaseven.color import color_in_class
from pentaseven.core import Graph
from pentaseven.generate import GenParams, gen_saucer, gen_special, gen_tent, mutate
from pentaseven.recognize import NotInClassError, recognize


@st.composite
def generated_graphs(draw, make):
    """A graph from the generator make with 200 to 2 000 vertices, or a
    single-flip mutant of one."""
    comps = (0, draw(st.integers(0, 30)))
    g, _ = make(GenParams(
        seed=draw(st.integers(0, 2**32 - 1)),
        max_class_size=draw(st.integers(45, 300)),
        a_components=comps,
        z_components=comps,
        max_component_size=draw(st.integers(1, 20)),
        universal_count=(0, draw(st.integers(0, 30))),
    ))
    assume(200 <= g.n <= 2000)
    if draw(st.booleans()):
        g = mutate(g, draw(st.integers(0, 2**32 - 1)))
    return g


def outputs(g: Graph) -> dict:
    """Every output of recognize, color and cwd that names no vertex."""
    rep = recognize(g)
    try:
        colors = color_in_class(g).num_colors
    except NotInClassError:
        colors = None
    try:
        width = cwd.width(cwd.expr_for_class_graph(g))
    except (NotInClassError, cwd.ExpressionRefusal) as exc:
        width = type(exc).__name__
    return {
        "kind": rep.kind,
        "catalog": rep.catalog_name,
        "stages": [name for name, _ in rep.stages],
        "prefix": len(rep.prefix.order),
        "w": len(rep.universal_w),
        "k": len(rep.class_ids),
        "colors": colors,
        "width": width,
    }


def relabeled(g: Graph, seed: int) -> Graph:
    """g with vertex v renamed perm[v] for a seeded random permutation."""
    perm = np.random.default_rng(seed).permutation(g.n)
    inverse = np.argsort(perm)
    return Graph(g.adj[np.ix_(inverse, inverse)])


def with_universal_vertex(g: Graph) -> Graph:
    """g plus a vertex n adjacent to every vertex of g."""
    bit = 1 << g.n
    return Graph.from_rows([r | bit for r in g.rows] + [bit - 1])


@pytest.mark.parametrize("make", [gen_special, gen_saucer, gen_tent])
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_relations(make, data):
    g = data.draw(generated_graphs(make))
    seed = data.draw(st.integers(0, 2**32 - 1))
    got = outputs(g)
    assert outputs(relabeled(g, seed)) == got
    if got["kind"] == "not-in-class":
        return
    for extra in (1, 2):  # one universal vertex, then a second one
        g = with_universal_vertex(g)
        up = outputs(g)
        assert up["kind"] == got["kind"]
        assert up["w"] == got["w"] + extra
        assert up["colors"] == got["colors"] + extra
