"""Metamorphic relations between the outputs on related inputs, checked at
sizes no oracle reaches (n from 200 to 2 000): a relabeling changes no
output that names no vertex; each universal vertex added to an in-class
graph keeps it in class and raises |W| and the chromatic number by one;
replacing a vertex by a clique of s + 1 closed twins keeps the kind, the
catalog entry and k and raises the chromatic number by at most s; and
deleting a prefix vertex, a vertex of W or a vertex with a twin keeps an
in-class graph in class and lowers the chromatic number by at most one."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pentaseven import cwd, expr
from pentaseven.color import color_in_class
from pentaseven.core import Graph, induced_subgraph
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
        width = expr.width(cwd.expr_for_class_graph(g))
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


# the outputs a clique substitution keeps
KEPT = ("kind", "catalog", "k")


def with_twins(g: Graph, v: int, s: int) -> Graph:
    """g with vertex v replaced by a clique of s + 1 closed twins: v and
    new vertices n..n+s-1, each adjacent to v's closed neighbourhood."""
    new = ((1 << s) - 1) << g.n
    rows = [r | new if r >> v & 1 else r for r in g.rows]
    rows[v] |= new
    closed = rows[v] | 1 << v
    return Graph.from_rows(rows + [closed ^ 1 << u for u in range(g.n, g.n + s)])


def without(g: Graph, v: int) -> Graph:
    return induced_subgraph(g, (u for u in range(g.n) if u != v))[0]


def deletable(g: Graph) -> list[int]:
    """The vertices of the in-class graph g whose deletion keeps it in
    class: the prefix, W, and every vertex whose twin class has another
    member."""
    rep = recognize(g)
    twins = [v for ids in rep.class_ids if len(ids) > 1 for v in ids]
    return [*rep.prefix.order, *rep.universal_w, *twins]


@pytest.mark.parametrize("make", [gen_special, gen_saucer, gen_tent])
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_relations(make, data):
    g = data.draw(generated_graphs(make))
    seed = data.draw(st.integers(0, 2**32 - 1))
    got = outputs(g)
    assert outputs(relabeled(g, seed)) == got
    v, s = data.draw(st.integers(0, g.n - 1)), data.draw(st.integers(1, 3))
    fat = outputs(with_twins(g, v, s))
    assert {key: fat[key] for key in KEPT} == {key: got[key] for key in KEPT}
    if got["kind"] == "not-in-class":
        return
    assert got["colors"] <= fat["colors"] <= got["colors"] + s
    if candidates := deletable(g):
        thin = outputs(without(g, data.draw(st.sampled_from(candidates))))
        assert thin["kind"] != "not-in-class"
        assert got["colors"] - 1 <= thin["colors"] <= got["colors"]
    for extra in (1, 2):  # one universal vertex, then a second one
        g = with_universal_vertex(g)
        up = outputs(g)
        assert up["kind"] == got["kind"]
        assert up["w"] == got["w"] + extra
        assert up["colors"] == got["colors"] + extra
