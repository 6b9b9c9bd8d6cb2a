"""Work bounds in row reads for the universal strip, the twin quotient, the
attachment classifier and the partition verifiers.  A row read costs Θ(n/64) machine words, so a
bound stated in row reads is a bound on time that timing noise cannot hide;
a step that turned quadratic would read rows once per pair, not once per
vertex.  The clique-width expression walkers are bounded in node-rule
checks: one per node."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentaseven import cwd, expr
from pentaseven.catalog import T0_LABELS, catalog_entry
from pentaseven.core import Graph, build_graph
from pentaseven.decompose import (
    expand_thickening,
    simplicial_prefix,
    strip_universals,
    twin_classes,
)
from pentaseven.generate import GenParams, gen_saucer, gen_tent, mutate
from pentaseven.recognize import (
    _C7,
    _T0,
    BuildFailure,
    _attachment_classes,
    recognize,
    verify_saucer_partition,
    verify_tent_partition,
)

from conftest import counting_copy, random_graphs

STEPS = [strip_universals, twin_classes]


def assert_one_read_per_vertex(g, within):
    for step in STEPS:
        h, rows = counting_copy(g)
        step(h, within)
        assert rows.reads <= within.bit_count(), step.__name__


@given(random_graphs(max_n=30), st.data())
@settings(max_examples=100, deadline=None)
def test_strip_steps_read_each_row_of_within_once(g, data):
    assert_one_read_per_vertex(g, data.draw(st.integers(0, g.full_mask)))


def thickening(name, n, universals):
    """The catalog graph name with its vertices thickened into cliques of
    about n vertices in all, under a clique of universal vertices."""
    base = catalog_entry(name).graph
    sizes = [n // base.n + v % 3 for v in range(base.n)]
    g, _ = expand_thickening(base, sizes)
    rows = [r | ((1 << universals) - 1) << g.n for r in g.rows]
    full = (1 << g.n + universals) - 1
    rows += [full ^ 1 << v for v in range(g.n, g.n + universals)]
    return Graph.from_rows(rows)


@pytest.mark.parametrize("name, n", [("M0", 2000), ("T1", 2000), ("M0", 200)])
def test_strip_steps_on_thickenings(name, n):
    g = thickening(name, n, universals=20)
    assert_one_read_per_vertex(g, g.full_mask)


@pytest.mark.parametrize("make", [gen_saucer, gen_tent])
def test_strip_steps_on_the_remainder_of_a_long_prefix(make):
    g, _ = make(GenParams(seed=1, max_class_size=40, a_components=(30, 30),
                          z_components=(30, 30), max_component_size=20))
    assert_one_read_per_vertex(g, simplicial_prefix(g).remainder_mask)


@pytest.mark.parametrize("n", [1, 300])
def test_strip_steps_on_adversaries(n):
    # K_n: every vertex universal and all one twin class; the edgeless
    # graph and the path: no universal vertex and every class a singleton
    complete = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    path = build_graph(n, [(v, v + 1) for v in range(n - 1)])
    for g in (complete, build_graph(n, []), path):
        assert_one_read_per_vertex(g, g.full_mask)


def saucer_hole(part):
    return _C7, [min(x) for x in part.special.x]


def tent_t0(part):
    return _T0, [min(getattr(part, lab)) for lab in T0_LABELS]


@pytest.mark.parametrize("make, anchor_of", [(gen_saucer, saucer_hole),
                                             (gen_tent, tent_t0)])
@pytest.mark.parametrize("seed", range(4))
def test_attachment_classes_reads_one_row_per_anchor_host(make, anchor_of, seed):
    g, part = make(GenParams(seed=seed, max_class_size=60, a_components=(0, 20),
                             z_components=(0, 20), max_component_size=10))
    anchor, hosts = anchor_of(part)
    # the mutant keeps the hosts; a flip that breaks the build still pays
    # for the hosts' rows only
    for h, in_class in ((g, True), (mutate(g, seed), False)):
        h, rows = counting_copy(h)
        got = _attachment_classes(h, anchor, hosts)
        assert rows.reads == len(hosts)
        if in_class:
            assert not isinstance(got, BuildFailure)


@pytest.mark.parametrize("anchor", [_C7, _T0], ids=["C7", "T0"])
def test_attachment_classes_on_the_anchor_alone(anchor):
    g, rows = counting_copy(anchor.graph)
    got = _attachment_classes(g, anchor, list(range(g.n)))
    assert not isinstance(got, BuildFailure) and rows.reads == g.n


def assert_verification_reads_at_most_two_rows_per_vertex(g, part):
    # a passing verification reads each row of the pendant set (A or Z) once,
    # its nested chain being its clique certificate, and every other row at
    # most twice (a set's rows once, the Y order once more): at most 2n - |P|
    # rows, so at most 2n, and one more pass over P breaks the bound
    label, _ = part.pendant
    verify = verify_tent_partition if label == "Z" else verify_saucer_partition
    h, rows = counting_copy(g)
    assert verify(h, part) == []
    reads, pendant = rows.reads, len(dict(part.named_sets())[label])
    assert reads <= 2 * g.n - pendant, (reads, g.n, pendant)


@pytest.mark.parametrize("make", [gen_saucer, gen_tent])
@pytest.mark.parametrize("seed", range(3))
def test_passing_verification_on_long_pendant_parts(make, seed):
    # the benchmark's pendant graphs: about n / 8 components of up to 20
    # vertices, most of the graph; the generator's partition and the one
    # recognition builds
    g, part = make(GenParams(seed=seed, max_class_size=3, a_components=(50, 50),
                             z_components=(50, 50), max_component_size=20,
                             universal_count=(1, 3)))
    report = recognize(g)
    for p in (part, report.saucer or report.tent):
        assert_verification_reads_at_most_two_rows_per_vertex(g, p)


@pytest.mark.parametrize("name, n", [("M0", 2000), ("T1", 2000), ("M0", 200), ("T0", 200)])
def test_passing_verification_on_thickenings(name, n):
    g = thickening(name, n, universals=20)
    report = recognize(g)
    assert_verification_reads_at_most_two_rows_per_vertex(g, report.saucer or report.tent)


@pytest.mark.parametrize("walk", [expr.width, expr.to_sexpr, expr.eval_expr,
                                  lambda e: list(expr.iter_nodes(e))],
                         ids=["width", "to_sexpr", "eval_expr", "iter_nodes"])
def test_cwd_walkers_check_each_node_once(monkeypatch, walk):
    # a passing expression of about 3 000 nodes: every walker reads the one
    # checked walk, so a walker that checked the rule again, or walked the
    # expression on its own, would make 2 or 0 checks per node
    e = cwd.expr_for_class_graph(thickening("M0", 750, universals=10))
    size = sum(1 for _ in expr.iter_nodes(e))
    assert size > 3000
    rule_break, calls = expr._rule_break, []

    def counting(node):
        calls.append(node)
        return rule_break(node)

    monkeypatch.setattr(expr, "_rule_break", counting)
    walk(e)
    assert len(calls) == size
