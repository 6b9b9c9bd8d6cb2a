"""Work bounds in row reads for the universal strip, the twin quotient, the
attachment classifier and the partition verifiers.  A row read costs Θ(n/64) machine words, so a
bound stated in row reads is a bound on time that timing noise cannot hide;
a step that turned quadratic would read rows once per pair, not once per
vertex.  The clique-width expression walkers, and a whole `cwd` op, are
bounded in node-rule checks: one per node.  The weighted colorer's work is
bounded in mask walks, which do not grow with the weights, and in LP
solves.  Building a graph from pairs, by `build_graph` or by either text
reader, reads valid pairs once, and a bad pair costs exactly one more read
to name it, whichever of the fold's two loops runs; the loop a
benchmark-like graph takes is pinned."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentaseven import cli, color, core, cwd, expr
from pentaseven.catalog import T0_LABELS, catalog_entry
from pentaseven.color import WeightedInstance, solve_weighted
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

from conftest import (
    counting_copy,
    dedup_family_index,
    fold_loops,
    random_graphs,
    recorded_lp_solves,
)

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


def counted_rule_checks(monkeypatch) -> list:
    """The nodes passed to expr._rule_break from now on, in call order."""
    rule_break, calls = expr._rule_break, []

    def counting(node):
        calls.append(node)
        return rule_break(node)

    monkeypatch.setattr(expr, "_rule_break", counting)
    return calls


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
    calls = counted_rule_checks(monkeypatch)
    walk(e)
    assert len(calls) == size


def test_walkers_handed_the_walk_check_nothing(monkeypatch):
    w = expr.walk(cwd.expr_for_class_graph(thickening("M0", 200, universals=3)))
    calls = counted_rule_checks(monkeypatch)
    for walk in (expr.width, expr.to_sexpr, expr.eval_to_graph, expr.iter_nodes):
        walk(w)
    assert calls == []


def test_a_cwd_op_checks_each_node_once(monkeypatch, tmp_path, capsys):
    # cli reads the width, the text and the evaluation from one checked
    # walk: one node-rule check per node, where a reader that walked the
    # expression again would add one per node
    g = thickening("M0", 750, universals=10)
    path = tmp_path / "m0.json"
    path.write_text(json.dumps(cli.graph_to_edge_json(g)))
    size = sum(1 for _ in expr.iter_nodes(cwd.expr_for_class_graph(g)))
    calls = counted_rule_checks(monkeypatch)
    assert cli.main(["cwd", "--jobs", "1", str(path)]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["evaluates_to_input"] is True
    assert size > 3000 and len(calls) == size


@pytest.mark.parametrize("name", ["M0", "T1", "M1"])
def test_weighted_colorer_walks_do_not_grow_with_the_weights(monkeypatch, name):
    # w, 10w and 1000w: the LP scales with the weights and its primal is
    # integral here, so its rounded base covers every scale with the same
    # (set, times) pairs, each walked once for the residual and once for the
    # assignment; a walk per color would make about k + 6 (20 006 on M0 at
    # 1000w)
    q = catalog_entry(name).graph
    bits, walks = color.bits, []

    def counting(mask):
        walks.append(mask)
        return bits(mask)

    monkeypatch.setattr(color, "bits", counting)
    counts = []
    for scale in (1, 10, 1000):
        weights = tuple(scale * (1 + v % 5) for v in range(q.n))
        walks.clear()
        solve_weighted(WeightedInstance(q, weights))
        counts.append(len(walks))
    assert counts[0] == counts[1] == counts[2] <= 2 * q.n, counts


def test_weighted_colorer_solves_at_most_one_lp_per_set_per_color(monkeypatch, rng):
    # the root LP, then per peeled color at most one LP per maximal
    # independent set, and at most n colors are peeled: a peel that
    # searched, or that solved an LP per candidate more than once, would
    # break 2 + n * |sets|; most weightings take the root LP alone, not all
    solves = recorded_lp_solves(monkeypatch)
    most = 0
    for entry in dedup_family_index():
        q = entry.graph
        for _ in range(5):
            base = [int(w) for w in rng.integers(1, 4, q.n)]
            for scale in (1, 10, 1000):
                solves.clear()
                solve_weighted(WeightedInstance(q, tuple(scale * w for w in base)))
                assert len(solves) <= 2 + q.n * len(solves[0][0]), (entry.name, base, scale)
                most = max(most, len(solves))
    assert most > 1


class CountingList(list):
    """A list that counts how often it is iterated."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def counted_rereads(monkeypatch) -> list:
    """The vertex counts passed to core._bad_pair_error from now on."""
    bad_pair_error, calls = core._bad_pair_error, []

    def counting(n, edges):
        calls.append(n)
        return bad_pair_error(n, edges)

    monkeypatch.setattr(core, "_bad_pair_error", counting)
    return calls


def counted_json_pairs(monkeypatch) -> list:
    """The pair lists json.loads gives cli from now on, as CountingLists."""
    loads, lists = json.loads, []

    def counting(text):
        data = loads(text)
        lists.append(CountingList(data["edges"]))
        data["edges"] = lists[-1]
        return data

    monkeypatch.setattr(cli.json, "loads", counting)
    return lists


def counted_folds(monkeypatch, wrap=lambda edges: edges) -> list:
    """The checked flag of each fold cli makes from now on; wrap replaces
    the pairs each fold is given."""
    fold, checks = cli._fold, []

    def counting(n, edges, checked):
        checks.append(checked)
        return fold(n, wrap(edges), checked)

    monkeypatch.setattr(cli, "_fold", counting)
    return checks


LOAD_GRAPH = thickening("M0", 200, universals=3)
# the benchmark's pendant graphs: about n / 8 components of up to 20 vertices
PENDANT_SAUCER, _ = gen_saucer(GenParams(seed=0, max_class_size=3, a_components=(32, 32),
                                         z_components=(32, 32), max_component_size=20,
                                         universal_count=(1, 3)))
DESK_SAUCER, _ = gen_saucer(GenParams(seed=2, max_class_size=2, a_components=(0, 3),
                                      z_components=(0, 3), max_component_size=3))


# the cell loop costs n^2 bytes, and is taken only by unchecked lists of at
# least n(n + 64)/8 pairs: the dense thickenings, not the sparse pendant
# graphs nor a small desk graph of middling density
@pytest.mark.parametrize("g, loop", [(LOAD_GRAPH, "cell"), (PENDANT_SAUCER, "row"),
                                     (DESK_SAUCER, "row")],
                         ids=["thickening-207", "pendant-saucer-350", "desk-saucer-24"])
def test_benchmark_shapes_take_their_loop(g, loop):
    with fold_loops() as loops:
        assert cli.parse_edge_json(json.dumps(cli.graph_to_edge_json(g))) == g
        assert build_graph(g.n, g.edges()) == g
    assert loops == [loop, "row"]


def test_build_graph_reads_valid_pairs_once(monkeypatch):
    rereads = counted_rereads(monkeypatch)
    pairs = CountingList(LOAD_GRAPH.edges())
    assert build_graph(LOAD_GRAPH.n, pairs) == LOAD_GRAPH
    assert pairs.reads == 1 and rereads == []


# a text that lacks one letter of true and one of false is folded without
# the type test; one that may hold either, with it
@pytest.mark.parametrize("extra, checked", [("", False),
                                            (', "format": "t"', False),
                                            (', "directed": false', True),
                                            (', "true": 1', True)])
def test_edge_json_reads_valid_pairs_once(monkeypatch, extra, checked):
    text = json.dumps(cli.graph_to_edge_json(LOAD_GRAPH))[:-1] + extra + "}"
    rereads, lists = counted_rereads(monkeypatch), counted_json_pairs(monkeypatch)
    folds = counted_folds(monkeypatch)
    with fold_loops() as loops:
        assert cli.parse_edge_json(text) == LOAD_GRAPH
    assert [edges.reads for edges in lists] == [1] and rereads == []
    assert folds == [checked] and loops == ["row" if checked else "cell"]


def test_dimacs_reads_valid_pairs_once(monkeypatch):
    g = LOAD_GRAPH
    text = "\n".join([f"p edge {g.n} {g.num_edges}",
                      *(f"e {u + 1} {v + 1}" for u, v in g.edges())])
    rereads, lists = counted_rereads(monkeypatch), []

    def counting(edges):
        lists.append(CountingList(edges))
        return lists[-1]

    folds = counted_folds(monkeypatch, wrap=counting)
    with fold_loops() as loops:
        assert cli.parse_dimacs(text) == g
    assert [edges.reads for edges in lists] == [1] and rereads == []
    assert folds == [False] and loops == ["cell"]


# the text holding true is checked and takes the row loop; every other one
# takes the cell loop
@pytest.mark.parametrize("bad, loop", [([0, 1000], "cell"), ([5, 5], "cell"),
                                       ([0, True], "row"), ([0, "1"], "cell"),
                                       ([-LOAD_GRAPH.n - 1, 0], "cell"),
                                       ([0, LOAD_GRAPH.n], "cell"), ([0, 1.5], "cell")],
                         ids=["range", "loop", "bool", "string", "wraps", "n", "float"])
def test_a_bad_pair_costs_one_reread(monkeypatch, bad, loop):
    pairs = LOAD_GRAPH.edges()
    pairs.insert(len(pairs) // 2, bad)
    rereads = counted_rereads(monkeypatch)
    counted = CountingList(pairs)
    with fold_loops() as loops, pytest.raises(ValueError):
        build_graph(LOAD_GRAPH.n, counted)
    assert counted.reads == 2 and rereads == [LOAD_GRAPH.n] and loops == ["row"]
    rereads.clear()
    lists = counted_json_pairs(monkeypatch)
    with fold_loops() as loops, pytest.raises(cli.InputError):
        cli.parse_edge_json(json.dumps({"n": LOAD_GRAPH.n, "edges": pairs}))
    assert [edges.reads for edges in lists] == [2] and rereads == [LOAD_GRAPH.n]
    assert loops == [loop]
