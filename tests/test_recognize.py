import hashlib
import re
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentaseven import oracle, structure
from pentaseven.catalog import catalog_entry, pattern
from pentaseven.core import Graph, _mask_of, bits_of, build_graph
from pentaseven.generate import GenParams, gen_saucer, gen_special, gen_tent, mutate
from pentaseven.oracle import class_verdict, clique_cutset_bf
from pentaseven.recognize import (
    IN_CLASS_C7,
    IN_CLASS_T0,
    NOT_IN_CLASS,
    T0_LABELS,
    Attachment,
    BuildFailure,
    _clique_components_ordered,
    build_saucer_from_hole,
    build_tent_from_T0,
    classify_vs_C7,
    classify_vs_T0,
    recognize,
    validate_hole,
    validate_t0_embedding,
)
from pentaseven.structure import (
    SaucerPartition,
    SpecialPartition,
    TentPartition,
    Violation,
    verify_saucer_partition,
    verify_special_partition,
    verify_tent_partition,
    yz_outcome,
)

from conftest import dedup_family_index, is_clique, random_graphs


def t0_host_map():
    t0 = pattern("T0")
    return {lab: t0.by_label[lab] for lab in T0_LABELS}


class TestClassifyC7:
    def test_m1_y0_is_y_type(self):
        m1 = catalog_entry("M1")
        lab = m1.by_label
        hole = [lab[f"x{i}"] for i in range(7)]
        got = classify_vs_C7(m1.graph, hole, lab["y0"])
        assert got == Attachment("y", 0)

    def test_isolated_vertex_anticomplete(self):
        g = build_graph(8, [(i, (i + 1) % 7) for i in range(7)])
        got = classify_vs_C7(g, list(range(7)), 7)
        assert got == Attachment("anticomplete")

    def test_single_neighbor_is_violation(self):
        g = build_graph(8, [(i, (i + 1) % 7) for i in range(7)] + [(7, 0)])
        got = classify_vs_C7(g, list(range(7)), 7)
        assert isinstance(got, Violation)

    def test_bad_hole_rejected(self):
        g = pattern("T1").graph
        with pytest.raises(ValueError):
            classify_vs_C7(g, list(range(7)), 8)

    @pytest.mark.parametrize("v", [-1, 8, np.int64(7), 7.0])
    def test_vertex_out_of_range_rejected(self, v):
        # vertex 7 meets x0, x1, x2, so neither -1 nor a 7 that is not a
        # plain int may read as 7 (an X1 clone)
        g = build_graph(8, [(i, (i + 1) % 7) for i in range(7)]
                        + [(7, 0), (7, 1), (7, 2)])
        with pytest.raises(ValueError, match="out of range"):
            classify_vs_C7(g, list(range(7)), v)


class TestClassifyT0:
    def test_f3_of_t1(self):
        t1 = pattern("T1")
        host = {lab: t1.by_label[lab] for lab in T0_LABELS}
        got = classify_vs_T0(t1.graph, host, t1.by_label["f3"])
        assert got == Attachment("f", 3)

    def test_anticomplete_bucket(self):
        t0 = pattern("T0").graph
        adj = np.zeros((10, 10), dtype=bool)
        adj[:9, :9] = t0.adj
        g = Graph(adj)
        got = classify_vs_T0(g, t0_host_map(), 9)
        assert got == Attachment("anticomplete")

    def test_invalid_embedding_rejected(self):
        g = pattern("T1").graph
        bad = dict(t0_host_map())
        bad["a0"], bad["c1"] = bad["c1"], bad["a0"]  # breaks the a0-a1 edge
        with pytest.raises(ValueError):
            classify_vs_T0(g, bad, 9)

    @pytest.mark.parametrize("x", [-1, 10])
    def test_vertex_out_of_range_rejected(self, x):
        # -1 must not read as vertex 9, T1's f3
        with pytest.raises(ValueError, match="out of range"):
            classify_vs_T0(pattern("T1").graph, t0_host_map(), x)


_C7_PLUS = build_graph(8, [(i, (i + 1) % 7) for i in range(7)])  # 7 isolated


def _t0_with(**changes):
    """The identity map of T0 into T1 (whose f3 is vertex 9), changed; a None
    value drops its label."""
    t = {**t0_host_map(), **changes}
    return {lab: v for lab, v in t.items() if v is not None}


@pytest.mark.parametrize("validate, g, anchor, message", [
    (validate_hole, _C7_PLUS, [0, 1, 2, 3, 4, 5], "distinct"),
    (validate_hole, _C7_PLUS, [0, 1, 2, 3, 4, 5, 6, 7], "distinct"),
    (validate_hole, _C7_PLUS, [0, 1, 2, 3, 4, 5, 5], "distinct"),
    (validate_hole, _C7_PLUS, [0, 1, 2, 3, 4, 5, 8], "out of range"),
    (validate_hole, _C7_PLUS, [0, 1, 2, 3, 4, 5, -1], "out of range"),
    (validate_hole, _C7_PLUS, [0, 1, 2, 3, 4, 6, 5], "do not induce"),
    (validate_hole, _C7_PLUS, [0, 1, 2, 3, 4, 5, 6.5], "integers"),
    (validate_hole, _C7_PLUS, [0, 1, 2, 3, 4, 5, np.int64(6)], "integers"),
    (validate_hole, _C7_PLUS, [0, True, 2, 3, 4, 5, 6], "integers"),
    (validate_t0_embedding, pattern("T1").graph, _t0_with(c3=None), "labels"),
    (validate_t0_embedding, pattern("T1").graph, _t0_with(f3=9), "labels"),
    (validate_t0_embedding, pattern("T1").graph, _t0_with(c3=None, c4=8), "labels"),
    (validate_t0_embedding, pattern("T1").graph, _t0_with(c3=7), "distinct"),
    (validate_t0_embedding, pattern("T1").graph, _t0_with(c3=10), "out of range"),
    (validate_t0_embedding, pattern("T1").graph, _t0_with(c3=-1), "out of range"),
    (validate_t0_embedding, pattern("T1").graph, _t0_with(c3=9), "do not induce"),
    (validate_t0_embedding, pattern("T1").graph, _t0_with(c3=8.0), "integers"),
    (validate_t0_embedding, pattern("T1").graph, _t0_with(c3=np.int64(8)), "integers"),
    (validate_t0_embedding, pattern("T1").graph, _t0_with(a1=True), "integers"),
], ids=[
    "c7-six", "c7-eight", "c7-repeat", "c7-high", "c7-negative", "c7-not-induced",
    "c7-float", "c7-numpy", "c7-bool", "t0-eight-labels", "t0-ten-labels",
    "t0-wrong-label", "t0-repeat", "t0-high", "t0-negative", "t0-not-induced",
    "t0-float", "t0-numpy", "t0-bool",
])
def test_anchor_validators_reject(validate, g, anchor, message):
    with pytest.raises(ValueError, match=message):
        validate(g, anchor)


class TestVerifySpecial:
    def c7_partition(self):
        empty = tuple(frozenset() for _ in range(7))
        return SpecialPartition(
            x=tuple(frozenset({i}) for i in range(7)),
            y=empty,
            z=empty,
            w=frozenset(),
        )

    def test_c7_clean(self):
        assert verify_special_partition(pattern("C7").graph, self.c7_partition()) == []

    def test_m0_singletons_clean(self):
        m0 = catalog_entry("M0")
        lab = m0.by_label
        xs = tuple(frozenset({lab[f"x{i}"]}) for i in range(7))
        ys = tuple(
            frozenset({lab[f"y{i}"]}) if f"y{i}" in lab else frozenset()
            for i in range(7)
        )
        zs = tuple(
            frozenset({lab[f"z{i}"]}) if f"z{i}" in lab else frozenset()
            for i in range(7)
        )
        p = SpecialPartition(x=xs, y=ys, z=zs, w=frozenset())
        assert verify_special_partition(m0.graph, p) == []

    def test_added_chord_violates_b(self):
        g = build_graph(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 2)])
        violations = verify_special_partition(g, self.c7_partition())
        assert any(v.clause == "anticomplete" for v in violations)

    def test_non_partition_rejected(self):
        with pytest.raises(ValueError):
            verify_special_partition(pattern("C6").graph, self.c7_partition())


class TestVerifyStructures:
    def test_generated_saucer_clean(self):
        g, part = gen_saucer(GenParams(seed=11, max_class_size=3, a_components=(1, 2)))
        assert verify_saucer_partition(g, part) == []

    def test_generated_tent_clean(self):
        g, part = gen_tent(GenParams(seed=11, max_class_size=3, z_components=(1, 2)))
        assert verify_tent_partition(g, part) == []

    def test_clean_verification_scans_no_set(self, monkeypatch):
        # each clause is decided on set rows; a per-vertex scan (bits_of)
        # runs only to name the witness of a failed clause
        scans = []
        monkeypatch.setattr(structure, "bits_of", lambda m: scans.append(m) or bits_of(m))
        for seed in range(6):
            params = GenParams(seed=seed, max_class_size=3, p_nonempty=1.0,
                               a_components=(2, 3), z_components=(2, 3))
            for gen, verify in ((gen_saucer, verify_saucer_partition),
                                (gen_tent, verify_tent_partition)):
                g, part = gen(params)
                assert verify(g, part) == []
        assert scans == []

    def test_tent_with_both_f2_f3_rejected(self):
        g, part = gen_tent(GenParams(seed=0, max_class_size=1))
        # graft a fake F2 label onto a W vertex (or vice versa) to break the
        # "at most one nonempty" clause structurally
        g2, part2 = gen_tent(
            GenParams(seed=4, p_nonempty=1.0, universal_count=(1, 1))
        )
        if part2.f2 or part2.f3:
            broken = part2._replace(
                f2=part2.f2 | part2.w if part2.f3 else part2.f2,
                f3=part2.f3 | part2.w if part2.f2 else part2.f3,
                w=frozenset(),
            )
            violations = verify_tent_partition(g2, broken)
            assert violations

    def test_tent_y_not_complete_to_c2_rejected(self):
        for seed in range(40):
            g, part = gen_tent(GenParams(seed=seed, p_nonempty=1.0))
            if not part.y:
                continue
            y0 = min(part.y)
            c2 = min(part.c2)
            adj = g.adj.copy()
            adj[y0, c2] = adj[c2, y0] = False
            violations = verify_tent_partition(Graph(adj), part)
            assert any(
                v.clause == "complete" and "Y" in v.detail for v in violations
            )
            return
        raise AssertionError("no tent with nonempty Y generated")


# members that are not vertices: one past the last vertex, negative, not an
# int, and a bool
NON_VERTICES = {"past-n": None, "negative": -1, "str": "x", "bool": True,
                "numpy": np.int64(1)}


def _swapped(g, part, a, b):
    """g and part with vertices a and b exchanged."""
    def move(x):
        if isinstance(x, int):
            return b if x == a else a if x == b else x
        if isinstance(x, frozenset):
            return frozenset(map(move, x))
        return type(x)(*map(move, x)) if hasattr(x, "_fields") else tuple(map(move, x))
    return build_graph(g.n, [(move(u), move(v)) for u, v in g.edges()]), move(part)


@pytest.mark.parametrize("bad", sorted(NON_VERTICES))
@pytest.mark.parametrize("where", ["A-component", "W", "Z-component"])
def test_verifiers_reject_members_that_are_not_vertices(where, bad):
    if where == "Z-component":
        g, part = gen_tent(GenParams(seed=3, z_components=(1, 2)))
        verify = verify_tent_partition
    else:
        g, part = gen_saucer(GenParams(seed=3, a_components=(1, 2)))
        verify = verify_saucer_partition
    field = "a_components" if where == "A-component" else "z_components"

    def members(p):
        return p.special.w if where == "W" else getattr(p, field)[0]

    if bad in ("bool", "numpy"):  # vertex 1 as True or np.int64(1), swapped
        g, part = _swapped(g, part, 1, min(members(part)))  # into the set first
        s = members(part)
        bad_set = type(s)(NON_VERTICES[bad] if u == 1 else u for u in s)
        assert len(bad_set) == len(s)
    else:
        v = NON_VERTICES[bad] if bad != "past-n" else g.n
        bad_set = part.special.w | {v} if where == "W" else (*members(part), v)
    assert verify(g, part) == []
    if where == "W":
        broken = part._replace(special=part.special._replace(w=bad_set))
        name = "7-saucer partition: set W"
    else:
        broken = part._replace(**{field: (bad_set,) + getattr(part, field)[1:]})
        name = f"{where} 0"
    with pytest.raises(ValueError, match=f"^{name} has a member that is not a vertex$"):
        verify(g, broken)


@pytest.mark.parametrize("twin", [True, np.int64(1)])
def test_tent_y_order_of_non_vertices_is_a_violation(twin):
    g, part = gen_tent(GenParams(seed=1))  # Y is 18, 19, 20
    g, part = _swapped(g, part, 1, part.y_order[0])
    assert verify_tent_partition(g, part) == []
    y_order = tuple(twin if u == 1 else u for u in part.y_order)
    got = verify_tent_partition(g, part._replace(y_order=y_order))
    assert [v.clause for v in got] == ["y-order"]


# ---------------------------------------------------------------------------
# the clause tables

TABLES = {"special": structure.SPECIAL_TABLE, "saucer": structure.SAUCER_TABLE,
          "tent": structure.TENT_TABLE}
PAIR_KINDS = ("complete", "anticomplete")


@pytest.mark.parametrize("name", sorted(TABLES))
def test_clause_table_names_each_set_and_each_pair_once(name):
    gen = {"special": gen_special, "saucer": gen_saucer, "tent": gen_tent}[name]
    _, part = gen(GenParams(seed=1))
    table = TABLES[name]
    named = {s for s, _ in part.named_sets()}
    assert {s for _, _, names in table for s in names} == named
    assert len(set(table)) == len(table)
    assert {kind for _, kind, _ in table} <= {
        "clique", "nonempty", "exclusive", "at-most-one", "guarded-anticomplete",
        *PAIR_KINDS}
    # a pair is named in one order only, or in both orders with one kind: the
    # special definition states the Y-Y and Z-Z clauses from both sides
    kinds: dict[frozenset, set[str]] = {}
    for _, kind, names in table:
        if kind in PAIR_KINDS:
            assert names[0] != names[1]
            kinds.setdefault(frozenset(names), set()).add(kind)
    assert all(len(k) == 1 for k in kinds.values())


def _built(pairs, isolated=()):
    """A graph with one vertex per label, numbered in order of first mention,
    the label pairs as its edges, and its partition: label l lies in set
    l.upper() less any trailing prime.  A label x1 makes a saucer partition,
    any other a tent partition; each pendant vertex (a, or z) is its own
    component, and the Y order is Y's vertices in label order."""
    labels = [lab for pair in pairs for lab in pair] + list(isolated)
    labels = list(dict.fromkeys(labels))
    at = {lab: k for k, lab in enumerate(labels)}
    g = build_graph(len(labels), [(at[u], at[v]) for u, v in pairs])
    sets: dict[str, tuple[int, ...]] = {}
    for lab in labels:
        name = lab.rstrip("'").upper()
        sets[name] = sets.get(name, ()) + (at[lab],)

    def get(name):
        return frozenset(sets.get(name, ()))

    if "X1" in sets:
        special = SpecialPartition(*(tuple(get(f"{s}{i}") for i in range(7))
                                     for s in "XYZ"), get("W"))
        comps = tuple((v,) for v in sets.get("A", ()))
        return g, SaucerPartition(special, get("A"), comps)
    return g, TentPartition(**{name.lower(): get(name) for name in structure._TENT_NAMES},
                            y_order=sets.get("Y", ()),
                            z_components=tuple((v,) for v in sets.get("Z", ())))


def _thickened(edges, pendant: str):
    """The graph of the label pairs edges with each vertex doubled into two
    adjacent twins, a W of two vertices complete to them, and one isolated
    pendant vertex."""
    labels = list(dict.fromkeys(lab for pair in edges for lab in pair))
    twins = [lab + p for lab in labels for p in ("", "'")]
    pairs = [(lab, lab + "'") for lab in labels + ["w"]]
    pairs += [(u + p, v + q) for u, v in edges for p in ("", "'") for q in ("", "'")]
    pairs += [(w, v) for w in ("w", "w'") for v in twins]
    return _built(pairs, isolated=[pendant])


def _joined(v: str, nbrs: str) -> list:
    return [(v, u) for u in nbrs.split()]


HOLE = [(f"x{i}", f"x{(i + 1) % 7}") for i in range(7)]
T0_EDGES = [tuple(e.split("-")) for e in (
    "a0-a1 a0-b0 a0-b2 a0-b3 a1-b1 a1-b2 a1-b3 c1-c2 c1-c3 c2-c3 "
    "b0-c1 b1-c1 b2-c2 b3-c3").split()]
Y0 = _joined("y0", "x0 x1 x4")

# partitions that each violate one row, named by its (clause, detail), which
# no other input of the mutation test violates alone
HAND_BUILT = {
    ("(a)", "X0 is empty"): _built(HOLE[1:6]),
    ("(d)", "Y0 nonempty but Z5 nonempty"):
        _built(HOLE + Y0 + _joined("z5", "x5 x6 x0 x1 x2")),
    ("(d)", "Y0 nonempty but Z6 nonempty"):
        _built(HOLE + Y0 + _joined("z6", "x6 x0 x1 x2 x3")),
    ("F2F3Y", "more than one of F2, F3, Y is nonempty"):
        _built(T0_EDGES + _joined("f2", "a0 a1 b0 b1 b3 c1 c3")
               + _joined("f3", "a0 a1 b0 b1 b2 c1 c2")),
} | {  # T0 without one core vertex
    ("core-nonempty", f"{lab.upper()} is empty"):
        _built([e for e in T0_EDGES if lab not in e])
    for lab in T0_LABELS
}


@pytest.mark.parametrize("want", sorted(HAND_BUILT))
def test_hand_built_partition_violates_one_row(want):
    g, part = HAND_BUILT[want]
    verify = (verify_saucer_partition if isinstance(part, SaucerPartition)
              else verify_tent_partition)
    assert [(v.clause, v.detail) for v in verify(g, part)] == [want]


def _flipped(row):
    label, kind, names = row
    other = PAIR_KINDS[kind == "complete"]
    return other, other, names


def _turned(row, r):
    """row with every X, Y and Z index moved up by r, mod 7."""
    label, kind, names = row
    return label, kind, tuple(
        s if s in ("A", "W") else f"{s[0]}{(int(s[1]) + r) % 7}" for s in names
    )


def _implied(table, row) -> bool:
    """Whether other clauses imply row: a row on the same sets named in the
    other order, or, for an exclusive row, one on a subset of its sets.  The
    tent's clique row on Y is implied by the Y order, whose consecutive
    members are adjacent."""
    label, kind, names = row
    if table is structure.TENT_TABLE and row == ("clique", "clique", ("Y",)):
        return True
    return any(
        olabel == label and okind == kind and onames != names
        and (onames == names[::-1] or kind == "exclusive" and set(onames) < set(names))
        for olabel, okind, onames in table
    )


def _with_pair_flips(g, part):
    """g, and g with one pair flipped for each pair of nonempty named sets,
    at their lowest and at their highest vertices, and inside each set of
    two or more.  An edge the first vertex of a nested order gains, or the
    last one loses, keeps the order nested."""
    sets = [sorted(s) for _, s in part.named_sets() if s]
    yield g, part
    for i, a in enumerate(sets):
        if len(a) > 1:
            yield _flip(g, [a[-2:]]), part
        for b in sets[i + 1 :]:
            for pair in {(a[0], b[0]), (a[-1], b[-1])}:
                yield _flip(g, [pair]), part


def _mutation_inputs():
    for entry in dedup_family_index():
        labels = entry.labels
        edges = [(labels[u], labels[v]) for u, v in entry.graph.edges()]
        pendant = "a" if "x1" in labels.values() else "z"
        yield from _with_pair_flips(*_thickened(edges, pendant))
    for extra in (_joined("f2", "a0 a1 b0 b1 b3 c1 c3"), _joined("y", "c2 c3")):
        yield from _with_pair_flips(*_thickened(T0_EDGES + extra, "z"))
    for seed in range(6):
        params = GenParams(seed=seed, a_components=(1, 2), z_components=(1, 2))
        yield from _with_pair_flips(*gen_saucer(params))
        yield from _with_pair_flips(*gen_tent(params))
    yield from HAND_BUILT.values()


@pytest.mark.parametrize("name", ["special", "saucer"])
def test_clause_tables_turn_into_themselves(name):
    # the definitions are invariant under moving every index up by one
    table = TABLES[name]
    assert sorted(_turned(row, 1) for row in table) == sorted(table)


# the inputs' verdicts (1: refused) in order, hashed: every mutant table
# changes one of them
MUTATION_VERDICTS = "f789afd735f4f552ee4aa34babe95ba192ce7aa58a3ff9a87b7b764f5bb0de88"


def test_every_clause_row_mutation_changes_some_verdict():
    # A mutant table drops one row, or flips one complete row to anticomplete
    # or back; some input must change its verdict, clean or not, under it.
    # Only an input with at most one violation can, so each such input is
    # decided in one pass of the rows.  A clique or pair row naming an empty
    # set holds, flipped or not, and is passed over.  The saucer table turns
    # into itself, so what an input detects its turns detect, turned.
    dropped = {"saucer": set(), "tent": set()}
    flipped = {"saucer": set(), "tent": set()}
    verdicts = []
    for g, part in _mutation_inputs():
        name = "saucer" if isinstance(part, SaucerPartition) else "tent"
        verify = verify_saucer_partition if name == "saucer" else verify_tent_partition
        found = verify(g, part)
        verdicts.append("1" if found else "0")
        if len(found) > 1:
            continue
        m = structure._require_partition(g, part.named_sets(), name)
        c = structure._Clauses(g)

        def fails(row):
            before = len(c.out)
            c.run(structure._Table((row,)), m)
            return len(c.out) > before

        for row in TABLES[name]:
            kind = row[1]
            if kind in ("clique",) + PAIR_KINDS and not all(map(m.__getitem__, row[2])):
                continue
            if found and fails(row):  # the one violation: the input detects
                dropped[name].add(row)  # the drop, and the flip if that holds
                if kind in PAIR_KINDS and not fails(_flipped(row)):
                    flipped[name].add(row)
                break
            if not found and kind in PAIR_KINDS and fails(_flipped(row)):
                flipped[name].add(row)
    verdicts = "".join(verdicts)
    assert hashlib.sha256(verdicts.encode()).hexdigest() == MUTATION_VERDICTS
    assert 0 < verdicts.count("0") < len(verdicts)
    for found in (dropped, flipped):
        found["saucer"] = {_turned(row, r) for row in found["saucer"] for r in range(7)}
    for name, table in (("saucer", structure.SAUCER_TABLE), ("tent", structure.TENT_TABLE)):
        drops, flips = dropped[name], flipped[name]
        assert [row for row in table if row[1] in PAIR_KINDS and row not in flips] == []
        assert [row for row in table if (row in drops) == _implied(table, row)] == []


def _with_edge(g, a, b):
    adj = g.adj.copy()
    adj[a, b] = adj[b, a] = True
    return Graph(adj)


# each break takes (g, components) to a broken (g, components) and names the
# clause and detail it must raise; {L} is the pendant set's label
PENDANT_BREAKS = {
    "empty": (lambda g, c: (g, c + ((),)),
              "{l}-components", "empty component listed"),
    "overlap": (lambda g, c: (g, c + (c[0][:1],)),
                "{l}-components", "components overlap"),
    "twice": (lambda g, c: (g, (c[0] + c[0][:1],) + c[1:]),
              "{l}-components", "component lists a vertex twice"),
    "cover": (lambda g, c: (g, c[:-1]),
              "{l}-components", "components do not cover {L} exactly"),
    "clique": (lambda g, c: (g, (c[0] + c[1],) + c[2:]),
               "clique", "{L}-component is not a clique"),
    "anticomplete": (lambda g, c: (_with_edge(g, c[0][0], c[1][0]), c),
                     "anticomplete", "{L}-component not anticomplete to {L}-component"),
}


@pytest.mark.parametrize("label", ["A", "Z"])
@pytest.mark.parametrize("brk", sorted(PENDANT_BREAKS))
def test_pendant_component_clauses(label, brk):
    if label == "A":
        g, part = gen_saucer(GenParams(seed=1, a_components=(2, 2)))
        field, verify = "a_components", verify_saucer_partition
    else:
        g, part = gen_tent(GenParams(seed=1, z_components=(2, 2)))
        field, verify = "z_components", verify_tent_partition
    assert verify(g, part) == []
    mutate, clause, detail = PENDANT_BREAKS[brk]
    g2, comps = mutate(g, getattr(part, field))
    found = verify(g2, part._replace(**{field: comps}))
    want = (clause.format(l=label.lower()), detail.format(L=label))
    assert want in [(v.clause, v.detail) for v in found]


def _first_and_third_apart(built):
    """A generated saucer whose first pendant component of three or more
    vertices has its first and third vertices made nonadjacent: not a
    clique, and its listed order breaks at its first pair."""
    g, part = built
    comp = next(c for c in part.a_components if len(c) >= 3)
    return _flip(g, [(comp[0], comp[2])]), part


def _pairs_cut(built, *pairs):
    """A generated graph with each pair flipped; a pair names a vertex as
    the least member of a set, or as "y", the first of the Y order, or "z",
    the last of the last Z-component."""
    g, part = built
    sets = dict(part.named_sets())

    def vertex(name):
        if name == "y":
            return part.y_order[0]
        if name == "z":
            return part.z_components[-1][-1]
        return min(sets[name])

    return _flip(g, [(vertex(a), vertex(b)) for a, b in pairs]), part


# failing verifications and their violations, as the verifiers reported
# them when each clause was its own test: in table row order, with the same
# witnesses
PINNED_VIOLATIONS = {
    # the clique violation comes before the nested-order one
    "pendant": (
        lambda: _first_and_third_apart(
            gen_saucer(GenParams(seed=2, a_components=(3, 3), max_component_size=4))),
        [Violation("clique", "A-component is not a clique", (26, 28)),
         Violation("nested-order", "A-component: N[27] is not contained in N[26]",
                   (26, 27))],
    ),
    # X0's complete rows are split by X1's in table order
    "saucer": (
        lambda: _pairs_cut(gen_saucer(GenParams(seed=3, p_nonempty=1.0)),
                           ("X0", "X1"), ("X1", "X2"), ("X0", "W")),
        [Violation("complete", "X0 not complete to X1", (0, 3)),
         Violation("complete", "X1 not complete to X2", (3, 4)),
         Violation("complete", "X0 not complete to W", (0, 16))],
    ),
    # Z, the larger side of Z-Y, still names its own vertex first
    "tent": (
        lambda: _pairs_cut(
            gen_tent(GenParams(seed=1, p_nonempty=1.0, z_components=(6, 6),
                               max_component_size=5)),
            ("y", "C2"), ("y", "A0"), ("z", "y")),
        [Violation("complete", "Y not complete to C2", (18, 14)),
         Violation("anticomplete", "Y not anticomplete to A0", (18, 0)),
         Violation("anticomplete", "Z not anticomplete to Y", (40, 18)),
         Violation("nested-order", "Y: N[19] is not contained in N[18]", (18, 19)),
         Violation("nested-order", "Z-component: N[40] is not contained in N[39]",
                   (39, 40))],
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_VIOLATIONS))
def test_failing_verifications_name_pinned_violations(case):
    make, want = PINNED_VIOLATIONS[case]
    g, part = make()
    verify = verify_tent_partition if case == "tent" else verify_saucer_partition
    assert verify(g, part) == want


@given(random_graphs(max_n=12), st.data())
@settings(max_examples=60, deadline=None)
def test_pendant_components_match_all_pairs_scan(g, data):
    # components may overlap, be empty or repeat a vertex; the report must
    # equal a scan that checks every pair, and the per-vertex reference
    # report as a whole
    vertices = st.lists(st.integers(0, g.n - 1), max_size=4)
    comps = tuple(tuple(c) for c in data.draw(st.lists(vertices, max_size=6)))
    union = _mask_of(v for c in comps for v in c)
    got = structure._Clauses(g)
    got.pendant_components("A", comps, union)
    pairs = structure._Clauses(g)
    for i, ca in enumerate(comps):
        for cb in comps[i + 1 :]:
            ref_anticomplete(pairs, "A-component", _mask_of(ca),
                             "A-component", _mask_of(cb))
    assert [v for v in got.out if v.clause == "anticomplete"] == pairs.out
    ref = structure._Clauses(g)
    ref_pendant_components(ref, "A", comps, union)
    assert got.out == ref.out


# ---------------------------------------------------------------------------
# per-vertex references: the clause walker's methods as they were before
# clauses were decided on set masks, each scanning the vertices of its
# left-hand set on open rows, and the table read one row at a time


def ref_clique(self, name, mask):
    rows = self.g.rows
    for v in bits_of(mask):
        missing = mask & ~(1 << v) & ~rows[v]
        if missing:
            self.out.append(Violation("clique", f"{name} is not a clique",
                                      (v, next(iter(bits_of(missing))))))
            return


def ref_complete(self, na, ma, nb, mb):
    if not ma or not mb:
        return
    rows = self.g.rows
    for v in bits_of(ma):
        missing = mb & ~rows[v]
        if missing:
            self.out.append(Violation("complete", f"{na} not complete to {nb}",
                                      (v, next(iter(bits_of(missing))))))
            return


def ref_meets(self, ma, mb):
    rows = self.g.rows
    for v in bits_of(ma):
        hit = mb & rows[v]
        if hit:
            return v, next(iter(bits_of(hit)))
    return None


def ref_anticomplete(self, na, ma, nb, mb):
    if w := ref_meets(self, ma, mb):
        self.out.append(Violation("anticomplete", f"{na} not anticomplete to {nb}", w))


def ref_pendant_components(self, label, comps, union):
    out = self.out
    clause = f"{label.lower()}-components"
    name = f"{label}-component"
    masks = [_mask_of(comp) for comp in comps]
    comp_union = 0
    for comp, cmask in zip(comps, masks):
        if not comp:
            out.append(Violation(clause, "empty component listed"))
            continue
        if cmask & comp_union:
            out.append(Violation(clause, "components overlap"))
        if len(set(comp)) != len(comp):
            out.append(Violation(clause, "component lists a vertex twice"))
        comp_union |= cmask
        ref_clique(self, name, cmask)
        self.nested_chain(name, comp)
    if comp_union != union:
        out.append(Violation(clause, f"components do not cover {label} exactly"))
    for i, ma in enumerate(masks):
        for mb in masks[i + 1 :]:
            ref_anticomplete(self, name, ma, name, mb)


def ref_nested_chain(self, label, ordered):
    g = self.g
    for a, b in zip(ordered, ordered[1:]):
        if g.closed_row(b) & ~g.closed_row(a):
            self.out.append(Violation("nested-order",
                                      f"{label}: N[{b}] is not contained in N[{a}]",
                                      (a, b)))
            return


def ref_run(self, table, m):
    """The clause table read one row at a time, in order."""
    out = self.out
    for label, kind, names in table:
        if kind == "complete" or kind == "anticomplete":
            a, b = names
            check = ref_complete if kind == "complete" else ref_anticomplete
            check(self, a, m[a], b, m[b])
        elif kind == "clique":
            ref_clique(self, names[0], m[names[0]])
        elif kind == "exclusive":
            if all(map(m.__getitem__, names)):
                a, *rest = names
                both = "both " if rest[1:] else ""
                detail = f"{a} nonempty but {both}{','.join(rest)} nonempty"
                out.append(Violation(label, detail))
        elif kind == "nonempty":
            if not m[names[0]]:
                out.append(Violation(label, f"{names[0]} is empty"))
        elif kind == "at-most-one":
            if sum(map(bool, map(m.__getitem__, names))) > 1:
                detail = f"more than one of {', '.join(names)} is nonempty"
                out.append(Violation(label, detail))
        else:  # guarded-anticomplete
            a, b, guard = names
            if m[guard] and (w := ref_meets(self, m[a], m[b])):
                detail = f"{a} has a neighbor in {b} while {guard} is nonempty"
                out.append(Violation(label, detail, w))


@contextmanager
def per_vertex_clauses():
    """Run the verifiers with the row-at-a-time table reader and the
    per-vertex clause methods."""
    with mock.patch.multiple(
        structure._Clauses,
        run=ref_run,
        nested_chain=ref_nested_chain,
        pendant_components=ref_pendant_components,
    ):
        yield


def ref_build_saucer(g, hole):
    hole = validate_hole(g, hole)
    xs = [{h} for h in hole]
    ys = [set() for _ in range(7)]
    zs = [set() for _ in range(7)]
    w, a = set(), set()
    for v in range(g.n):
        if v in hole:
            continue
        got = classify_vs_C7(g, hole, v)
        if isinstance(got, Violation):
            return BuildFailure("hole-attachment", (got,))
        if got.kind == "anticomplete":
            a.add(v)
        elif got.kind == "complete":
            w.add(v)
        else:
            {"x": xs, "y": ys, "z": zs}[got.kind][got.index].add(v)
    part = SaucerPartition(
        special=SpecialPartition(
            x=tuple(map(frozenset, xs)), y=tuple(map(frozenset, ys)),
            z=tuple(map(frozenset, zs)), w=frozenset(w),
        ),
        a=frozenset(a),
        a_components=_clique_components_ordered(g, _mask_of(a)),
    )
    violations = verify_saucer_partition(g, part)
    return BuildFailure("saucer-verification", tuple(violations)) if violations else part


def ref_build_tent(g, t):
    t = validate_t0_embedding(g, t)
    sets = {lab: {t[lab]} for lab in T0_LABELS}
    sets.update(f2=set(), f3=set(), w=set(), y=set(), z=set())
    image = set(t.values())
    for x in range(g.n):
        if x in image:
            continue
        got = classify_vs_T0(g, t, x)
        if isinstance(got, Violation):
            return BuildFailure("t0-attachment", (got,))
        key = {"clone": got.index, "f": f"f{got.index}", "y": "y",
               "anticomplete": "z", "complete": "w"}[got.kind]
        sets[key].add(x)
    part = TentPartition(
        **{k: frozenset(v) for k, v in sets.items()},
        y_order=tuple(sorted(sets["y"], key=lambda u: (-g.degree(u), u))),
        z_components=_clique_components_ordered(g, _mask_of(sets["z"])),
    )
    violations = verify_tent_partition(g, part)
    return BuildFailure("tent-verification", tuple(violations)) if violations else part


def _flip(g, pairs):
    rows = list(g.rows)
    for u, v in pairs:
        if u != v:
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
    return Graph.from_rows(rows)


def _random_flips(rng, g, anchors):
    """One to three flipped pairs; some touch an anchor, so that attachment
    patterns break as well as clauses."""
    pairs = []
    for _ in range(int(rng.integers(1, 4))):
        u = int(rng.choice(anchors)) if rng.random() < 0.4 else int(rng.integers(g.n))
        pairs.append((u, int(rng.integers(g.n))))
    return _flip(g, pairs)


def _generated(count):
    """Generated saucers and tents with pendant components; every third has
    classes of up to 6 vertices, so that its rows span several machine words."""
    out = []
    for seed in range(count):
        params = GenParams(seed=seed, max_class_size=6 if seed % 3 == 0 else 2,
                           p_nonempty=0.7,
                           universal_count=(0, 2), a_components=(1, 3),
                           z_components=(1, 3), max_component_size=3)
        out.append(gen_saucer(params))
        out.append(gen_tent(params))
    return out


def _anchors(part):
    if isinstance(part, SaucerPartition):
        return [min(s) for s in part.special.x]
    return [min(getattr(part, lab)) for lab in T0_LABELS]


def _move(rng, part, v):
    """part with vertex v moved to a random other set; pendant components
    and the Y order follow the move."""
    named = dict(part.named_sets())
    names = list(named)
    src = next(name for name, s in named.items() if v in s)
    dst = str(rng.choice([name for name in names if name != src]))
    sets = {name: set(s) for name, s in named.items()}
    sets[src].discard(v)
    sets[dst].add(v)
    pend = "A" if isinstance(part, SaucerPartition) else "Z"
    comps = [tuple(u for u in c if u != v)
             for c in (part.a_components if pend == "A" else part.z_components)]
    comps = [c for c in comps if c]
    if dst == pend:
        k = int(rng.integers(len(comps) + 1))
        if k == len(comps):
            comps.append((v,))
        else:
            comps[k] += (v,)
    fs = {name: frozenset(s) for name, s in sets.items()}
    if pend == "A":
        special = SpecialPartition(
            x=tuple(fs[f"X{i}"] for i in range(7)),
            y=tuple(fs[f"Y{i}"] for i in range(7)),
            z=tuple(fs[f"Z{i}"] for i in range(7)),
            w=fs["W"],
        )
        return SaucerPartition(special, fs["A"], tuple(comps))
    y_order = [u for u in part.y_order if u != v]
    if dst == "Y":
        y_order.insert(int(rng.integers(len(y_order) + 1)), v)
    return TentPartition(**{name.lower(): s for name, s in fs.items()},
                         y_order=tuple(y_order), z_components=tuple(comps))


def test_verifiers_match_per_vertex_clauses():
    rng = np.random.default_rng(7)
    checked = failing = 0
    witnesses = set()
    for g, part in _generated(25):
        verify = (verify_saucer_partition if isinstance(part, SaucerPartition)
                  else verify_tent_partition)
        for _ in range(12):
            g2, p2 = g, part
            for _ in range(int(rng.integers(0, 3))):
                p2 = _move(rng, p2, int(rng.integers(g.n)))
            if rng.random() < 0.6:
                g2 = _random_flips(rng, g, _anchors(part))
            got = verify(g2, p2)
            with per_vertex_clauses():
                want = verify(g2, p2)
            assert got == want
            checked += 1
            failing += bool(got)
            witnesses.update(v.witness for v in got if v.witness)
    assert checked == 600
    assert failing >= 400 and len(witnesses) >= 300


def test_builders_match_per_vertex_classification():
    rng = np.random.default_rng(11)
    outcomes: dict[str, int] = {}
    for g, part in _generated(25):
        anchors = _anchors(part)
        build, ref = build_saucer_from_hole, ref_build_saucer
        arg = anchors
        if isinstance(part, TentPartition):
            build, ref = build_tent_from_T0, ref_build_tent
            arg = dict(zip(T0_LABELS, anchors))
        for trial in range(12):
            g2 = g if trial == 0 else _random_flips(rng, g, anchors)
            try:
                want = ref(g2, arg)
            except ValueError as exc:  # the flips broke the anchors
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    build(g2, arg)
                outcomes["anchors"] = outcomes.get("anchors", 0) + 1
                continue
            got = build(g2, arg)
            assert got == want
            kind = got.stage if isinstance(got, BuildFailure) else "built"
            outcomes[kind] = outcomes.get(kind, 0) + 1
    for kind in ("built", "hole-attachment", "t0-attachment",
                 "saucer-verification", "tent-verification", "anchors"):
        assert outcomes.get(kind, 0) >= 10, outcomes


class TestBuildSaucer:
    def test_m3_buckets(self):
        m3 = catalog_entry("M3")
        lab = m3.by_label
        hole = [lab[f"x{i}"] for i in range(7)]
        part = build_saucer_from_hole(m3.graph, hole)
        assert not isinstance(part, BuildFailure)
        assert part.special.y[0] == {lab["y0"]}
        assert part.special.z[2] == {lab["z2"]}
        assert part.special.z[3] == {lab["z3"]}
        assert not part.a and not part.special.w

    def test_c7_trivial(self):
        part = build_saucer_from_hole(pattern("C7").graph, list(range(7)))
        assert not isinstance(part, BuildFailure)
        assert all(part.special.x[i] == {i} for i in range(7))

    def test_a_vertex_on_y0_with_z2_nonempty_fails(self):
        # M1 has Y0 = {y0} and Z2 = {z2}; hanging a pendant vertex on y0
        # violates the saucer attachment clause
        m1 = catalog_entry("M1")
        lab = m1.by_label
        n = m1.graph.n
        adj = np.zeros((n + 1, n + 1), dtype=bool)
        adj[:n, :n] = m1.graph.adj
        adj[n, lab["y0"]] = adj[lab["y0"], n] = True
        g = Graph(adj)
        hole = [lab[f"x{i}"] for i in range(7)]
        got = build_saucer_from_hole(g, hole)
        assert isinstance(got, BuildFailure)
        assert any(v.clause == "saucer-YZ" for v in got.violations)
        # and the oracle agrees the graph left the class
        assert not class_verdict(g).is_2p3_free

    def test_invalid_hole_rejected(self):
        with pytest.raises(ValueError):
            build_saucer_from_hole(pattern("C7").graph, [0, 1, 2, 3, 4, 5, 5])


class TestBuildTent:
    def test_t1_gives_f3(self):
        t1 = pattern("T1")
        host = {lab: t1.by_label[lab] for lab in T0_LABELS}
        part = build_tent_from_T0(t1.graph, host)
        assert not isinstance(part, BuildFailure)
        assert part.f3 == {t1.by_label["f3"]}
        assert not part.f2 and not part.w and not part.y and not part.z

    def test_t0_identity(self):
        part = build_tent_from_T0(pattern("T0").graph, t0_host_map())
        assert not isinstance(part, BuildFailure)
        assert not (part.f2 or part.f3 or part.w or part.y or part.z)

    def test_generator_roundtrip_class_sizes(self):
        g, part = gen_tent(
            GenParams(seed=9, max_class_size=3, p_nonempty=1.0, z_components=(1, 2))
        )
        host = {
            "a0": min(part.a0), "a1": min(part.a1),
            "b0": min(part.b0), "b1": min(part.b1),
            "b2": min(part.b2), "b3": min(part.b3),
            "c1": min(part.c1), "c2": min(part.c2), "c3": min(part.c3),
        }
        rebuilt = build_tent_from_T0(g, host)
        assert not isinstance(rebuilt, BuildFailure)
        for name in ("a0", "a1", "b0", "b1", "b2", "b3", "c1", "c2", "c3"):
            assert getattr(rebuilt, name) == getattr(part, name)
        assert rebuilt.y == part.y and rebuilt.z == part.z
        assert rebuilt.f2 == part.f2 and rebuilt.f3 == part.f3


class TestRecognize:
    def test_thickened_m0_with_universals_and_pendant(self):
        g0, part = gen_special(
            GenParams(seed=2, max_class_size=2, universal_count=(2, 2))
        )
        # hang a pendant clique on W
        w = sorted(part.w)
        n = g0.n
        adj = np.zeros((n + 2, n + 2), dtype=bool)
        adj[:n, :n] = g0.adj
        adj[n, n + 1] = adj[n + 1, n] = True
        for a in (n, n + 1):
            adj[a, w[0]] = adj[w[0], a] = True
        rep = recognize(Graph(adj))
        assert rep.kind == IN_CLASS_C7
        assert rep.saucer is not None and rep.saucer.a == {n, n + 1}

    def test_p8_is_chordal(self):
        p8 = build_graph(8, [(i, i + 1) for i in range(7)])
        rep = recognize(p8)
        assert rep.kind == NOT_IN_CLASS and "chordal" in rep.reason

    def test_t1_accepted(self):
        rep = recognize(pattern("T1").graph)
        assert rep.kind == IN_CLASS_T0
        assert rep.catalog_name == "T1"

    def test_soundness_verifier_clean(self):
        for seed in (3, 14, 15):
            g, _ = gen_saucer(GenParams(seed=seed, max_class_size=2, a_components=(1, 2)))
            rep = recognize(g)
            assert rep.kind == IN_CLASS_C7
            assert verify_saucer_partition(g, rep.saucer) == []

    def test_completeness_small(self):
        # every in-class graph at desk scale must be accepted
        rng = np.random.default_rng(99)
        tried = accepted = 0
        for seed in range(40):
            params = GenParams(seed=seed, max_class_size=1, universal_count=(0, 1),
                               a_components=(0, 1), z_components=(0, 1),
                               max_component_size=2)
            for gen in (gen_saucer, gen_tent):
                g, _ = gen(params)
                if g.n > 14:
                    continue
                verdict = class_verdict(g)
                rep = recognize(g)
                tried += 1
                assert verdict.in_class == rep.in_class
        assert tried >= 40


def _witness_by_class_verdict(g):
    # the refusal witness as first picked: the first of 2P3, C4, C6 that the
    # full class verdict found
    verdict = class_verdict(g)
    for nm in ("2P3", "C4", "C6"):
        if nm in verdict.witnesses:
            return verdict.witnesses[nm]
    return None


@given(random_graphs(max_n=20))
@settings(max_examples=60, deadline=None)
def test_refusal_witness_matches_class_verdict_pick(g):
    rep = recognize(g)
    if not rep.in_class:
        assert rep.witness == _witness_by_class_verdict(g)


def test_refusal_witness_on_single_flip_mutants(monkeypatch):
    small = []
    for seed in range(30):
        params = GenParams(seed=seed, max_class_size=1, universal_count=(0, 1),
                           a_components=(0, 1), z_components=(0, 1),
                           max_component_size=2)
        for gen in (gen_saucer, gen_tent):
            g = mutate(gen(params)[0], seed)
            if g.n <= oracle.VERDICT_CAP:
                small.append(g)
    want = [_witness_by_class_verdict(g) for g in small]

    def no_verdict(g):
        raise AssertionError("recognize ran the full class verdict")

    monkeypatch.setattr(oracle, "class_verdict", no_verdict)
    reports = [recognize(g) for g in small]
    refused = [(rep.witness, w) for rep, w in zip(reports, want) if not rep.in_class]
    assert sum(w is not None for _, w in refused) >= 20
    for got, w in refused:
        assert got == w


def test_in_class_recognize_builds_only_the_quotient(monkeypatch):
    graphs = [
        gen_saucer(GenParams(seed=3, max_class_size=2, a_components=(1, 2)))[0],
        gen_tent(GenParams(seed=1, p_nonempty=1.0, z_components=(1, 2)))[0],
        gen_special(GenParams(seed=2, max_class_size=2, universal_count=(1, 2)))[0],
    ]
    for g in graphs:  # fills the catalog caches
        assert recognize(g).in_class
    built = _count_graphs(monkeypatch)
    for g in graphs:
        built.clear()
        rep = recognize(g)
        assert rep.in_class and built == [rep.quotient.n]


def test_refusal_by_class_count_builds_no_graph(monkeypatch):
    c13 = build_graph(13, [(i, (i + 1) % 13) for i in range(13)])
    recognize(c13)  # fills the pattern caches of the witness search
    built = _count_graphs(monkeypatch)
    rep = recognize(c13)
    assert rep.reason == "twin quotient has 13 classes (limit 12)"
    assert built == []


def _count_graphs(monkeypatch) -> list[int]:
    """Record the vertex count of every Graph built, by either constructor."""
    built = []
    init, from_rows = Graph.__init__, Graph.from_rows.__func__

    def counting_init(self, adj):
        built.append(np.asarray(adj).shape[0])
        init(self, adj)

    def counting_from_rows(cls, rows):
        built.append(len(rows))
        return from_rows(cls, rows)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    monkeypatch.setattr(Graph, "from_rows", classmethod(counting_from_rows))
    return built


class TestStructureFacts:
    def test_yz_dichotomy_on_generated(self):
        for seed in range(30):
            g, part = gen_special(GenParams(seed=seed, max_class_size=2))
            kind, i = yz_outcome(part)
            y_all = frozenset().union(*part.y)
            z_all = frozenset().union(*part.z)
            assert is_clique(g, y_all) and is_clique(g, z_all)
            assert is_clique(g, y_all | z_all) == (kind == "a")

    def test_saucer_neighborhood_of_a_is_clique(self):
        for seed in range(20):
            g, part = gen_saucer(
                GenParams(seed=seed, max_class_size=2, a_components=(1, 3))
            )
            if not part.a:
                continue
            nbrs = set()
            for a in part.a:
                nbrs |= g.neighbors(a)
            nbrs -= part.a
            assert is_clique(g, nbrs)

    def test_special_graphs_have_no_clique_cutset(self):
        for seed in range(6):
            g, _ = gen_special(GenParams(seed=seed, max_class_size=1,
                                         universal_count=(0, 1)))
            if g.n <= 18:
                assert clique_cutset_bf(g) is None

    def test_special_graph_anticomponent_shape(self):
        # a graph with a special partition has exactly one nontrivial
        # anticomponent: the complement of W, a thickening of a catalog base
        from pentaseven.catalog import match_catalog
        from pentaseven.core import components, induced_subgraph
        from pentaseven.decompose import twin_classes

        for seed in range(12):
            g, part = gen_special(
                GenParams(seed=seed, max_class_size=2, universal_count=(0, 3))
            )
            nontrivial = [a for a in components(g.complement()) if len(a) > 1]
            assert len(nontrivial) == 1
            assert nontrivial[0] == frozenset(range(g.n)) - part.w
            core, _ = induced_subgraph(g, nontrivial[0])
            got = match_catalog(twin_classes(core, core.full_mask).quotient)
            assert got is not None
