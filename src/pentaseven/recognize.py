"""Structural recognition: attachment classifiers, partition verifiers,
partition reconstruction, and the full strip-and-match pipeline.

The architecture is verification-first: the builders may take any route to a
candidate partition, but everything they emit is checked against the
structure definitions before it is returned.  Each definition is a table of
clause rows, one per clause of the paper's special, saucer and tent
partitions, read by one interpreter.  A clean verifier run is the
certificate that the input graph lies in the class.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .catalog import QUOTIENT_CAP, T0_LABELS, VERDICT_CAP, catalog_entry, match_catalog
from .catalog import pattern
from .core import Graph, _is_int, _iter_bits, _mask_of, bits_of, component_masks
# unused here, but perfbench/spans.py patches recognize.induced_subgraph
from .core import induced_subgraph  # noqa: F401
from .decompose import (
    SimplicialPrefix,
    simplicial_prefix,
    strip_universals,
    twin_classes,
)

if TYPE_CHECKING:
    from .oracle import Embedding

MOD7 = tuple(range(7))

IN_CLASS_C7 = "in-class-with-C7"
IN_CLASS_T0 = "in-class-with-T0"
NOT_IN_CLASS = "not-in-class"

_SPECIAL_NAMES = tuple(f"{s}{i}" for s in "XYZ" for i in MOD7) + ("W",)
_TENT_CORE = ("A0", "A1", "B0", "B1", "B2", "B3", "C1", "C2", "C3")
_TENT_NAMES = _TENT_CORE + ("F2", "F3", "W", "Y", "Z")


class NotInClassError(Exception):
    """Raised by the exact consumers (coloring, clique-width) on refusal."""

    def __init__(self, report: "RecognitionReport"):
        super().__init__(report.reason or report.kind)
        self.report = report


@dataclass(frozen=True)
class Violation:
    clause: str
    detail: str
    witness: tuple[int, ...] | None = None

    def __str__(self) -> str:
        w = f" witness={self.witness}" if self.witness else ""
        return f"[{self.clause}] {self.detail}{w}"


@dataclass(frozen=True)
class Attachment:
    """Outcome of attachment classification: which bucket a vertex lands in."""

    kind: str  # C7 side: anticomplete|x|y|z|complete; T0 side adds clone|f
    index: int | str | None = None


@dataclass(frozen=True)
class BuildFailure:
    stage: str
    violations: tuple[Violation, ...]

    def __str__(self) -> str:
        return f"{self.stage}: " + "; ".join(str(v) for v in self.violations)


@dataclass(frozen=True)
class SpecialPartition:
    """The 22-clique decomposition (X0..X6, Y0..Y6, Z0..Z6, W)."""

    x: tuple[frozenset[int], ...]
    y: tuple[frozenset[int], ...]
    z: tuple[frozenset[int], ...]
    w: frozenset[int]

    def named_sets(self) -> list[tuple[str, frozenset[int]]]:
        return list(zip(_SPECIAL_NAMES, self.x + self.y + self.z + (self.w,)))


@dataclass(frozen=True)
class SaucerPartition:
    """Special partition of g minus a, plus the pendant clique components of
    a in nested closed-neighborhood order."""

    special: SpecialPartition
    a: frozenset[int]
    a_components: tuple[tuple[int, ...], ...]

    def named_sets(self) -> list[tuple[str, frozenset[int]]]:
        return self.special.named_sets() + [("A", self.a)]


@dataclass(frozen=True)
class TentPartition:
    a0: frozenset[int]
    a1: frozenset[int]
    b0: frozenset[int]
    b1: frozenset[int]
    b2: frozenset[int]
    b3: frozenset[int]
    c1: frozenset[int]
    c2: frozenset[int]
    c3: frozenset[int]
    f2: frozenset[int]
    f3: frozenset[int]
    w: frozenset[int]
    y: frozenset[int]
    z: frozenset[int]
    y_order: tuple[int, ...]
    z_components: tuple[tuple[int, ...], ...]

    def named_sets(self) -> list[tuple[str, frozenset[int]]]:
        return [(name, getattr(self, name.lower())) for name in _TENT_NAMES]


@dataclass(frozen=True)
class RecognitionReport:
    kind: str
    reason: str | None = None
    saucer: SaucerPartition | None = None
    tent: TentPartition | None = None
    failure: BuildFailure | None = None
    stages: tuple[tuple[str, str], ...] = ()
    prefix: SimplicialPrefix | None = None
    universal_w: frozenset[int] = frozenset()
    quotient: Graph | None = None
    class_ids: tuple[tuple[int, ...], ...] = ()
    catalog_name: str | None = None
    refused: Graph | None = field(default=None, repr=False, compare=False)

    @property
    def in_class(self) -> bool:
        return self.kind != NOT_IN_CLASS

    @cached_property
    def witness(self) -> Embedding | None:
        """An induced 2P3, C4 or C6 of the refused graph, the first found in
        that order, when it has at most VERDICT_CAP vertices.  Searched on
        first access, so a caller that only needs the verdict (the colorer on
        a chordal input) never pays for it, nor for importing the oracle."""
        g = self.refused
        if g is None or g.n > VERDICT_CAP:
            return None
        from . import oracle

        for nm in ("2P3", "C4", "C6"):
            found = oracle.find_induced(g, pattern(nm))
            if found is not None:
                return found
        return None


# ---------------------------------------------------------------------------
# attachment classifiers


@dataclass(frozen=True)
class _Anchor:
    """An induced pattern that every other vertex is bucketed against.

    Host vertex k of an anchor plays vertex k of graph, named names[k].  A
    vertex's pattern has bit k set when it is adjacent to host k; table maps
    each admissible pattern to its bucket, and any other pattern fails the
    clause, worded as meeting what.
    """

    graph: Graph
    names: tuple
    table: dict[int, Attachment]
    clause: str
    what: str


def _c7_mask_table() -> dict[int, Attachment]:
    c7 = pattern("C7").graph
    table = {0: Attachment("anticomplete"), c7.full_mask: Attachment("complete")}
    for i in MOD7:
        table[c7.closed_row(i)] = Attachment("x", i)
        table[_mask_of((i, (i + 1) % 7, (i + 4) % 7))] = Attachment("y", i)
        table[_mask_of((i + d) % 7 for d in range(5))] = Attachment("z", i)
    return table


def _t0_mask_table() -> dict[int, Attachment]:
    t0 = pattern("T0").graph
    pos = {lab: k for k, lab in enumerate(T0_LABELS)}
    table = {t0.closed_row(k): Attachment("clone", lab) for lab, k in pos.items()}
    for i in (2, 3):
        table[t0.full_mask ^ 1 << pos[f"b{i}"] ^ 1 << pos[f"c{i}"]] = Attachment("f", i)
    table[_mask_of((pos["c2"], pos["c3"]))] = Attachment("y")
    table[0] = Attachment("anticomplete")
    table[t0.full_mask] = Attachment("complete")
    return table


_C7 = _Anchor(
    pattern("C7").graph, MOD7, _c7_mask_table(), "hole-attachment", "the 7-hole"
)
_T0 = _Anchor(
    pattern("T0").graph, T0_LABELS, _t0_mask_table(), "t0-attachment", "T0"
)


def _validate_anchor(g: Graph, anchor: _Anchor, hosts) -> list[int]:
    """hosts as ints once they are distinct vertices of g that induce
    anchor.graph in name order."""
    hosts = list(hosts)
    if not all(map(_is_int, hosts)):
        raise ValueError(f"{anchor.what} vertices must be integers")
    hosts = [int(v) for v in hosts]
    k = anchor.graph.n
    if len(hosts) != k or len(set(hosts)) != k:
        raise ValueError(f"{anchor.what} needs {k} distinct vertices")
    if any(not 0 <= v < g.n for v in hosts):
        raise ValueError(f"{anchor.what} has a vertex out of range")
    for i in range(k):
        for j in range(i + 1, k):
            if g.has_edge(hosts[i], hosts[j]) != anchor.graph.has_edge(i, j):
                raise ValueError(
                    f"vertices do not induce {anchor.what} in the given order "
                    f"({anchor.names[i]},{anchor.names[j]})"
                )
    return hosts


def validate_hole(g: Graph, hole) -> list[int]:
    return _validate_anchor(g, _C7, hole)


def validate_t0_embedding(g: Graph, t: dict[str, int]) -> dict[str, int]:
    if set(t) != set(T0_LABELS):
        raise ValueError("embedding must assign exactly the nine T0 labels")
    hosts = _validate_anchor(g, _T0, [t[lab] for lab in T0_LABELS])
    return dict(zip(T0_LABELS, hosts))


def _attachment(anchor: _Anchor, pat: int, v: int) -> Attachment | Violation:
    hit = anchor.table.get(pat)
    if hit is None:
        return Violation(
            anchor.clause,
            f"vertex {v} meets {anchor.what} in inadmissible pattern "
            f"{sorted(anchor.names[k] for k in _iter_bits(pat))}",
            witness=(v,),
        )
    return hit


def _classify(
    g: Graph, anchor: _Anchor, hosts: list[int], v: int
) -> Attachment | Violation:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if v in hosts:
        raise ValueError(f"vertex lies on {anchor.what}")
    row = g.rows[v]
    pat = _mask_of(k for k, h in enumerate(hosts) if row >> h & 1)
    return _attachment(anchor, pat, v)


def classify_vs_C7(g: Graph, hole, v: int) -> Attachment | Violation:
    """Bucket v by its neighborhood pattern on an induced 7-hole.

    A pattern outside the five admissible families certifies that g is not
    (P7,C4,C6)-free.
    """
    return _classify(g, _C7, validate_hole(g, hole), v)


def classify_vs_T0(g: Graph, t: dict[str, int], x: int) -> Attachment | Violation:
    """Bucket x by its neighborhood pattern on a labeled induced T0.

    A pattern outside the admissible list certifies that g is not
    (2P3,C4,C6)-free.
    """
    return _classify(g, _T0, list(validate_t0_embedding(g, t).values()), x)


# ---------------------------------------------------------------------------
# verifiers


class _Clauses:
    """The clause walker of one top-level verify_* call.

    It holds the graph, the violations found so far and, per distinct set
    mask, two rows: the OR of the members' rows and the AND of their closed
    rows.  Each clause is decided by one AND on the rows of its left-hand
    set.  A clique is a set complete to itself on closed rows, and for
    disjoint sets A and B the closed AND meets B exactly where the open AND
    does, so complete and clique are one test.  Only a failed clause walks
    its left-hand set, to name the same witness as a per-vertex check would.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.out: list[Violation] = []
        self._sets: dict[int, tuple[int, int]] = {}

    def set_rows(self, mask: int) -> tuple[int, int]:
        """(union, closed common) of the vertices of mask."""
        got = self._sets.get(mask)
        if got is None:
            rows = self.g.rows
            union, closed = 0, -1  # -1 has every bit set
            for v in _iter_bits(mask):
                r = rows[v]
                union |= r
                closed &= r | 1 << v
            got = self._sets[mask] = (union, closed)
        return got

    def _walk(self, ma: int, mb: int, meet: bool) -> tuple[int, int] | None:
        rows = self.g.rows
        for v in bits_of(ma):
            bad = mb & rows[v] if meet else mb & ~(rows[v] | 1 << v)
            if bad:
                return v, next(iter(bits_of(bad)))
        return None

    def misses(self, ma: int, mb: int) -> tuple[int, int] | None:
        """(v, u) with v in ma and u in mb outside N[v], or None."""
        if mb & ~self.set_rows(ma)[1]:
            return self._walk(ma, mb, False)
        return None

    def meets(self, ma: int, mb: int) -> tuple[int, int] | None:
        """(v, u) with v in ma and u in mb adjacent to v, or None."""
        if mb & self.set_rows(ma)[0]:
            return self._walk(ma, mb, True)
        return None

    def clique(self, name: str, mask: int) -> None:
        if w := self.misses(mask, mask):
            self.out.append(Violation("clique", f"{name} is not a clique", w))

    def complete(self, na: str, ma: int, nb: str, mb: int) -> None:
        if w := self.misses(ma, mb):
            self.out.append(Violation("complete", f"{na} not complete to {nb}", w))

    def anticomplete(self, na: str, ma: int, nb: str, mb: int) -> None:
        if w := self.meets(ma, mb):
            self.out.append(
                Violation("anticomplete", f"{na} not anticomplete to {nb}", w)
            )

    def nested_chain(self, label: str, ordered: tuple[int, ...]) -> None:
        """N[b] within N[a] for each consecutive pair (a, b) of ordered; the
        first pair that fails is the violation.  Each closed row is built
        once and carried to the next pair."""
        if not ordered:
            return
        rows = self.g.rows
        a = ordered[0]
        closed_a = rows[a] | 1 << a
        for b in ordered[1:]:
            closed_b = rows[b] | 1 << b
            if closed_b & ~closed_a:
                self.out.append(
                    Violation(
                        "nested-order",
                        f"{label}: N[{b}] is not contained in N[{a}]",
                        (a, b),
                    )
                )
                return
            a, closed_a = b, closed_b

    def pendant_components(
        self, label: str, comps: tuple[tuple[int, ...], ...], union: int
    ) -> None:
        """The components of the pendant set label (A or Z, with vertex mask
        union): nonempty cliques, each listing its vertices once in nested
        closed-neighborhood order, pairwise anticomplete, covering union
        exactly.  A component listing a non-vertex raises ValueError."""
        out = self.out
        clause = f"{label.lower()}-components"
        name = f"{label}-component"
        masks = [_vertex_mask(self.g, comp) for comp in comps]
        if None in masks:
            k = masks.index(None)
            raise ValueError(f"{name} {k} has a member that is not a vertex")
        comp_union = 0
        for comp, cmask in zip(comps, masks):
            if not comp:
                out.append(Violation(clause, "empty component listed"))
                continue
            if cmask & comp_union:
                out.append(Violation(clause, "components overlap"))
            if cmask.bit_count() != len(comp):
                out.append(Violation(clause, "component lists a vertex twice"))
            comp_union |= cmask
            self.clique(name, cmask)
            self.nested_chain(name, comp)
        if comp_union != union:
            out.append(Violation(clause, f"components do not cover {label} exactly"))
        later = [0] * (len(masks) + 1)  # later[i]: union of components i, i+1, ...
        for i in range(len(masks) - 1, -1, -1):
            later[i] = later[i + 1] | masks[i]
        for i, ma in enumerate(masks):
            # the pairs are checked only when some later component meets this one
            if self.set_rows(ma)[0] & later[i + 1]:
                for mb in masks[i + 1 :]:
                    self.anticomplete(name, ma, name, mb)

    def run(self, table: tuple, m: dict[str, int]) -> None:
        """Check the rows of a clause table, in order, on the set masks m."""
        out = self.out
        for label, kind, names in table:
            if kind == "complete" or kind == "anticomplete":
                a, b = names
                ma = m[a]
                if ma and (mb := m[b]):  # a pair with an empty side holds
                    getattr(self, kind)(a, ma, b, mb)
            elif kind == "clique":
                if ma := m[names[0]]:
                    self.clique(names[0], ma)
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
                if m[guard] and (w := self.meets(m[a], m[b])):
                    detail = f"{a} has a neighbor in {b} while {guard} is nonempty"
                    out.append(Violation(label, detail, w))


# ---------------------------------------------------------------------------
# the structure definitions
#
# Each definition is a table of clause rows (label, kind, set names) in the
# order the verifier checks them, and a violation carries its row's label.
# The kinds:
#   clique S; complete S T; anticomplete S T: a row naming an empty set holds;
#   nonempty S;
#   exclusive S T [U]: not every named set is nonempty;
#   at-most-one S...: at most one named set is nonempty;
#   guarded-anticomplete S T U: S is anticomplete to T or U is empty.


def _rel(a: str, complete: str = "", anticomplete: str = "") -> list:
    """Rows: a complete to each set named in complete, then a anticomplete to
    each set named in anticomplete."""
    return [("complete", "complete", (a, b)) for b in complete.split()] + [
        ("anticomplete", "anticomplete", (a, b)) for b in anticomplete.split()
    ]


def _cyclic(*rows) -> list:
    """rows for i = 0..6 in turn, reading the index of each set name X, Y or Z
    as an offset from i, mod 7."""
    return [
        (label, kind, tuple(
            s if s in ("A", "W") else f"{s[0]}{(i + int(s[1])) % 7}" for s in names
        ))
        for i in MOD7 for label, kind, names in rows
    ]


SPECIAL_TABLE = tuple(
    [("clique", "clique", (name,)) for name in _SPECIAL_NAMES]
    + _cyclic(("(a)", "nonempty", ("X0",)))
    + _cyclic(*_rel("X0", "X1", "X2 X3"))
    + _cyclic(*_rel("X0", "Y0 Y3 Y6 Z0 Z3 Z4 Z5 Z6 W", "Y1 Y2 Y4 Y5 Z1 Z2"))
    # (d) and (e) on two Y sets or two Z sets, and complete on two Y sets or
    # two Z sets, state each pair from both sides: each such row is implied
    # by its mirror.  The three-set (d) row is implied by (d) on Y_{i+3},
    # Y_{i+4}.
    + _cyclic(
        *[("(d)", "exclusive", ("Y0", s)) for s in "Y1 Y2 Y5 Y6 Z5 Z6".split()],
        ("(d)", "exclusive", ("Y0", "Y3", "Y4")),
    )
    + _cyclic(("(e)", "exclusive", ("Z0", "Z2")), ("(e)", "exclusive", ("Z0", "Z5")))
    + _cyclic(*_rel("Y0", "Y3 Y4 Z0 Z1 Z3 Z4 W", "Z2"))
    + _cyclic(*_rel("Z0", "Z1 Z3 Z4 Z6 W"))
)

# A is a union of clique components: pendant_components checks them
SAUCER_TABLE = SPECIAL_TABLE + tuple(
    _rel("A", "", "X0 X1 X2 X3 X4 X5 X6")
    + _cyclic(("saucer-YZ", "guarded-anticomplete", ("A", "Y0", "Z2")))
)

TENT_TABLE = tuple(
    # Z is a union of clique components: pendant_components checks them.
    # The clique row on Y is implied by the nested Y order, whose
    # consecutive members are adjacent.
    [("clique", "clique", (name,)) for name in _TENT_NAMES if name != "Z"]
    + [("core-nonempty", "nonempty", (name,)) for name in _TENT_CORE]
    + [("F2F3Y", "at-most-one", ("F2", "F3", "Y"))]
    + _rel("A0", "A1 B0 B2 B3", "B1 C1 C2 C3")
    + _rel("A1", "B1 B2 B3", "B0 C1 C2 C3")
    + _rel("B0", "", "B1 B2 B3") + _rel("B1", "", "B2 B3") + _rel("B2", "", "B3")
    + _rel("C1", "C2 C3") + _rel("C2", "C3")
    + _rel("C1", "B0 B1", "B2 B3")
    + _rel("C2", "B2", "B0 B1 B3")
    + _rel("C3", "B3", "B0 B1 B2")
    + _rel("F2", "A0 A1 B0 B1 B3 C1 C3", "B2 C2")
    + _rel("F3", "A0 A1 B0 B1 B2 C1 C2", "B3 C3")
    + _rel("W", "A0 A1 B0 B1 B2 B3 C1 C2 C3 F2 F3")
    + _rel("Y", "C2 C3", "A0 A1 B0 B1 B2 B3 C1")
    + _rel("Z", "", "A0 A1 B0 B1 B2 B3 C1 C2 C3 Y")
)


def _vertex_mask(g: Graph, vertices) -> int | None:
    """The mask of vertices, or None unless each is an int vertex of g."""
    try:
        if vertices and max(vertices) >= g.n:  # before a shift by a huge int
            return None
        m = _mask_of(vertices)  # a non-int or a negative int raises
    except (TypeError, ValueError, OverflowError):
        return None
    return m if type(m) is int else None  # numpy integers give numpy masks


def _require_partition(g: Graph, named, what: str) -> dict[str, int]:
    """The masks of the named sets, by name, once they partition the vertices
    of g."""
    masks = {}
    seen = 0
    for name, s in named:
        m = _vertex_mask(g, s)
        if m is None:
            raise ValueError(f"{what}: set {name} has a member that is not a vertex")
        if m & seen:
            raise ValueError(f"{what}: set {name} overlaps another set")
        seen |= m
        masks[name] = m
    if seen != g.full_mask:
        raise ValueError(f"{what}: sets do not partition the required vertex set")
    return masks


def verify_special_partition(g: Graph, p: SpecialPartition) -> list[Violation]:
    """Check every clause of the 22-set definition; empty list means valid."""
    c = _Clauses(g)
    c.run(SPECIAL_TABLE, _require_partition(g, p.named_sets(), "special partition"))
    return c.out


def verify_saucer_partition(g: Graph, p: SaucerPartition) -> list[Violation]:
    """Full 7-saucer check: special partition off A, the A attachment rules,
    and the pendant clique components with nested closed neighborhoods."""
    m = _require_partition(g, p.named_sets(), "7-saucer partition")
    c = _Clauses(g)
    c.run(SAUCER_TABLE, m)
    c.pendant_components("A", p.a_components, m["A"])
    return c.out


def verify_tent_partition(g: Graph, p: TentPartition) -> list[Violation]:
    """Full tent check: the tent table, the Y order and the Z-components."""
    m = _require_partition(g, p.named_sets(), "tent partition")
    c = _Clauses(g)
    c.run(TENT_TABLE, m)
    if frozenset(p.y_order) != p.y or len(p.y_order) != len(p.y):
        c.out.append(Violation("y-order", "ordering does not enumerate Y exactly"))
    else:
        c.nested_chain("Y", p.y_order)
    c.pendant_components("Z", p.z_components, m["Z"])
    return c.out


# ---------------------------------------------------------------------------
# reconstruction


def _clique_components_ordered(g: Graph, members: int) -> tuple[tuple[int, ...], ...]:
    """Split the vertex mask members into connected components, each ordered
    by decreasing closed degree.  Chain validity is left to the verifier."""
    rows = g.rows
    return tuple(
        tuple(sorted(bits_of(m), key=lambda u: (-rows[u].bit_count(), u)))
        for m in component_masks(rows, members)
    )


def _attachment_classes(
    g: Graph, anchor: _Anchor, hosts: list[int]
) -> defaultdict[Attachment, int] | BuildFailure:
    """Every vertex of g bucketed by its pattern on the anchor hosts: bucket
    -> mask of its vertices.  Patterns are taken on closed neighborhoods, so
    host k lands in the bucket of its own pattern vertex (X_k, or the clone
    of its label).  An inadmissible pattern fails the build, named by the
    lowest vertex that has one."""
    classes = {0: g.full_mask}  # pattern -> mask of its vertices
    for k, host in enumerate(hosts):
        row = g.closed_row(host)
        refined: dict[int, int] = {}
        for pat, m in classes.items():
            inside = m & row
            if inside:
                refined[pat | 1 << k] = inside
            if inside != m:
                refined[pat] = m ^ inside
        classes = refined
    bad = [(m & -m, pat) for pat, m in classes.items() if pat not in anchor.table]
    if bad:
        low, pat = min(bad)
        return BuildFailure(
            anchor.clause, (_attachment(anchor, pat, low.bit_length() - 1),)
        )
    return defaultdict(int, {anchor.table[pat]: m for pat, m in classes.items()})


def build_saucer_from_hole(
    g: Graph, hole
) -> SaucerPartition | BuildFailure:
    """Bucket every vertex against the hole and assemble a 7-saucer partition.

    Any classifier violation or failed saucer clause is returned as the
    failure; a returned partition has passed the full verifier.
    """
    buckets = _attachment_classes(g, _C7, validate_hole(g, hole))
    if isinstance(buckets, BuildFailure):
        return buckets
    a = buckets[Attachment("anticomplete")]
    part = SaucerPartition(
        special=SpecialPartition(
            x=tuple(bits_of(buckets[Attachment("x", i)]) for i in MOD7),
            y=tuple(bits_of(buckets[Attachment("y", i)]) for i in MOD7),
            z=tuple(bits_of(buckets[Attachment("z", i)]) for i in MOD7),
            w=bits_of(buckets[Attachment("complete")]),
        ),
        a=bits_of(a),
        a_components=_clique_components_ordered(g, a),
    )
    violations = verify_saucer_partition(g, part)
    if violations:
        return BuildFailure("saucer-verification", tuple(violations))
    return part


def build_tent_from_T0(
    g: Graph, t: dict[str, int]
) -> TentPartition | BuildFailure:
    """Bucket every vertex against a labeled T0 and assemble a tent partition."""
    hosts = list(validate_t0_embedding(g, t).values())
    buckets = _attachment_classes(g, _T0, hosts)
    if isinstance(buckets, BuildFailure):
        return buckets
    y = buckets[Attachment("y")]
    z = buckets[Attachment("anticomplete")]
    y_order = tuple(sorted(bits_of(y), key=lambda u: (-g.rows[u].bit_count(), u)))
    part = TentPartition(
        **{lab: bits_of(buckets[Attachment("clone", lab)]) for lab in T0_LABELS},
        f2=bits_of(buckets[Attachment("f", 2)]),
        f3=bits_of(buckets[Attachment("f", 3)]),
        w=bits_of(buckets[Attachment("complete")]),
        y=bits_of(y), z=bits_of(z),
        y_order=y_order, z_components=_clique_components_ordered(g, z),
    )
    violations = verify_tent_partition(g, part)
    if violations:
        return BuildFailure("tent-verification", tuple(violations))
    return part


# ---------------------------------------------------------------------------
# the pipeline


def _reject(
    g: Graph,
    reason: str,
    stages: list[tuple[str, str]],
    prefix: SimplicialPrefix | None = None,
    failure: BuildFailure | None = None,
) -> RecognitionReport:
    return RecognitionReport(
        kind=NOT_IN_CLASS,
        reason=reason,
        failure=failure,
        stages=tuple(stages),
        prefix=prefix,
        refused=g,
    )


def recognize(g: Graph) -> RecognitionReport:
    """Decide membership and produce a verified partition or a refusal.

    Pipeline: maximal simplicial prefix -> universal strip -> twin quotient
    -> catalog match -> partition reconstruction on the original graph ->
    full verification.  The strip steps work on vertex masks of g, so the
    twin quotient is the only graph built along the way, and only when it
    has at most QUOTIENT_CAP vertices.
    """
    stages: list[tuple[str, str]] = []
    pre = simplicial_prefix(g)
    stages.append(("simplicial-prefix", f"eliminated {len(pre.order)} of {g.n}"))
    if not pre.remainder_mask:
        return _reject(
            g, "chordal: the simplicial elimination consumed the whole graph",
            stages, pre,
        )
    # core is nonempty: a complete remainder is all simplicial, so the
    # maximal elimination would have removed it
    w, core = strip_universals(g, pre.remainder_mask)
    stages.append(("universal-strip", f"|W| = {len(w)}"))
    twins = twin_classes(g, core)
    k = len(twins.classes)
    stages.append(("twin-quotient", f"{k} classes"))
    if k > QUOTIENT_CAP:  # refused before the quotient graph is built
        return _reject(
            g, f"twin quotient has {k} classes (limit {QUOTIENT_CAP})",
            stages, pre,
        )
    class_ids = tuple(tuple(sorted(cls)) for cls in twins.classes)
    match = match_catalog(twins.quotient)
    if match is None:
        return _reject(
            g, "twin quotient matches no catalog entry", stages, pre,
        )
    name, bij = match
    stages.append(("catalog-match", name))
    entry = catalog_entry(name)
    by_label = entry.by_label
    common = dict(
        stages=tuple(stages),
        prefix=pre,
        universal_w=w,
        quotient=twins.quotient,
        class_ids=class_ids,
        catalog_name=name,
    )
    if name in ("T0", "T1"):
        t_embed = {
            lab: class_ids[bij[by_label[lab]]][0] for lab in T0_LABELS
        }
        built = build_tent_from_T0(g, t_embed)
        if isinstance(built, BuildFailure):
            return _reject(g, str(built), stages, pre, failure=built)
        return RecognitionReport(kind=IN_CLASS_T0, tent=built, **common)
    hole = [class_ids[bij[by_label[f"x{i}"]]][0] for i in MOD7]
    built = build_saucer_from_hole(g, hole)
    if isinstance(built, BuildFailure):
        return _reject(g, str(built), stages, pre, failure=built)
    return RecognitionReport(kind=IN_CLASS_C7, saucer=built, **common)


# ---------------------------------------------------------------------------
# derived structure facts


def yz_outcome(p: SpecialPartition) -> tuple[str, int]:
    """Which of the two Y/Z layouts a special partition realizes.

    Outcome "a": Y = Y_i + Y_{i+3} and Z = Z_i + Z_{i+3} + Z_{i+4} for some i.
    Outcome "b": Y = Y_i, Z = Z_{i+1} + Z_{i+2} + Z_{i+3}, with Y_i and
    Z_{i+2} nonempty and at most one of Z_{i+1}, Z_{i+3} nonempty.
    Exactly one outcome must hold for a verified partition.
    """
    ys = [_mask_of(s) for s in p.y]
    zs = [_mask_of(s) for s in p.z]
    ymask = 0
    zmask = 0
    for i in MOD7:
        ymask |= ys[i]
        zmask |= zs[i]
    hits_a = [
        i
        for i in MOD7
        if ymask == ys[i] | ys[(i + 3) % 7]
        and zmask == zs[i] | zs[(i + 3) % 7] | zs[(i + 4) % 7]
    ]
    hits_b = [
        i
        for i in MOD7
        if ymask == ys[i]
        and zmask == zs[(i + 1) % 7] | zs[(i + 2) % 7] | zs[(i + 3) % 7]
        and ys[i]
        and zs[(i + 2) % 7]
        and not (zs[(i + 1) % 7] and zs[(i + 3) % 7])
    ]
    if hits_a and hits_b:
        raise AssertionError("both Y/Z outcomes hold; partition is inconsistent")
    if hits_a:
        return "a", hits_a[0]
    if hits_b:
        return "b", hits_b[0]
    raise AssertionError("neither Y/Z outcome holds; partition is inconsistent")
