"""Structural recognition: attachment classifiers, partition verifiers,
partition reconstruction, and the full strip-and-match pipeline.

The architecture is verification-first: the builders may take any route to a
candidate partition, but everything they emit is checked against the literal
clause lists of the structure definitions before it is returned.  A clean
verifier run is the certificate that the input graph lies in the class.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

from . import oracle
from .catalog import T0_LABELS, QUOTIENT_CAP, catalog_entry, match_catalog, pattern
from .core import Graph, _is_int, _iter_bits, _mask_of, bits_of, component_masks
# unused here, but perfbench/spans.py patches recognize.induced_subgraph
from .core import induced_subgraph  # noqa: F401
from .decompose import (
    SimplicialPrefix,
    simplicial_prefix,
    strip_universals,
    twin_classes,
)

MOD7 = tuple(range(7))

IN_CLASS_C7 = "in-class-with-C7"
IN_CLASS_T0 = "in-class-with-T0"
NOT_IN_CLASS = "not-in-class"

_SPECIAL_NAMES = tuple(f"{s}{i}" for s in "XYZ" for i in MOD7) + ("W",)


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
        return [
            ("A0", self.a0), ("A1", self.a1),
            ("B0", self.b0), ("B1", self.b1), ("B2", self.b2), ("B3", self.b3),
            ("C1", self.c1), ("C2", self.c2), ("C3", self.c3),
            ("F2", self.f2), ("F3", self.f3),
            ("W", self.w), ("Y", self.y), ("Z", self.z),
        ]


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
    def witness(self) -> oracle.Embedding | None:
        """An induced 2P3, C4 or C6 of the refused graph, the first found in
        that order, when it has at most oracle.VERDICT_CAP vertices.  Searched
        on first access, so a caller that only needs the verdict (the colorer
        on a chordal input) never pays for it."""
        g = self.refused
        if g is None or g.n > oracle.VERDICT_CAP:
            return None
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
        g = self.g
        for a, b in zip(ordered, ordered[1:]):
            if g.closed_row(b) & ~g.closed_row(a):
                self.out.append(
                    Violation(
                        "nested-order",
                        f"{label}: N[{b}] is not contained in N[{a}]",
                        (a, b),
                    )
                )
                return

    def pendant_components(
        self, label: str, comps: tuple[tuple[int, ...], ...], union: int
    ) -> None:
        """The components of the pendant set label (A or Z, with vertex mask
        union): nonempty cliques, each listing its vertices once in nested
        closed-neighborhood order, pairwise anticomplete, covering union
        exactly."""
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


def _require_partition(g: Graph, named, what: str) -> list[int]:
    """The masks of the named sets, in order, once they partition the vertices
    of g."""
    masks = []
    seen = 0
    for name, s in named:
        m = _mask_of(s)
        if m & seen:
            raise ValueError(f"{what}: set {name} overlaps another set")
        seen |= m
        masks.append(m)
    if seen != g.full_mask:
        raise ValueError(f"{what}: sets do not partition the required vertex set")
    return masks


def verify_special_partition(g: Graph, p: SpecialPartition) -> list[Violation]:
    """Check every clause of the 22-set definition; empty list means valid."""
    c = _Clauses(g)
    _verify_special(c, _require_partition(g, p.named_sets(), "special partition"))
    return c.out


def _verify_special(c: _Clauses, masks: list[int]) -> None:
    """The clauses of the special partition whose 22 set masks, in
    named_sets order, start masks."""
    xs, ys, zs, w = masks[0:7], masks[7:14], masks[14:21], masks[21]
    out = c.out
    for name, m in zip(_SPECIAL_NAMES, masks):
        c.clique(name, m)
    comp, anti = c.complete, c.anticomplete

    for i in MOD7:
        if not xs[i]:
            out.append(Violation("(a)", f"X{i} is empty"))
    for i in MOD7:
        comp(f"X{i}", xs[i], f"X{(i+1)%7}", xs[(i + 1) % 7])
        for d in (2, 3):
            anti(f"X{i}", xs[i], f"X{(i+d)%7}", xs[(i + d) % 7])
    for i in MOD7:
        for d in (0, 3, 6):
            comp(f"X{i}", xs[i], f"Y{(i+d)%7}", ys[(i + d) % 7])
        for d in (0, 3, 4, 5, 6):
            comp(f"X{i}", xs[i], f"Z{(i+d)%7}", zs[(i + d) % 7])
        comp(f"X{i}", xs[i], "W", w)
        for d in (1, 2, 4, 5):
            anti(f"X{i}", xs[i], f"Y{(i+d)%7}", ys[(i + d) % 7])
        for d in (1, 2):
            anti(f"X{i}", xs[i], f"Z{(i+d)%7}", zs[(i + d) % 7])
    for i in MOD7:
        if not ys[i]:
            continue
        for d in (1, 2, 5, 6):
            if ys[(i + d) % 7]:
                out.append(Violation("(d)", f"Y{i} nonempty but Y{(i+d)%7} nonempty"))
        for d in (5, 6):
            if zs[(i + d) % 7]:
                out.append(Violation("(d)", f"Y{i} nonempty but Z{(i+d)%7} nonempty"))
        if ys[(i + 3) % 7] and ys[(i + 4) % 7]:
            out.append(
                Violation("(d)", f"Y{i} nonempty but both Y{(i+3)%7},Y{(i+4)%7} nonempty")
            )
    for i in MOD7:
        if not zs[i]:
            continue
        for d in (2, 5):
            if zs[(i + d) % 7]:
                out.append(Violation("(e)", f"Z{i} nonempty but Z{(i+d)%7} nonempty"))
    for i in MOD7:
        for d in (3, 4):
            comp(f"Y{i}", ys[i], f"Y{(i+d)%7}", ys[(i + d) % 7])
        for d in (0, 1, 3, 4):
            comp(f"Y{i}", ys[i], f"Z{(i+d)%7}", zs[(i + d) % 7])
        comp(f"Y{i}", ys[i], "W", w)
        anti(f"Y{i}", ys[i], f"Z{(i+2)%7}", zs[(i + 2) % 7])
    for i in MOD7:
        for d in (1, 3, 4, 6):
            comp(f"Z{i}", zs[i], f"Z{(i+d)%7}", zs[(i + d) % 7])
        comp(f"Z{i}", zs[i], "W", w)


def verify_saucer_partition(g: Graph, p: SaucerPartition) -> list[Violation]:
    """Full 7-saucer check: special partition off A, the A attachment rules,
    and the pendant clique components with nested closed neighborhoods."""
    masks = _require_partition(g, p.named_sets(), "7-saucer partition")
    xs, ys, zs, amask = masks[0:7], masks[7:14], masks[14:21], masks[22]
    c = _Clauses(g)
    _verify_special(c, masks)
    for i in MOD7:
        c.anticomplete("A", amask, f"X{i}", xs[i])
    for i in MOD7:
        if zs[(i + 2) % 7] and (w := c.meets(amask, ys[i])):
            c.out.append(
                Violation(
                    "saucer-YZ",
                    f"A has a neighbor in Y{i} while Z{(i+2)%7} is nonempty",
                    w,
                )
            )
    c.pendant_components("A", p.a_components, amask)
    return c.out


def verify_tent_partition(g: Graph, p: TentPartition) -> list[Violation]:
    """Full tent check, clause by clause."""
    named = p.named_sets()
    masks = _require_partition(g, named, "tent partition")
    m = {name: mask for (name, _), mask in zip(named, masks)}
    c = _Clauses(g)
    out = c.out
    for name, mask in m.items():
        if name != "Z":  # Z is a union of clique components, checked below
            c.clique(name, mask)
    for name in ("A0", "A1", "B0", "B1", "B2", "B3", "C1", "C2", "C3"):
        if not m[name]:
            out.append(Violation("core-nonempty", f"{name} is empty"))
    if sum(1 for name in ("F2", "F3", "Y") if m[name]) > 1:
        out.append(Violation("F2F3Y", "more than one of F2, F3, Y is nonempty"))

    def comp(na, nb):
        c.complete(na, m[na], nb, m[nb])

    def anti(na, nb):
        c.anticomplete(na, m[na], nb, m[nb])

    comp("A0", "A1")
    for nb in ("B0", "B2", "B3"):
        comp("A0", nb)
    for nb in ("B1", "C1", "C2", "C3"):
        anti("A0", nb)
    for nb in ("B1", "B2", "B3"):
        comp("A1", nb)
    for nb in ("B0", "C1", "C2", "C3"):
        anti("A1", nb)
    bs = ("B0", "B1", "B2", "B3")
    for i in range(4):
        for j in range(i + 1, 4):
            anti(bs[i], bs[j])
    cs = ("C1", "C2", "C3")
    for i in range(3):
        for j in range(i + 1, 3):
            comp(cs[i], cs[j])
    comp("C1", "B0"); comp("C1", "B1"); anti("C1", "B2"); anti("C1", "B3")
    comp("C2", "B2")
    for nb in ("B0", "B1", "B3"):
        anti("C2", nb)
    comp("C3", "B3")
    for nb in ("B0", "B1", "B2"):
        anti("C3", nb)
    for nb in ("A0", "A1", "B0", "B1", "B3", "C1", "C3"):
        comp("F2", nb)
    anti("F2", "B2"); anti("F2", "C2")
    for nb in ("A0", "A1", "B0", "B1", "B2", "C1", "C2"):
        comp("F3", nb)
    anti("F3", "B3"); anti("F3", "C3")
    for nb in ("A0", "A1", "B0", "B1", "B2", "B3", "C1", "C2", "C3", "F2", "F3"):
        comp("W", nb)
    comp("Y", "C2"); comp("Y", "C3")
    for nb in ("A0", "A1", "B0", "B1", "B2", "B3", "C1"):
        anti("Y", nb)
    for nb in ("A0", "A1", "B0", "B1", "B2", "B3", "C1", "C2", "C3", "Y"):
        anti("Z", nb)

    if frozenset(p.y_order) != p.y or len(p.y_order) != len(p.y):
        out.append(Violation("y-order", "ordering does not enumerate Y exactly"))
    else:
        c.nested_chain("Y", p.y_order)
    c.pendant_components("Z", p.z_components, m["Z"])
    return out


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
