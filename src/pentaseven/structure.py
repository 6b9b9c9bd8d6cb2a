"""The paper's structure definitions: the special partition, the 7-saucer
and the tent partition, and their verifiers.

Each definition is a table of clause rows, one per clause of the paper's
special, saucer and tent partitions, read by one interpreter.  A clean
verifier run is the certificate that the input graph lies in the class.
This module imports only `core`, so a reader who checks a partition needs
none of the pipeline that built it.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Graph, _iter_bits, _mask_of, bits_of

MOD7 = tuple(range(7))

_SPECIAL_NAMES = tuple(f"{s}{i}" for s in "XYZ" for i in MOD7) + ("W",)
_TENT_CORE = ("A0", "A1", "B0", "B1", "B2", "B3", "C1", "C2", "C3")
_TENT_NAMES = _TENT_CORE + ("F2", "F3", "W", "Y", "Z")


class Violation(NamedTuple):
    clause: str
    detail: str
    witness: tuple[int, ...] | None = None

    def __str__(self) -> str:
        w = f" witness={self.witness}" if self.witness else ""
        return f"[{self.clause}] {self.detail}{w}"


class SpecialPartition(NamedTuple):
    """The 22-clique decomposition (X0..X6, Y0..Y6, Z0..Z6, W)."""

    x: tuple[frozenset[int], ...]
    y: tuple[frozenset[int], ...]
    z: tuple[frozenset[int], ...]
    w: frozenset[int]

    def named_sets(self) -> list[tuple[str, frozenset[int]]]:
        return list(zip(_SPECIAL_NAMES, self.x + self.y + self.z + (self.w,)))


class SaucerPartition(NamedTuple):
    """Special partition of g minus a, plus the pendant clique components of
    a in nested closed-neighborhood order."""

    special: SpecialPartition
    a: frozenset[int]
    a_components: tuple[tuple[int, ...], ...]

    def named_sets(self) -> list[tuple[str, frozenset[int]]]:
        return self.special.named_sets() + [("A", self.a)]

    @property
    def pendant(self) -> tuple[str, tuple[tuple[int, ...], ...]]:
        """The pendant set's name and its clique components."""
        return "A", self.a_components


class TentPartition(NamedTuple):
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

    @property
    def pendant(self) -> tuple[str, tuple[tuple[int, ...], ...]]:
        """The pendant set's name and its clique components."""
        return "Z", self.z_components


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
    """The mask of vertices, or None unless each is a plain int vertex of g:
    a bool or a numpy integer is not one."""
    m = 0
    try:
        for v in vertices:
            if type(v) is not int or not 0 <= v < g.n:
                return None
            m |= 1 << v
    except TypeError:  # vertices is not iterable
        return None
    return m


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
    label, comps = p.pendant
    c.pendant_components(label, comps, m[label])
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
    label, comps = p.pendant
    c.pendant_components(label, comps, m[label])
    return c.out


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
