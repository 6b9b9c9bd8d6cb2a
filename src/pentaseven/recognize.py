"""Structural recognition: attachment classifiers, partition verifiers,
partition reconstruction, and the full strip-and-match pipeline.

The architecture is verification-first: the builders may take any route to a
candidate partition, but everything they emit is checked against the literal
clause lists of the structure definitions before it is returned.  A clean
verifier run is the certificate that the input graph lies in the class.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .catalog import catalog_entry, match_catalog, pattern
from .core import Graph, _mask_of, bits_of, component_masks
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

T0_LABELS = ("a0", "a1", "b0", "b1", "b2", "b3", "c1", "c2", "c3")


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
        out = [(f"X{i}", self.x[i]) for i in MOD7]
        out += [(f"Y{i}", self.y[i]) for i in MOD7]
        out += [(f"Z{i}", self.z[i]) for i in MOD7]
        out.append(("W", self.w))
        return out

    @property
    def support(self) -> frozenset[int]:
        return frozenset().union(*self.x, *self.y, *self.z, self.w)


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
    witness: oracle.Embedding | None = None
    stages: tuple[tuple[str, str], ...] = ()
    prefix: SimplicialPrefix | None = None
    universal_w: frozenset[int] = frozenset()
    quotient: Graph | None = None
    class_ids: tuple[tuple[int, ...], ...] = ()
    catalog_name: str | None = None

    @property
    def in_class(self) -> bool:
        return self.kind != NOT_IN_CLASS


# ---------------------------------------------------------------------------
# attachment classifiers


def _c7_mask_table() -> dict[int, Attachment]:
    table = {0: Attachment("anticomplete"), 127: Attachment("complete")}
    for i in MOD7:
        table[_mask_of(((i - 1) % 7, i, (i + 1) % 7))] = Attachment("x", i)
        table[_mask_of((i, (i + 1) % 7, (i + 4) % 7))] = Attachment("y", i)
        table[_mask_of(tuple((i + d) % 7 for d in range(5)))] = Attachment("z", i)
    return table


_C7_TABLE = _c7_mask_table()


def _t0_mask_table() -> dict[int, Attachment]:
    t0 = pattern("T0")
    pos = {lab: k for k, lab in enumerate(T0_LABELS)}
    g = t0.graph
    by_label = t0.by_label
    table: dict[int, Attachment] = {}
    for lab in T0_LABELS:
        v = by_label[lab]
        mask = 0
        for other in T0_LABELS:
            u = by_label[other]
            if u == v or g.has_edge(u, v):
                mask |= 1 << pos[other]
        table[mask] = Attachment("clone", lab)
    full = (1 << 9) - 1
    for i in (2, 3):
        table[full & ~_mask_of((pos[f"b{i}"], pos[f"c{i}"]))] = Attachment("f", i)
    table[_mask_of((pos["c2"], pos["c3"]))] = Attachment("y")
    table[0] = Attachment("anticomplete")
    table[full] = Attachment("complete")
    return table


_T0_TABLE = _t0_mask_table()


def validate_hole(g: Graph, hole) -> list[int]:
    hole = [int(v) for v in hole]
    if len(hole) != 7 or len(set(hole)) != 7:
        raise ValueError("hole must list 7 distinct vertices")
    if any(not 0 <= v < g.n for v in hole):
        raise ValueError("hole vertex out of range")
    for i in range(7):
        for j in range(i + 1, 7):
            want = (j - i) % 7 in (1, 6)
            if g.has_edge(hole[i], hole[j]) != want:
                raise ValueError(
                    f"vertices do not induce a 7-hole in the given order "
                    f"(positions {i},{j})"
                )
    return hole


def classify_vs_C7(g: Graph, hole, v: int) -> Attachment | Violation:
    """Bucket v by its neighborhood pattern on an induced 7-hole.

    A pattern outside the five admissible families certifies that g is not
    (P7,C4,C6)-free.
    """
    hole = validate_hole(g, hole)
    if v in hole:
        raise ValueError("vertex lies on the hole")
    return _classify_vs_c7_unchecked(g, hole, v)


def _classify_vs_c7_unchecked(g: Graph, hole, v: int) -> Attachment | Violation:
    row = g.row(v)
    mask = 0
    for i in MOD7:
        if row >> hole[i] & 1:
            mask |= 1 << i
    hit = _C7_TABLE.get(mask)
    if hit is None:
        return Violation(
            "hole-attachment",
            f"vertex {v} meets the 7-hole in inadmissible pattern "
            f"{sorted(bits_of(mask))}",
            witness=(v,),
        )
    return hit


def validate_t0_embedding(g: Graph, t: dict[str, int]) -> dict[str, int]:
    if set(t) != set(T0_LABELS):
        raise ValueError("embedding must assign exactly the nine T0 labels")
    hosts = list(t.values())
    if len(set(hosts)) != 9 or any(not 0 <= v < g.n for v in hosts):
        raise ValueError("embedding vertices must be nine distinct vertices of g")
    t0 = pattern("T0")
    by_label = t0.by_label
    for i, la in enumerate(T0_LABELS):
        for lb in T0_LABELS[i + 1 :]:
            want = t0.graph.has_edge(by_label[la], by_label[lb])
            if g.has_edge(t[la], t[lb]) != want:
                raise ValueError(f"embedding is not an induced T0 ({la},{lb})")
    return t


def classify_vs_T0(g: Graph, t: dict[str, int], x: int) -> Attachment | Violation:
    """Bucket x by its neighborhood pattern on a labeled induced T0.

    A pattern outside the admissible list certifies that g is not
    (2P3,C4,C6)-free.
    """
    validate_t0_embedding(g, t)
    if x in set(t.values()):
        raise ValueError("vertex lies inside the embedding")
    return _classify_vs_t0_unchecked(g, t, x)


def _classify_vs_t0_unchecked(g: Graph, t: dict[str, int], x: int) -> Attachment | Violation:
    row = g.row(x)
    mask = 0
    for k, lab in enumerate(T0_LABELS):
        if row >> t[lab] & 1:
            mask |= 1 << k
    hit = _T0_TABLE.get(mask)
    if hit is None:
        return Violation(
            "t0-attachment",
            f"vertex {x} meets T0 in inadmissible pattern "
            f"{sorted(lab for k, lab in enumerate(T0_LABELS) if mask >> k & 1)}",
            witness=(x,),
        )
    return hit


# ---------------------------------------------------------------------------
# verifiers


def _check_clique(g: Graph, name: str, mask: int, out: list[Violation]) -> None:
    rows = g.rows
    for v in bits_of(mask):
        missing = mask & ~(1 << v) & ~rows[v]
        if missing:
            out.append(
                Violation("clique", f"{name} is not a clique",
                          (v, next(iter(bits_of(missing)))))
            )
            return


def _check_complete(g, na, ma, nb, mb, out) -> None:
    if not ma or not mb:
        return
    rows = g.rows
    for v in bits_of(ma):
        missing = mb & ~rows[v]
        if missing:
            out.append(
                Violation("complete", f"{na} not complete to {nb}",
                          (v, next(iter(bits_of(missing)))))
            )
            return


def _check_anticomplete(g, na, ma, nb, mb, out) -> None:
    if not ma or not mb:
        return
    rows = g.rows
    for v in bits_of(ma):
        hit = mb & rows[v]
        if hit:
            out.append(
                Violation("anticomplete", f"{na} not anticomplete to {nb}",
                          (v, next(iter(bits_of(hit)))))
            )
            return


def _masks(p: SpecialPartition):
    xs = [_mask_of(s) for s in p.x]
    ys = [_mask_of(s) for s in p.y]
    zs = [_mask_of(s) for s in p.z]
    return xs, ys, zs, _mask_of(p.w)


def _require_partition(named, universe_mask: int, what: str) -> None:
    seen = 0
    for name, s in named:
        m = _mask_of(s)
        if m & seen:
            raise ValueError(f"{what}: set {name} overlaps another set")
        seen |= m
    if seen != universe_mask:
        raise ValueError(f"{what}: sets do not partition the required vertex set")


def verify_special_partition(
    g: Graph, p: SpecialPartition, universe: frozenset[int] | None = None
) -> list[Violation]:
    """Check every clause of the 22-set definition; empty list means valid."""
    if universe is None:
        universe = frozenset(range(g.n))
    _require_partition(p.named_sets(), _mask_of(universe), "special partition")
    xs, ys, zs, w = _masks(p)
    out: list[Violation] = []
    for name, s in p.named_sets():
        _check_clique(g, name, _mask_of(s), out)
    for i in MOD7:
        if not xs[i]:
            out.append(Violation("(a)", f"X{i} is empty"))
    for i in MOD7:
        _check_complete(g, f"X{i}", xs[i], f"X{(i+1)%7}", xs[(i + 1) % 7], out)
        for d in (2, 3):
            _check_anticomplete(
                g, f"X{i}", xs[i], f"X{(i+d)%7}", xs[(i + d) % 7], out
            )
    for i in MOD7:
        for d in (0, 3, 6):
            _check_complete(g, f"X{i}", xs[i], f"Y{(i+d)%7}", ys[(i + d) % 7], out)
        for d in (0, 3, 4, 5, 6):
            _check_complete(g, f"X{i}", xs[i], f"Z{(i+d)%7}", zs[(i + d) % 7], out)
        _check_complete(g, f"X{i}", xs[i], "W", w, out)
        for d in (1, 2, 4, 5):
            _check_anticomplete(g, f"X{i}", xs[i], f"Y{(i+d)%7}", ys[(i + d) % 7], out)
        for d in (1, 2):
            _check_anticomplete(g, f"X{i}", xs[i], f"Z{(i+d)%7}", zs[(i + d) % 7], out)
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
            _check_complete(g, f"Y{i}", ys[i], f"Y{(i+d)%7}", ys[(i + d) % 7], out)
        for d in (0, 1, 3, 4):
            _check_complete(g, f"Y{i}", ys[i], f"Z{(i+d)%7}", zs[(i + d) % 7], out)
        _check_complete(g, f"Y{i}", ys[i], "W", w, out)
        _check_anticomplete(g, f"Y{i}", ys[i], f"Z{(i+2)%7}", zs[(i + 2) % 7], out)
    for i in MOD7:
        for d in (1, 3, 4, 6):
            _check_complete(g, f"Z{i}", zs[i], f"Z{(i+d)%7}", zs[(i + d) % 7], out)
        _check_complete(g, f"Z{i}", zs[i], "W", w, out)
    return out


def _check_nested_chain(
    g: Graph, label: str, ordered: tuple[int, ...], out: list[Violation]
) -> None:
    for a, b in zip(ordered, ordered[1:]):
        if g.closed_row(b) & ~g.closed_row(a):
            out.append(
                Violation(
                    "nested-order",
                    f"{label}: N[{b}] is not contained in N[{a}]",
                    (a, b),
                )
            )
            return


def _check_pendant_components(
    g: Graph,
    label: str,
    comps: tuple[tuple[int, ...], ...],
    union: int,
    out: list[Violation],
) -> None:
    """The components of the pendant set label (A or Z, with vertex mask
    union): nonempty cliques, each ordered by nested closed neighborhoods,
    pairwise anticomplete, covering union exactly."""
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
        comp_union |= cmask
        _check_clique(g, name, cmask, out)
        _check_nested_chain(g, name, comp, out)
    if comp_union != union:
        out.append(Violation(clause, f"components do not cover {label} exactly"))
    later = [0] * (len(masks) + 1)  # later[i]: union of components i, i+1, ...
    for i in range(len(masks) - 1, -1, -1):
        later[i] = later[i + 1] | masks[i]
    rows = g.rows
    for i, ma in enumerate(masks):
        reach = 0
        for v in comps[i]:
            reach |= rows[v]
        if reach & later[i + 1]:  # else no later component meets this one
            for mb in masks[i + 1 :]:
                _check_anticomplete(g, name, ma, name, mb, out)


def verify_saucer_partition(g: Graph, p: SaucerPartition) -> list[Violation]:
    """Full 7-saucer check: special partition off A, the A attachment rules,
    and the pendant clique components with nested closed neighborhoods."""
    full = frozenset(range(g.n))
    _require_partition(p.named_sets(), _mask_of(full), "7-saucer partition")
    amask = _mask_of(p.a)
    out = verify_special_partition(g, p.special, universe=full - p.a)
    xs, ys, zs, _ = _masks(p.special)
    for i in MOD7:
        _check_anticomplete(g, "A", amask, f"X{i}", xs[i], out)
    for i in MOD7:
        if not zs[(i + 2) % 7]:
            continue
        hits: list[Violation] = []
        _check_anticomplete(g, "A", amask, f"Y{i}", ys[i], hits)
        if hits:
            out.append(
                Violation(
                    "saucer-YZ",
                    f"A has a neighbor in Y{i} while Z{(i+2)%7} is nonempty",
                    hits[0].witness,
                )
            )
    _check_pendant_components(g, "A", p.a_components, amask, out)
    return out


def verify_tent_partition(g: Graph, p: TentPartition) -> list[Violation]:
    """Full tent check, clause by clause."""
    full = frozenset(range(g.n))
    _require_partition(p.named_sets(), _mask_of(full), "tent partition")
    m = {name: _mask_of(s) for name, s in p.named_sets()}
    out: list[Violation] = []
    for name, s in p.named_sets():
        if name != "Z":  # Z is a union of clique components, checked below
            _check_clique(g, name, _mask_of(s), out)
    for name in ("A0", "A1", "B0", "B1", "B2", "B3", "C1", "C2", "C3"):
        if not m[name]:
            out.append(Violation("core-nonempty", f"{name} is empty"))
    if sum(1 for name in ("F2", "F3", "Y") if m[name]) > 1:
        out.append(Violation("F2F3Y", "more than one of F2, F3, Y is nonempty"))

    def comp(na, nb):
        _check_complete(g, na, m[na], nb, m[nb], out)

    def anti(na, nb):
        _check_anticomplete(g, na, m[na], nb, m[nb], out)

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
        _check_nested_chain(g, "Y", p.y_order, out)
    _check_pendant_components(g, "Z", p.z_components, m["Z"], out)
    return out


# ---------------------------------------------------------------------------
# reconstruction


def _clique_components_ordered(
    g: Graph, members: frozenset[int]
) -> tuple[tuple[int, ...], ...]:
    """Split members into connected components, each ordered by decreasing
    closed degree.  Chain validity is left to the verifier."""
    return tuple(
        tuple(sorted(bits_of(m), key=lambda u: (-(g.closed_row(u).bit_count()), u)))
        for m in component_masks(g.rows, _mask_of(members))
    )


def build_saucer_from_hole(
    g: Graph, hole
) -> SaucerPartition | BuildFailure:
    """Bucket every vertex against the hole and assemble a 7-saucer partition.

    Any classifier violation or failed saucer clause is returned as the
    failure; a returned partition has passed the full verifier.
    """
    hole = validate_hole(g, hole)
    xs = [set() for _ in MOD7]
    ys = [set() for _ in MOD7]
    zs = [set() for _ in MOD7]
    w: set[int] = set()
    a: set[int] = set()
    for i in MOD7:
        xs[i].add(hole[i])
    holeset = set(hole)
    for v in range(g.n):
        if v in holeset:
            continue
        got = _classify_vs_c7_unchecked(g, hole, v)
        if isinstance(got, Violation):
            return BuildFailure("hole-attachment", (got,))
        if got.kind == "anticomplete":
            a.add(v)
        elif got.kind == "complete":
            w.add(v)
        elif got.kind == "x":
            xs[got.index].add(v)
        elif got.kind == "y":
            ys[got.index].add(v)
        else:
            zs[got.index].add(v)
    comps = _clique_components_ordered(g, frozenset(a))
    part = SaucerPartition(
        special=SpecialPartition(
            x=tuple(frozenset(s) for s in xs),
            y=tuple(frozenset(s) for s in ys),
            z=tuple(frozenset(s) for s in zs),
            w=frozenset(w),
        ),
        a=frozenset(a),
        a_components=comps,
    )
    violations = verify_saucer_partition(g, part)
    if violations:
        return BuildFailure("saucer-verification", tuple(violations))
    return part


def build_tent_from_T0(
    g: Graph, t: dict[str, int]
) -> TentPartition | BuildFailure:
    """Bucket every vertex against a labeled T0 and assemble a tent partition."""
    t = validate_t0_embedding(g, t)
    buckets: dict[str, set[int]] = {lab: {t[lab]} for lab in T0_LABELS}
    f2: set[int] = set()
    f3: set[int] = set()
    w: set[int] = set()
    y: set[int] = set()
    z: set[int] = set()
    image = set(t.values())
    for x in range(g.n):
        if x in image:
            continue
        got = _classify_vs_t0_unchecked(g, t, x)
        if isinstance(got, Violation):
            return BuildFailure("t0-attachment", (got,))
        if got.kind == "clone":
            buckets[got.index].add(x)
        elif got.kind == "f":
            (f2 if got.index == 2 else f3).add(x)
        elif got.kind == "y":
            y.add(x)
        elif got.kind == "anticomplete":
            z.add(x)
        else:
            w.add(x)
    y_order = tuple(
        sorted(y, key=lambda u: (-(g.closed_row(u).bit_count()), u))
    )
    z_comps = _clique_components_ordered(g, frozenset(z))
    part = TentPartition(
        a0=frozenset(buckets["a0"]), a1=frozenset(buckets["a1"]),
        b0=frozenset(buckets["b0"]), b1=frozenset(buckets["b1"]),
        b2=frozenset(buckets["b2"]), b3=frozenset(buckets["b3"]),
        c1=frozenset(buckets["c1"]), c2=frozenset(buckets["c2"]),
        c3=frozenset(buckets["c3"]),
        f2=frozenset(f2), f3=frozenset(f3), w=frozenset(w),
        y=frozenset(y), z=frozenset(z),
        y_order=y_order, z_components=z_comps,
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
    witness = None
    if g.n <= oracle.VERDICT_CAP:
        for nm in ("2P3", "C4", "C6"):
            witness = oracle.find_induced(g, pattern(nm))
            if witness is not None:
                break
    return RecognitionReport(
        kind=NOT_IN_CLASS,
        reason=reason,
        failure=failure,
        witness=witness,
        stages=tuple(stages),
        prefix=prefix,
    )


def recognize(g: Graph) -> RecognitionReport:
    """Decide membership and produce a verified partition or a refusal.

    Pipeline: maximal simplicial prefix -> universal strip -> twin quotient
    -> catalog match -> partition reconstruction on the original graph ->
    full verification.  The strip steps work on vertex masks of g, so the
    twin quotient is the only graph built along the way.
    """
    stages: list[tuple[str, str]] = []
    pre = simplicial_prefix(g)
    stages.append(("simplicial-prefix", f"eliminated {len(pre.order)} of {g.n}"))
    if not pre.remainder:
        return _reject(
            g, "chordal: the simplicial elimination consumed the whole graph",
            stages, pre,
        )
    w, core = strip_universals(g, _mask_of(pre.remainder))
    stages.append(("universal-strip", f"|W| = {len(w)}"))
    if not core:
        return _reject(g, "remainder after the prefix is a complete graph",
                       stages, pre)
    twins = twin_classes(g, core)
    stages.append(("twin-quotient", f"{twins.quotient.n} classes"))
    class_ids = tuple(tuple(sorted(cls)) for cls in twins.classes)
    if twins.quotient.n > 12:
        return _reject(
            g, f"twin quotient has {twins.quotient.n} classes (limit 12)",
            stages, pre,
        )
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
    _, ys, zs, _ = _masks(p)
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
