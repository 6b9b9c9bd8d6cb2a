"""Structural recognition: attachment classifiers, partition
reconstruction, and the full strip-and-match pipeline.

The architecture is verification-first: the builders may take any route to a
candidate partition, but everything they emit is checked against the
structure definitions (`structure`) before it is returned.  A clean verifier
run is the certificate that the input graph lies in the class.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

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
# the builders call the verifiers through this module's globals, which
# perfbench/spans.py patches to time them
from .structure import (
    MOD7,
    SaucerPartition,
    SpecialPartition,
    TentPartition,
    Violation,
    verify_saucer_partition,
    verify_tent_partition,
)

if TYPE_CHECKING:
    from .oracle import Embedding

IN_CLASS_C7 = "in-class-with-C7"
IN_CLASS_T0 = "in-class-with-T0"
NOT_IN_CLASS = "not-in-class"


class NotInClassError(Exception):
    """Raised by the exact consumers (coloring, clique-width) on refusal."""

    def __init__(self, report: "RecognitionReport"):
        super().__init__(report.reason or report.kind)
        self.report = report


class Attachment(NamedTuple):
    """Outcome of attachment classification: which bucket a vertex lands in."""

    kind: str  # C7 side: anticomplete|x|y|z|complete; T0 side adds clone|f
    index: int | str | None = None


class BuildFailure(NamedTuple):
    stage: str
    violations: tuple[Violation, ...]

    def __str__(self) -> str:
        return f"{self.stage}: " + "; ".join(str(v) for v in self.violations)


class _ReportFields(NamedTuple):
    kind: str
    reason: str | None = None
    saucer: SaucerPartition | None = None
    tent: TentPartition | None = None
    failure: BuildFailure | None = None
    stages: tuple[tuple[str, str], ...] = ()
    prefix: SimplicialPrefix | None = None
    universal_w: tuple[int, ...] = ()
    quotient: Graph | None = None
    class_ids: tuple[tuple[int, ...], ...] = ()
    catalog_name: str | None = None
    refused: Graph | None = None


class RecognitionReport(_ReportFields):
    """The verdict with its evidence.  A subclass without __slots__, so it
    has the __dict__ that cached_property keeps the witness in."""

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


class _Anchor(NamedTuple):
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
# reconstruction


def _clique_components_ordered(g: Graph, members: int) -> tuple[tuple[int, ...], ...]:
    """Split the vertex mask members into connected components, each ordered
    by decreasing closed degree.  Chain validity is left to the verifier."""
    rows = g.rows
    return tuple(
        tuple(sorted(_iter_bits(m), key=lambda u: (-rows[u].bit_count(), u)))
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
    y_order = tuple(sorted(_iter_bits(y), key=lambda u: (-g.rows[u].bit_count(), u)))
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
    class_ids = twins.classes
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
