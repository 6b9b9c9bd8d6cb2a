"""Golden digest of the recognize, color and cwd reports.

The inputs are fixed and drawn without randomness: every deduplicated
catalog base, a thickening of each, two single-pair flips of each thickening,
the thickening with a pendant vertex on each class and on each class minus
its smallest member, the thickening with a universal vertex that carries a
pendant path of two, the path P20 and a C7 with a disjoint C4.  Each command
runs through `cli.main` on each input; the reports, with `timing_ms`
removed, and the exit codes are hashed together.

A change that alters any report byte or exit code changes the digest.  Pin a
new digest only with a change that means to alter the reports, and say so
where the change is described.
"""

import hashlib
import json
import re

from pentaseven import cli
from pentaseven.core import Graph, _mask_of, build_graph
from pentaseven.decompose import expand_thickening

from conftest import dedup_family_index

REPORT_DIGEST = "b9365f6971755763d1e30178a685e0e2db2f0947b20472cef9c4be9235313b14"

_TIMING = re.compile(r'"timing_ms": [-+0-9.eE]+')


def _flip(g: Graph, u: int, v: int) -> Graph:
    rows = list(g.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Graph.from_rows(rows)


def _add_vertex(g: Graph, nbrs: int) -> Graph:
    """g plus one vertex adjacent to the vertex mask nbrs."""
    x = g.n
    rows = [r | (1 << x if nbrs >> v & 1 else 0) for v, r in enumerate(g.rows)]
    return Graph.from_rows(rows + [nbrs])


def golden_inputs() -> list[Graph]:
    out = []
    for base in dedup_family_index():
        h = base.graph
        thick, classes = expand_thickening(h, [1 + v % 3 for v in range(h.n)])
        n = thick.n
        out += [h, thick, _flip(thick, 0, n - 1), _flip(thick, 1, n // 2)]
        out += [_add_vertex(thick, _mask_of(ids)) for ids in classes]
        # off the anchors: the classes' smallest members, so the pendant
        # vertex is bucketed as pendant and fails a clause of the verifier
        out += [_add_vertex(thick, _mask_of(ids[1:])) for ids in classes if ids[1:]]
        u = _add_vertex(thick, thick.full_mask)
        p1 = _add_vertex(u, 1 << n)
        out.append(_add_vertex(p1, 1 << (n + 1)))
    out.append(build_graph(20, [(i, i + 1) for i in range(19)]))
    c7_c4 = [(i, (i + 1) % 7) for i in range(7)]
    c7_c4 += [(7 + i, 7 + (i + 1) % 4) for i in range(4)]
    out.append(build_graph(11, c7_c4))
    return out


def report_digest(directory, capture) -> tuple[str, int]:
    """(sha256, input count) of the reports on golden_inputs.  The inputs
    are written to directory, which must be the working directory, so that
    each report names its input by a relative path.  capture() returns the
    stdout written since its last call."""
    h = hashlib.sha256()
    graphs = golden_inputs()
    for i, g in enumerate(graphs):
        name = f"{i:03d}.json"
        (directory / name).write_text(json.dumps(cli.graph_to_edge_json(g)))
        for command in ("recognize", "color", "cwd"):
            code = cli.main([command, "--jobs", "1", name])
            out = _TIMING.sub('"timing_ms": 0', capture())
            h.update(f"{command} {name} {code}\n{out}".encode())
    return h.hexdigest(), len(graphs)


def test_reports_match_golden_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digest, count = report_digest(tmp_path, lambda: capsys.readouterr().out)
    assert count == 456
    assert digest == REPORT_DIGEST
