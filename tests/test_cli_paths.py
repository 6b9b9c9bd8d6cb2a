"""Golden digest of the CLI paths that the other CLI tests leave unrun.

The paths: `recognize --dot` on a saucer with pendant components, one of
them joined to only part of another cluster (the saucer clusters and the
edge-by-edge lines of the DOT text), `--dot` on a refused graph (the plain
DOT text), `oracle` without a mode flag, `oracle --clique-cutset` with and
without a clique cutset, and `generate special`.  The stdout of each run,
with `timing_ms` removed, its exit code, and every file it writes are
hashed together.

Pin a new digest only with a change that means to alter these outputs, and
say so where the change is described.
"""

import hashlib
import json
import re

from pentaseven import cli
from pentaseven.catalog import pattern
from pentaseven.core import build_graph

PATHS_DIGEST = "15d085023198fa8262f3910e49790eacd5656d15064301d1e86575d3b3f44513"

_TIMING = re.compile(r'"timing_ms": [-+0-9.eE]+')

# a 7-hole 0..6 with a universal vertex 8, a Y vertex 7 and two pendant
# components, (9, 10) and (11, 12), whose closed neighborhoods are nested
SAUCER = build_graph(13, [
    (0, 1), (0, 6), (0, 7), (0, 8), (1, 2), (1, 7), (1, 8), (2, 3), (2, 8),
    (3, 4), (3, 8), (4, 5), (4, 7), (4, 8), (5, 6), (5, 8), (6, 8), (7, 8),
    (7, 9), (7, 11), (9, 10), (11, 12),
])


# (argv, files the run writes) for each covered path
RUNS = [
    (["recognize", "--dot", "saucer.dot", "saucer.json"], ["saucer.dot"]),
    (["recognize", "--dot", "c6.dot", "c6.json"], ["c6.dot"]),
    (["oracle", "t1.json"], []),
    (["oracle", "--clique-cutset", "p4.json"], []),
    (["oracle", "--clique-cutset", "c7.json"], []),
    (["generate", "special", "--seed", "5", "--out", "gen"],
     ["gen/special-5.json", "gen/special-5.cert.json"]),
]


def test_cli_paths_match_golden_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    inputs = {
        "saucer.json": SAUCER,
        "c6.json": pattern("C6").graph,
        "t1.json": pattern("T1").graph,
        "p4.json": build_graph(4, [(0, 1), (1, 2), (2, 3)]),
        "c7.json": pattern("C7").graph,
    }
    for name, g in inputs.items():
        (tmp_path / name).write_text(json.dumps(cli.graph_to_edge_json(g)))
    h = hashlib.sha256()
    for argv, written in RUNS:
        code = cli.main(argv)
        out = _TIMING.sub('"timing_ms": 0', capsys.readouterr().out)
        h.update(f"{' '.join(argv)} {code}\n{out}".encode())
        for name in written:
            h.update((tmp_path / name).read_bytes())

    dot = (tmp_path / "saucer.dot").read_text()
    assert "label=\"A1 (clique of 2)\"" in dot
    assert "  v7 -- v9;" in dot  # a mixed pair of clusters, edge by edge
    assert "cluster" not in (tmp_path / "c6.dot").read_text()
    assert h.hexdigest() == PATHS_DIGEST
