"""What the benchmark relies on: the names that its tracer
(perfbench/spans.py) patches, and the verifiers behind its recognize check
(perfbench/checks.py).

`spans.instrument` replaces module-level names of the package, `cli`'s
included, and records a span per call.  A renamed or bypassed name leaves its
layer unrecorded without failing a run, so this test runs the three batch
commands traced and checks that every per-layer span is recorded, except the
two that the CLI never reaches: `core.graph_init` (the CLI builds graphs from
rows) and `oracle.class_verdict` (only `--oracle-crosscheck` calls it).
"""

import copy
import json
import re
from pathlib import Path

import pytest

from pentaseven import cli
from pentaseven.catalog import pattern
from pentaseven.generate import GenParams, gen_saucer, gen_tent

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
UNREACHED = {"core.graph_init", "oracle.class_verdict"}
_TIMING = re.compile(r'"timing_ms": [-+0-9.eE]+')


def _reports(capsys, path, tracer=None):
    out = []
    for command in ("recognize", "color", "cwd"):
        if tracer is not None:
            tracer.begin_op(0, command, path)
        code = cli.main([command, "--jobs", "1", path])
        out.append((code, _TIMING.sub("", capsys.readouterr().out)))
    return out


def test_traced_cli_records_every_layer(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    path = str(tmp_path / "t1.json")
    Path(path).write_text(json.dumps(cli.graph_to_edge_json(pattern("T1").graph)))
    plain = _reports(capsys, path)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        traced = _reports(capsys, path, tracer)
    recorded = {name for _, name, *_ in tracer.spans}
    assert set(spans.SPAN_METRICS.values()) - recorded <= UNREACHED
    assert traced == plain
    assert [code for code, _ in plain] == [0, 0, 0]


@pytest.mark.parametrize("gen, move, comps", [
    (gen_saucer, ("X0", "X1"), "A_components"),
    (gen_tent, ("A0", "A1"), "Z_components"),
])
def test_recognize_check_refuses_broken_partitions(
    gen, move, comps, tmp_path, monkeypatch, capsys
):
    # checks.check_recognize holds a printed partition to its verifier: the
    # report as printed passes, and a vertex moved between two parts or
    # listed twice in a pendant component fails
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    g, _ = gen(GenParams(seed=3, a_components=(2, 2), z_components=(2, 2)))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(cli.graph_to_edge_json(g)))
    code = cli.main(["recognize", "--jobs", "1", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert checks.check_recognize(g, True, code, report) is None

    moved = copy.deepcopy(report)
    part = moved["verdict"]["partition"]
    src, dst = move
    part[dst].append(part[src].pop())
    assert checks.check_recognize(g, True, code, moved) is not None

    doubled = copy.deepcopy(report)
    first = doubled["verdict"]["partition"][comps][0]
    first.append(first[0])
    error = checks.check_recognize(g, True, code, doubled)
    assert error is not None and "component lists a vertex twice" in error
