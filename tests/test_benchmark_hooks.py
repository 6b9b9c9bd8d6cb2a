"""The names that the benchmark's tracer (perfbench/spans.py) patches.

`spans.instrument` replaces module-level names of the package, `cli`'s
included, and records a span per call.  A renamed or bypassed name leaves its
layer unrecorded without failing a run, so this test runs the three batch
commands traced and checks that every per-layer span is recorded, except the
two that the CLI never reaches: `core.graph_init` (the CLI builds graphs from
rows) and `oracle.class_verdict` (only `--oracle-crosscheck` calls it).
"""

import json
import re
from pathlib import Path

from pentaseven import cli
from pentaseven.catalog import pattern

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
