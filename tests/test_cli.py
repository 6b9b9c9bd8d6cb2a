import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentaseven import cli
from pentaseven.catalog import pattern
from pentaseven.core import build_graph


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(json.dumps(cli.graph_to_edge_json(g)))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out.strip()
    reports = [json.loads(line) for line in out.splitlines() if line]
    return code, reports


class TestFormats:
    def test_dimacs_round_trip(self, tmp_path):
        g = pattern("T0").graph
        lines = [f"c comment", f"p edge {g.n} {g.num_edges}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
        path = tmp_path / "t0.col"
        path.write_text("\n".join(lines) + "\n")
        parsed, _ = cli.load_graph(str(path))
        assert parsed == g

    def test_edge_json_round_trip(self, tmp_path):
        g = pattern("T1").graph
        path = write_graph(tmp_path, "t1.json", g)
        parsed, _ = cli.load_graph(path)
        assert parsed == g

    def test_malformed_header_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.col"
        path.write_text("p edge x y\n")
        code, reports = run(capsys, "recognize", str(path))
        assert code == cli.EXIT_INPUT
        assert "malformed" in reports[0]["error"]

    def test_bad_endpoint_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "edges": [[0, 9]]}')
        code, _ = run(capsys, "recognize", str(path))
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("text, named", [
        ('{"n": 3, "edges": [[0, 1.7]]}', "1.7"),
        ('{"n": 3, "edges": [[0, true]]}', "True"),
        ('{"n": "3", "edges": []}', "'3'"),
        ('{"n": 3.9, "edges": []}', "3.9"),
        ('{"n": 3, "edges": [[0, 1, 2]]}', "[0, 1, 2]"),
        ('{"n": 3, "edges": [7]}', "7"),
    ])
    def test_non_integer_input_exit_2(self, tmp_path, capsys, text, named):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, reports = run(capsys, "recognize", str(path))
        assert code == cli.EXIT_INPUT
        assert named in reports[0]["error"]

    MALFORMED = {
        "count.col": ("p edge 3 7\ne 1 2\n", "declares 7 edges, found 1"),
        "second_p.col": ("p edge 3 1\ne 1 2\np edge 2 1\n", "second header"),
        "deep.json": ('{"n": 3, "edges": ' + "[" * 200000 + "]" * 200000 + "}",
                      "recursion"),
        "digits.json": ('{"n": ' + "9" * 5000 + ', "edges": []}', "digits"),
    }

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_input_exit_2(self, tmp_path, capsys, name):
        text, named = self.MALFORMED[name]
        path = tmp_path / name
        path.write_text(text)
        code, reports = run(capsys, "recognize", str(path))
        assert code == cli.EXIT_INPUT
        assert len(reports) == 1 and named in reports[0]["error"]

    @pytest.mark.parametrize("name, text", [
        ("big.col", "p edge 100000000 1\ne 1 2\n"),
        ("big.json", '{"n": 100000000, "edges": []}'),
    ])
    def test_vertex_cap_exit_4(self, tmp_path, capsys, name, text):
        # the cap is checked before the adjacency is allocated
        path = tmp_path / name
        path.write_text(text)
        code, reports = run(capsys, "recognize", str(path))
        assert code == cli.EXIT_SIZE_CAP
        assert len(reports) == 1
        assert f"capped at {cli.VERTEX_CAP}" in reports[0]["error"]


# exit-code contract inputs: any bytes, JSON of small ints, nested lists and
# strings, and DIMACS-like lines; vertex counts stay <= 64 so runs are fast
small_ints = st.integers(-2, 64)
json_values = st.recursive(
    small_ints | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=6),
    max_leaves=30,
)
edge_lists = st.lists(st.lists(small_ints, min_size=2, max_size=2), max_size=40)
edge_json = st.one_of(
    json_values,
    st.fixed_dictionaries({"n": json_values, "edges": json_values}),
    st.fixed_dictionaries({"n": small_ints, "edges": edge_lists}),
).map(json.dumps).map(str.encode)
dimacs_lines = st.one_of(
    st.builds("p edge {} {}".format, small_ints, small_ints),
    st.builds("e {} {}".format, small_ints, small_ints),
    st.sampled_from(["c note", "p", "e 1", "p col 3 1", "x"]),
)
dimacs = st.lists(dimacs_lines, max_size=30).map("\n".join).map(str.encode)


@given(raw=st.one_of(st.binary(max_size=200), edge_json, dimacs))
@settings(max_examples=300, deadline=None)
def test_recognize_exit_codes_on_any_input(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz-input"
    path.write_bytes(raw)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["recognize", str(path)])
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_REFUSED, cli.EXIT_SIZE_CAP)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    assert isinstance(json.loads(lines[0]), dict)


class TestRecognizeCmd:
    def test_t1_accepted(self, tmp_path, capsys):
        path = write_graph(tmp_path, "t1.json", pattern("T1").graph)
        code, reports = run(capsys, "recognize", path, "--oracle-crosscheck")
        assert code == 0
        rep = reports[0]
        assert rep["schema"] == 1
        assert rep["verdict"]["kind"] == "in-class-with-T0"
        assert rep["agreement"] is True

    def test_c6_rejected_with_witness(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c6.json", pattern("C6").graph)
        code, reports = run(capsys, "recognize", path)
        assert code == 0
        assert reports[0]["verdict"]["kind"] == "not-in-class"
        assert reports[0]["verdict"]["witness"]["pattern"] == "C6"

    def test_dot_output(self, tmp_path, capsys):
        path = write_graph(tmp_path, "t1.json", pattern("T1").graph)
        dot = str(tmp_path / "out.dot")
        code, _ = run(capsys, "recognize", path, "--dot", dot)
        assert code == 0
        text = open(dot).read()
        assert "subgraph cluster_0" in text and "complete" in text

    def test_crosscheck_cap_exit_4(self, tmp_path, capsys):
        g = build_graph(25, [(i, i + 1) for i in range(24)])
        path = write_graph(tmp_path, "big.json", g)
        code, _ = run(capsys, "recognize", path, "--oracle-crosscheck")
        assert code == cli.EXIT_SIZE_CAP

    def test_jobs_multiple_files(self, tmp_path, capsys):
        paths = [
            write_graph(tmp_path, f"g{i}.json", pattern(nm).graph)
            for i, nm in enumerate(("T0", "T1", "C7"))
        ]
        code, reports = run(capsys, "recognize", *paths, "--jobs", "2")
        assert code == 0 and len(reports) == 3
        kinds = [r["verdict"]["kind"] for r in reports]
        assert kinds == ["in-class-with-T0", "in-class-with-T0", "in-class-with-C7"]

    def test_jobs_capped_at_file_count(self, tmp_path, capsys, monkeypatch):
        # a fake pool that records its size and maps inline: no process starts
        sizes = []

        class InlinePool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(cli, "Pool", InlinePool)
        paths = [
            write_graph(tmp_path, f"g{i}.json", pattern(nm).graph)
            for i, nm in enumerate(("T0", "C7"))
        ]
        code, reports = run(capsys, "recognize", *paths, "--jobs", "64")
        assert code == 0 and len(reports) == 2
        assert sizes == [2]


    def test_environment_does_not_change_caps(self, tmp_path):
        # no environment variable may raise the crosscheck cap past the
        # oracle's own cap or break the import
        g = build_graph(21, [(i, i + 1) for i in range(20)])
        path = write_graph(tmp_path, "p21.json", g)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PENTASEVEN_ORACLE_CAP="30",
                   PENTASEVEN_KERNELS="bogus",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "pentaseven.cli", "recognize",
             "--oracle-crosscheck", path],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == cli.EXIT_SIZE_CAP, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1
        assert "capped at 20" in json.loads(lines[0])["error"]


class TestColorCwdCmd:
    def test_color_optimal_small(self, tmp_path, capsys):
        from pentaseven.generate import GenParams, gen_saucer

        g, _ = gen_saucer(
            GenParams(seed=13, max_class_size=1, universal_count=(0, 1),
                      a_components=(0, 1), max_component_size=2)
        )
        path = write_graph(tmp_path, "s.json", g)
        code, reports = run(capsys, "color", path, "--crosscheck")
        assert code == 0
        assert reports[0]["agreement"] is True

    def test_color_refusal_exit_3(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c6.json", pattern("C6").graph)
        code, reports = run(capsys, "color", path)
        assert code == cli.EXIT_REFUSED
        assert "refusal" in reports[0]

    def test_cwd_t1(self, tmp_path, capsys):
        path = write_graph(tmp_path, "t1.json", pattern("T1").graph)
        code, reports = run(capsys, "cwd", path)
        assert code == 0
        rep = reports[0]
        assert rep["width"] <= 10 and rep["evaluates_to_input"] is True
        from pentaseven.cwd import eval_to_graph, from_sexpr

        assert eval_to_graph(from_sexpr(rep["expression"])) == pattern("T1").graph


class TestGenerateCmd:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            code, _ = run(capsys, "generate", "saucer", "--seed", "7",
                          "--out", str(out))
            assert code == 0
        for name in ("saucer-7.json", "saucer-7.cert.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_generated_file_recognizable(self, tmp_path, capsys):
        code, reports = run(capsys, "generate", "tent", "--seed", "3",
                            "--out", str(tmp_path))
        assert code == 0
        graph_path = reports[0]["files"][0]
        code, reports = run(capsys, "recognize", graph_path)
        assert code == 0
        assert reports[0]["verdict"]["kind"] == "in-class-with-T0"


class TestOracleCmd:
    def test_holes(self, tmp_path, capsys):
        path = write_graph(tmp_path, "t1.json", pattern("T1").graph)
        code, reports = run(capsys, "oracle", path, "--holes")
        assert code == 0 and reports[0]["hole_lengths"] == [5]

    def test_pattern_search(self, tmp_path, capsys):
        path = write_graph(tmp_path, "t0.json", pattern("T0").graph)
        code, reports = run(capsys, "oracle", path, "--pattern", "3-pentagon")
        assert code == 0 and reports[0]["found"] is True

    def test_chi(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c7.json", pattern("C7").graph)
        code, reports = run(capsys, "oracle", path, "--chi")
        assert code == 0 and reports[0]["chi"] == 3

    def test_size_cap_exit_4(self, tmp_path, capsys):
        g = build_graph(19, [])
        path = write_graph(tmp_path, "big.json", g)
        code, _ = run(capsys, "oracle", path, "--chi")
        assert code == cli.EXIT_SIZE_CAP


def test_reports_byte_identical_modulo_timing(tmp_path, capsys):
    path = write_graph(tmp_path, "t0.json", pattern("T0").graph)
    _, first = run(capsys, "recognize", path)
    _, second = run(capsys, "recognize", path)
    a, b = first[0], second[0]
    a.pop("timing_ms")
    b.pop("timing_ms")
    assert a == b
