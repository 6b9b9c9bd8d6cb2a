import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentaseven import cli
from pentaseven.catalog import pattern
from pentaseven.core import VERTEX_CAP, VertexCapError, build_graph


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(json.dumps(cli.graph_to_edge_json(g)))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out.strip()
    reports = [json.loads(line) for line in out.splitlines() if line]
    return code, reports


def deep_bad_pair(bad, message):
    """Case of an edge-json file at benchmark size, n = 300 and 20 000
    valid pairs, with pair 15 000 replaced by bad; message is the error."""
    pairs = [[u, v] for u in range(300) for v in range(u + 1, 300)][:20_000]
    pairs[15_000] = bad
    text = json.dumps({"n": 300, "edges": pairs})
    return pytest.param(text, message, id=f"deep-{json.dumps(bad)}")


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
        deep_bad_pair([17, -1], "edge endpoint out of range in [17, -1]"),
        deep_bad_pair([17, 300], "edge endpoint out of range in [17, 300]"),
        deep_bad_pair([17, True], "edge endpoint True in [17, True] is not an integer"),
        deep_bad_pair([17, 1.5], "edge endpoint 1.5 in [17, 1.5] is not an integer"),
        deep_bad_pair([1, 2, 3], "edge [1, 2, 3] is not a pair of vertices"),
        deep_bad_pair([17, 17], "loop edge [17, 17]"),
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
        "range.col": ("p edge 3 1\ne 1 4\n",
                      "line 2: edge endpoint out of range 1..3 in 'e 1 4'"),
        "zero.col": ("p edge 3 1\ne 0 2\n",
                     "line 2: edge endpoint out of range 1..3 in 'e 0 2'"),
        "loop.col": ("p edge 3 1\ne 2 2\n", "line 2: loop edge 'e 2 2'"),
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

    # int() takes each of these spellings; DIMACS numbers are ASCII digits
    # with an optional minus sign
    @pytest.mark.parametrize("number", ["1_0", "+1", "٢", "１"])
    @pytest.mark.parametrize("template, kind", [
        ("p edge {} 0\n", "header"),
        ("p edge 3 1\ne 1 {}\n", "edge"),
    ])
    def test_only_ascii_decimal_numbers(self, tmp_path, capsys, number, template, kind):
        path = tmp_path / "bad.col"
        path.write_text(template.format(number), encoding="utf-8")
        code, reports = run(capsys, "recognize", str(path))
        assert code == cli.EXIT_INPUT
        assert f"malformed {kind}" in reports[0]["error"]

    def test_negative_numbers_reach_the_range_checks(self, tmp_path, capsys):
        path = tmp_path / "neg.col"
        path.write_text("p edge 3 1\ne -1 2\n")
        code, reports = run(capsys, "recognize", str(path))
        assert code == cli.EXIT_INPUT
        assert "edge endpoint out of range 1..3 in 'e -1 2'" in reports[0]["error"]

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
        assert f"capped at {VERTEX_CAP}" in reports[0]["error"]

    def test_out_of_memory_exit_4(self, tmp_path, capsys, monkeypatch):
        good = write_graph(tmp_path, "t1.json", pattern("T1").graph)
        big = tmp_path / "big.json"
        big.write_text('{"n": 3, "edges": [[0, 1]], "big": true}')
        parse = cli.parse_edge_json

        def short_of_memory(text):
            if '"big"' in text:
                raise MemoryError
            return parse(text)

        monkeypatch.setattr(cli, "parse_edge_json", short_of_memory)
        for paths in ([str(big)], [good, str(big)]):
            code = cli.main(["recognize", *paths])
            out, err = capsys.readouterr()
            *others, last = [json.loads(line) for line in out.splitlines()]
            assert code == cli.EXIT_SIZE_CAP and err == ""
            assert len(others) == len(paths) - 1
            assert all("error" not in r for r in others)
            assert last["error"] == "out of memory" and last["input"] == str(big)


@pytest.mark.parametrize("command, module, name", [
    ("recognize", "recognize", "recognize"),
    ("color", "color", "color_in_class"),
    ("cwd", "cwd", "expr_for_class_graph"),
])
def test_out_of_memory_in_a_command_ends_only_its_input(
    tmp_path, capsys, monkeypatch, command, module, name
):
    import importlib

    mod = importlib.import_module(f"pentaseven.{module}")
    original = getattr(mod, name)

    def short_of_memory(g):
        if g.n == 7:
            raise MemoryError
        return original(g)

    monkeypatch.setattr(mod, name, short_of_memory)
    c7 = write_graph(tmp_path, "c7.json", pattern("C7").graph)
    t1 = write_graph(tmp_path, "t1.json", pattern("T1").graph)
    code, (first, second) = run(capsys, command, c7, t1)
    assert code == cli.EXIT_SIZE_CAP
    assert first["input"] == c7 and first["error"] == "out of memory"
    assert second["input"] == t1 and "error" not in second


class TestParsePausesCollector:
    """load_graph pauses the cyclic collector around the parse and leaves
    it as the caller had it, on success and on either error."""

    CASES = {
        "good.json": ('{"n": 3, "edges": [[0, 1]]}', None),
        "bad.json": ('{"n": 3, "edges": [[0, 9]]}', cli.InputError),
        "big.col": ("p edge 100000000 1\ne 1 2\n", VertexCapError),
    }

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_collector_state_restored(self, tmp_path, name, enabled):
        text, error = self.CASES[name]
        path = tmp_path / name
        path.write_text(text)
        seen = []
        parse = cli.parse_dimacs if name.endswith(".col") else cli.parse_edge_json

        def spy(text):
            seen.append(gc.isenabled())
            return parse(text)

        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, parse.__name__, spy)
                if error is None:
                    cli.load_graph(str(path))
                else:
                    with pytest.raises(error):
                        cli.load_graph(str(path))
            assert seen == [False]
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


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


# every per-file command, with and without its brute-force crosscheck
PER_FILE_COMMANDS = [["recognize"], ["recognize", "--oracle-crosscheck"],
                     ["color"], ["color", "--crosscheck"], ["cwd"]]


@given(raw=st.one_of(st.binary(max_size=200), edge_json, dimacs))
@settings(max_examples=300, deadline=None)
def test_recognize_exit_codes_on_any_input(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz-input"
    path.write_bytes(raw)
    for command in PER_FILE_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([*command, str(path)])
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_REFUSED,
                        cli.EXIT_SIZE_CAP), command
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        assert isinstance(json.loads(lines[0]), dict)


# generate's numeric options: small values, which build small graphs fast,
# and values below zero or far past the vertex cap, which are refused before
# any row is allocated; a value just under the cap would build a dense graph
# of millions of edges, which a draw from 10**9..10**12 almost never gives
gen_ints = st.one_of(st.integers(-3, 4), st.integers(-10**12, -1),
                     st.integers(10**9, 10**12)).map(str)
gen_floats = st.one_of(st.floats(0, 1).map(repr),
                       st.sampled_from(["-0.5", "1.5", "nan", "inf", "-inf", "1e400"]))
gen_options = st.lists(st.one_of(
    st.tuples(st.sampled_from(["--max-class-size", "--max-component-size"]),
              gen_ints),
    st.tuples(st.sampled_from(["--a-components", "--z-components", "--universals"]),
              gen_ints, gen_ints),
    st.builds("{}={}".format, st.sampled_from(["--p-nonempty", "--p-attach"]),
              gen_floats).map(lambda opt: (opt,)),
), max_size=4)
oracle_modes = st.one_of(
    st.sampled_from([(), ("--holes",), ("--chi",), ("--clique-cutset",)]),
    st.tuples(st.just("--pattern"), st.sampled_from(["C4", "2P3", "T1", "nope"])),
)


@given(kind=st.sampled_from(["special", "saucer", "tent"]),
       seed=st.integers(-1, 10**12).map(str), options=gen_options)
@settings(max_examples=150, deadline=None)
def test_generate_exit_codes_on_any_options(tmp_path_factory, kind, seed, options):
    out = tmp_path_factory.getbasetemp() / "fuzz-generate"
    argv = ["generate", kind, "--seed", seed, "--out", str(out)]
    assert_exit_contract(argv + [arg for opt in options for arg in opt])


@given(raw=st.one_of(st.binary(max_size=200), edge_json, dimacs), mode=oracle_modes)
@settings(max_examples=150, deadline=None)
def test_oracle_exit_codes_on_any_input(tmp_path_factory, raw, mode):
    path = tmp_path_factory.getbasetemp() / "fuzz-oracle-input"
    path.write_bytes(raw)
    assert_exit_contract(["oracle", str(path), *mode])


def assert_exit_contract(argv):
    """main(argv) exits 0, 2, 3 or 4 and prints one JSON object: the report
    on stdout on success, the error on stderr otherwise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_REFUSED, cli.EXIT_SIZE_CAP)
    lines, silent = (out, err) if code == cli.EXIT_OK else (err, out)
    lines = lines.getvalue().splitlines()
    assert len(lines) == 1 and silent.getvalue() == ""
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

    def test_dot_with_several_inputs_exit_2(self, tmp_path, capsys):
        paths = [
            write_graph(tmp_path, f"g{i}.json", pattern(nm).graph)
            for i, nm in enumerate(("T0", "T1"))
        ]
        dot = tmp_path / "two.dot"
        code = cli.main(["recognize", *paths, "--dot", str(dot)])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_INPUT and out == ""
        assert "--dot" in json.loads(err)["error"]
        assert not dot.exists()
        code, reports = run(capsys, "recognize", paths[0], "--dot", str(dot))
        assert code == 0 and reports[0]["dot"] == str(dot)
        assert dot.read_text().startswith("graph decomposition {")

    def test_unwritable_dot_exit_2(self, tmp_path, capsys):
        path = write_graph(tmp_path, "t1.json", pattern("T1").graph)
        dot = str(tmp_path / "missing" / "out.dot")
        code, reports = run(capsys, "recognize", path, "--dot", dot)
        assert code == cli.EXIT_INPUT
        assert reports[0]["error"].startswith(f"cannot write {dot}")

    def test_crosscheck_cap_exit_4(self, tmp_path, capsys):
        g = build_graph(25, [(i, i + 1) for i in range(24)])
        path = write_graph(tmp_path, "big.json", g)
        code, reports = run(capsys, "recognize", path, "--oracle-crosscheck")
        assert code == cli.EXIT_SIZE_CAP
        assert reports[0]["error"] == "class verdict capped at 20 vertices"

    def test_jobs_multiple_files(self, tmp_path, capsys):
        paths = [
            write_graph(tmp_path, f"g{i}.json", pattern(nm).graph)
            for i, nm in enumerate(("T0", "T1", "C7"))
        ]
        code, reports = run(capsys, "recognize", *paths, "--jobs", "2")
        assert code == 0 and len(reports) == 3
        kinds = [r["verdict"]["kind"] for r in reports]
        assert kinds == ["in-class-with-T0", "in-class-with-T0", "in-class-with-C7"]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        path = write_graph(tmp_path, "t0.json", pattern("T0").graph)
        with pytest.raises(SystemExit) as exc:
            cli.main(["recognize", "--jobs", jobs, path, path])
        assert exc.value.code == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert "argument --jobs: must be at least 1" in captured.err
        assert captured.out == ""

    # int() takes each of these spellings; an integer option is ASCII digits
    # with an optional minus sign, as core.parse_int reads it
    @pytest.mark.parametrize("number", ["1_0", "+3", " 3 ", "٢"])
    @pytest.mark.parametrize("template", [
        "recognize {path} --jobs N", "color {path} --jobs N", "cwd {path} --jobs N",
        "generate tent --out {out} --seed N",
        "generate tent --out {out} --seed 1 --max-class-size N",
        "generate saucer --out {out} --seed 1 --a-components 1 N",
        "generate saucer --out {out} --seed 1 --z-components N 1",
        "generate special --out {out} --seed 1 --max-component-size N",
        "generate special --out {out} --seed 1 --universals 1 N",
    ])
    def test_integer_options_take_only_decimal_digits(self, tmp_path, capsys,
                                                      template, number):
        path = write_graph(tmp_path, "t0.json", pattern("T0").graph)
        argv = [number if word == "N" else word.format(path=path, out=tmp_path)
                for word in template.split()]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert f"not a decimal integer: {number!r}" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t0.json"]

    def test_jobs_one_runs_serially(self, tmp_path, capsys):
        path = write_graph(tmp_path, "t0.json", pattern("T0").graph)
        code, reports = run(capsys, "recognize", "--jobs", "1", path, path)
        assert code == 0 and len(reports) == 2

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

        monkeypatch.setattr("multiprocessing.Pool", InlinePool)
        paths = [
            write_graph(tmp_path, f"g{i}.json", pattern(nm).graph)
            for i, nm in enumerate(("T0", "C7"))
        ]
        code, reports = run(capsys, "recognize", *paths, "--jobs", "64")
        assert code == 0 and len(reports) == 2
        assert sizes == [2]

        # many inputs: the pool is also capped at the CPU count
        sizes.clear()
        for cpus, want in ((3, 3), (None, 1)):
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
            code, reports = run(capsys, "recognize", *paths * 4, "--jobs", "5000")
            assert code == 0 and len(reports) == 8
            assert sizes[-1] == want


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

    @staticmethod
    def loaded_after(argvs, lazy):
        """Run cli.main on each argv in one fresh interpreter; per call (and
        once after importing cli, as None) the exit code and which of the
        modules lazy are loaded, and the reports printed."""
        script = (
            "import sys\n"
            "from pentaseven import cli\n"
            f"lazy = {tuple(lazy)!r}\n"
            "def loaded(code):\n"
            "    print(code, sorted(m for m in lazy if m in sys.modules), file=sys.stderr)\n"
            "loaded(None)\n"
            f"for argv in {argvs!r}:\n"
            "    loaded(cli.main(argv))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stderr.splitlines(), proc.stdout.splitlines()

    def test_import_path_stays_lean(self, tmp_path):
        # each command imports what it runs, when it runs: the colorer's LP
        # fractions, the graph matrix views numpy, --jobs > 1
        # multiprocessing, cwd the expression modules and their dataclass
        # nodes, and a refusal's witness the oracle; recognize and cwd on an
        # in-class file never reach numpy, and recognize's records and the
        # oracle's are NamedTuples, so recognize never loads dataclasses or
        # inspect, not even for a witness
        from pentaseven.recognize import recognize

        t1 = write_graph(tmp_path, "t1.json", pattern("T1").graph)
        p3 = write_graph(tmp_path, "p3.json", pattern("P3").graph)
        c6 = write_graph(tmp_path, "c6.json", pattern("C6").graph)
        # refused, but past the cap of the witness search
        p21 = write_graph(tmp_path, "p21.json",
                          build_graph(21, [(i, i + 1) for i in range(20)]))
        lazy = ("fractions", "numpy", "multiprocessing", "dataclasses", "inspect",
                "pentaseven.generate", "pentaseven.color", "pentaseven.cwd",
                "pentaseven.expr", "pentaseven.oracle")
        argvs = [["recognize", t1], ["recognize", p21], ["recognize", c6],
                 ["cwd", p3], ["cwd", t1]]
        err, out = self.loaded_after(argvs, lazy)
        cwd = ("'dataclasses', 'inspect', 'pentaseven.cwd', 'pentaseven.expr', "
               "'pentaseven.oracle'")
        assert err == [
            "None []",
            "0 []",
            "0 []",
            "0 ['pentaseven.oracle']",
            f"3 [{cwd}]",
            f"0 [{cwd}]",
        ]
        large = json.loads(out[1])["verdict"]
        assert large["kind"] == "not-in-class" and "witness" not in large
        refused = json.loads(out[2])["verdict"]
        want = cli.report_to_json(recognize(pattern("C6").graph))
        assert refused["witness"] == want["witness"]

    def test_oracle_and_generate_load_no_recognition(self, tmp_path):
        c6 = write_graph(tmp_path, "c6.json", pattern("C6").graph)
        pipeline = ("pentaseven.recognize", "pentaseven.structure",
                    "pentaseven.decompose", "pentaseven._kernels")
        argvs = [["oracle", c6], ["generate", "tent", "--seed", "0",
                                  "--out", str(tmp_path)]]
        err, _ = self.loaded_after(argvs, pipeline)
        # the generators build their certificate from the definitions and
        # their graphs by expand_thickening, never by recognition
        assert err == [
            "None []",
            "0 []",
            "0 ['pentaseven.decompose', 'pentaseven.structure']",
        ]

    def test_parser_reuse_leaks_no_state(self, tmp_path, capsys, monkeypatch):
        # one parser serves every main call in the process: an option given
        # to one call must not reach the next
        path = write_graph(tmp_path, "t1.json", pattern("T1").graph)
        dot = str(tmp_path / "out.dot")
        _, first = run(capsys, "recognize", "--dot", dot, path)
        _, second = run(capsys, "recognize", path)
        assert first[0]["dot"] == dot and "dot" not in second[0]

        small = write_graph(tmp_path, "c7.json", pattern("C7").graph)
        _, first = run(capsys, "color", "--crosscheck", small)
        _, second = run(capsys, "color", small)
        assert "oracle_chi" in first[0] and "oracle_chi" not in second[0]

        from pentaseven import generate

        seen = []
        real = generate.GenParams

        def spy(**kw):
            seen.append(kw["a_components"])
            return real(**kw)

        monkeypatch.setattr(generate, "GenParams", spy)
        out = str(tmp_path / "gen")
        assert run(capsys, "generate", "saucer", "--seed", "3", "--out", out,
                   "--a-components", "1", "1")[0] == 0
        assert run(capsys, "generate", "saucer", "--seed", "3", "--out", out)[0] == 0
        assert seen == [(1, 1), (0, 2)]


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

    def test_crosscheck_cap_exit_4(self, tmp_path, capsys):
        path = write_graph(tmp_path, "big.json", build_graph(19, []))
        code, reports = run(capsys, "color", path, "--crosscheck")
        assert code == cli.EXIT_SIZE_CAP
        assert reports[0]["error"] == "chromatic number capped at 18 vertices"

    def test_cwd_t1(self, tmp_path, capsys):
        path = write_graph(tmp_path, "t1.json", pattern("T1").graph)
        code, reports = run(capsys, "cwd", path)
        assert code == 0
        rep = reports[0]
        assert rep["width"] <= 10 and rep["evaluates_to_input"] is True
        from pentaseven.expr import eval_to_graph, from_sexpr

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

    def test_out_is_a_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        code = cli.main(["generate", "saucer", "--seed", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT and captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error.startswith(f"cannot write to {out}")

    def test_draw_past_int64_exit_2(self, tmp_path, capsys):
        # numpy refuses the draw bound with a ValueError that is no size cap
        code = cli.main(["generate", "special", "--seed", "1", "--out", str(tmp_path),
                         "--max-class-size", "1000000000000000000000"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT and captured.out == ""
        assert "out of bounds for int64" in json.loads(captured.err)["error"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_out_of_range_exit_2(self, tmp_path, capsys, monkeypatch, seed):
        import pentaseven

        # the seed is checked before the generators (and numpy) are imported
        monkeypatch.delattr(pentaseven, "generate", raising=False)
        monkeypatch.delitem(sys.modules, "pentaseven.generate", raising=False)
        code = cli.main(["generate", "tent", "--seed", str(seed),
                         "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT and captured.out == ""
        assert "--seed" in json.loads(captured.err)["error"]
        assert "pentaseven.generate" not in sys.modules
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kind, option", [
        ("special", "--universals"), ("saucer", "--a-components"),
        ("tent", "--z-components"), ("tent", "--max-class-size"),
    ])
    def test_vertex_cap_exit_4(self, tmp_path, capsys, kind, option):
        # the vertex count the draws give is capped before any row exists
        from pentaseven import generate  # noqa: F401  (imported untraced)

        values = ["100000000"] * (1 if option == "--max-class-size" else 2)
        tracemalloc.start()
        try:
            code = cli.main(["generate", kind, "--seed", "0", "--out",
                             str(tmp_path), option, *values])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == cli.EXIT_SIZE_CAP and captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error.startswith(f"graphs are capped at {VERTEX_CAP} vertices, got ")
        assert peak < 1 << 20
        assert not list(tmp_path.iterdir())

    def test_out_of_memory_exit_4(self, tmp_path, capsys, monkeypatch):
        from pentaseven import generate

        def short_of_memory(builder, size):
            raise MemoryError

        monkeypatch.setattr(generate._Builder, "clique", short_of_memory)
        code = cli.main(["generate", "special", "--seed", "0", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_SIZE_CAP and captured.out == ""
        assert json.loads(captured.err)["error"] == "out of memory"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    def test_seed_range_ends_generate(self, tmp_path, capsys, seed):
        code, reports = run(capsys, "generate", "tent", "--seed", str(seed),
                            "--out", str(tmp_path))
        assert code == 0 and reports[0]["seed"] == seed
        assert all(os.path.exists(f) for f in reports[0]["files"])

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

    @pytest.mark.parametrize("mode, n, message", [
        ((), 21, "class verdict capped at 20 vertices"),
        (("--holes",), 17, "hole enumeration capped at 16 vertices"),
        (("--chi",), 19, "chromatic number capped at 18 vertices"),
        (("--clique-cutset",), 19, "clique-cutset search capped at 18 vertices"),
    ], ids=["verdict", "holes", "chi", "clique-cutset"])
    def test_caps_exit_4_with_their_message(self, tmp_path, capsys, mode, n, message):
        path = write_graph(tmp_path, "big.json", build_graph(n, []))
        code = cli.main(["oracle", path, *mode])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_SIZE_CAP and out == ""
        assert json.loads(err) == {"schema": cli.SCHEMA, "error": message}


def test_reports_byte_identical_modulo_timing(tmp_path, capsys):
    path = write_graph(tmp_path, "t0.json", pattern("T0").graph)
    _, first = run(capsys, "recognize", path)
    _, second = run(capsys, "recognize", path)
    a, b = first[0], second[0]
    a.pop("timing_ms")
    b.pop("timing_ms")
    assert a == b
