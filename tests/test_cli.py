import json
import logging
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from tkit.cli import main, _parse_shape
from tkit.decompose import AlgebraicVerdict
from tkit.constructions import cycle_graph
from tkit.exact import build_operators, describe
from tkit.graphs import GraphError, parse_graph6
from tkit.scan import ScanSummary, resolve_jobs
import tkit.cli
import tkit.decompose as decompose_module
import tkit.graphs
import tkit.report as report_module
import tkit.scan


# a tkit command line whose first random draw of a decomposition does not
# split, so that attempt is rejected
_FIRST_DRAW_UNSPLIT = """
import sys
import tkit.decompose as module
real, draws = module._eigengroups, []
def one_group_first(sym, tol):
    draws.append(sym.shape)
    return [sym] if len(draws) == 1 else real(sym, tol)
module._eigengroups = one_group_first
from tkit.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_python(script, *argv, env=None):
    """Run script with argv in a fresh interpreter that imports tkit from
    this checkout, under os.environ updated by env, where None unsets."""
    src = str(Path(tkit.cli.__file__).resolve().parents[1])
    environ = {**os.environ, **(env or {}), "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={k: v for k, v in environ.items() if v is not None})


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def ndjson_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


@pytest.fixture(scope="module")
def schema():
    text = resources.files("tkit").joinpath(
        "schema/analysis_report.schema.json").read_text()
    return json.loads(text)


def validate(schema, doc):
    if jsonschema is None:
        pytest.skip("jsonschema not installed")
    jsonschema.validate(doc, schema)


class TestCheck:
    def test_example_ndjson(self, capsys, schema):
        code, out, _ = run_cli(capsys, "check", "example", "--vertex", "1")
        assert code == 0
        (doc,) = ndjson_lines(out)
        validate(schema, doc)
        assert doc["pdr"]["alpha"] == ["2", "3", "0"]
        assert doc["pdr"]["beta"] == ["0", "1", "0"]
        assert doc["endpoint1"]["ok"] is True
        assert doc["agreement"] == "not-applicable"

    def test_example_decompose(self, capsys, schema):
        code, out, _ = run_cli(capsys, "check", "example", "--vertex", "1",
                               "--decompose")
        assert code == 0
        (doc,) = ndjson_lines(out)
        validate(schema, doc)
        assert doc["agreement"] == "agree-pass"
        assert doc["decomposition"]["verdict"]["status"] == "PASS"
        assert len(doc["decomposition"]["modules"]) == 3

    def test_include_bases_validates(self, capsys, schema):
        code, out, _ = run_cli(capsys, "check", "example", "--vertex", "1",
                               "--decompose", "--include-bases")
        assert code == 0
        (doc,) = ndjson_lines(out)
        validate(schema, doc)
        assert len(doc["decomposition"]["modules"][0]["basis"][0]) == 6

    def test_default_base_for_example(self, capsys):
        code, out, _ = run_cli(capsys, "check", "example")
        assert code == 0
        (doc,) = ndjson_lines(out)
        assert doc["base"]["label"] == "1"

    def test_vacuous_leaf(self, capsys, schema):
        code, out, _ = run_cli(capsys, "check", "path:3", "--vertex", "0",
                               "--decompose")
        assert code == 0
        (doc,) = ndjson_lines(out)
        validate(schema, doc)
        assert doc["agreement"] == "vacuous"
        assert doc["endpoint1"] == {"applicable": False,
                                    "reason": "base vertex is a leaf"}

    def test_not_applicable_not_thin(self, capsys, schema, tmp_path):
        # paw graph with a pendant: not pseudo-distance-regular at vertex a
        path = tmp_path / "g.txt"
        path.write_text("a b\nb c\nc d\nd a\na e\n")
        code, out, _ = run_cli(capsys, "check", str(path), "--all-vertices",
                               "--decompose")
        assert code == 0
        docs = ndjson_lines(out)
        for doc in docs:
            validate(schema, doc)
        assert any(doc["agreement"] == "not-applicable"
                   and not doc["pdr"]["ok"] for doc in docs)

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "check", "example", "--vertex", "1",
                               "--format", "table")
        assert code == 0
        assert "alpha" in out and "kappa" in out and "agreement" in out

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "check", "example", "--vertex", "1",
                             "--decompose", "--include-bases", "--seed", "11")
        _, out2, _ = run_cli(capsys, "check", "example", "--vertex", "1",
                             "--decompose", "--include-bases", "--seed", "11")
        assert out1 == out2

    def test_petersen_all_vertices(self, capsys):
        code, out, _ = run_cli(capsys, "check", "petersen", "--all-vertices")
        assert code == 0
        docs = ndjson_lines(out)
        assert len(docs) == 10
        assert all(doc["endpoint1"]["ok"] for doc in docs)

    def test_stdin_edge_list(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("a b\n"))
        code, out, _ = run_cli(capsys, "check", "-", "--vertex", "a",
                               "--decompose")
        assert code == 0
        (doc,) = ndjson_lines(out)
        assert doc["agreement"] == "vacuous"

    def test_missing_vertex_rejected(self, capsys):
        code, _, err = run_cli(capsys, "check", "petersen")
        assert code == 2 and "base vertex" in err

    def test_unknown_label_rejected(self, capsys):
        code, _, err = run_cli(capsys, "check", "example", "--vertex", "99")
        assert code == 2 and "unknown vertex label" in err

    def test_missing_file_rejected(self, capsys):
        code, _, err = run_cli(capsys, "check", "/does/not/exist",
                               "--vertex", "1")
        assert code == 2

    def test_disconnected_rejected(self, capsys, tmp_path):
        path = tmp_path / "g6.txt"
        path.write_text("a b\nc d\n")
        code, _, err = run_cli(capsys, "check", str(path), "--vertex", "a")
        assert code == 2 and "connected" in err

    def test_non_ascii_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes("a b\nb \u00e9\n".encode("utf-8"))
        code, _, err = run_cli(capsys, "check", str(path), "--vertex", "a")
        assert code == 2 and "cannot decode" in err and "ascii" in err

    def test_non_ascii_graph6_on_stdin_rejected(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("C\u00e9\n"))
        code, _, err = run_cli(capsys, "check", "-", "--all-vertices")
        assert code == 2 and "non-ASCII" in err

    @pytest.mark.parametrize("tol", ["0", "-1e-9", "inf", "nan"])
    def test_bad_tol_rejected(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["check", "example", "--vertex", "1", "--decompose",
                  f"--tol={tol}"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_tiny_tol_exits_2(self, capsys, caplog):
        # a cutoff below rounding noise leaves no commutant to split with,
        # and no redraw brings one back: one log line, no retry
        with caplog.at_level(logging.INFO, logger="tkit.decompose"):
            code, out, err = run_cli(capsys, "check", "example", "--vertex", "1",
                                     "--decompose", "--tol=1e-300")
        reason = "empty commutant of a dim-6 subspace at tol 1e-300"
        assert code == 2 and out == ""
        assert [r.getMessage() for r in caplog.records] == [
            f"EyW_ (n=6, m=7) base 1: {reason}"]
        assert err == f"error: EyW_ (n=6, m=7) base 1: {reason}\n"

    def test_tiny_tol_irreducible_exits_0(self, capsys):
        # irreducibility is decided exactly, and the whole space verifies
        # with a zero residual, so no cutoff is read
        code, out, err = run_cli(capsys, "check", "path:20", "--vertex", "0",
                                 "--decompose", "--tol=1e-300")
        assert code == 0 and err == ""
        (doc,) = ndjson_lines(out)
        modules = doc["decomposition"]["modules"]
        assert [(m["dim"], m["residual"]) for m in modules] == [(20, 0.0)]

    def test_split_failure_retries_then_exits_2(self, capsys, monkeypatch, caplog):
        # no random draw splits: each attempt makes one draw, is logged and
        # reseeded, and the last one ends the decomposition
        draws = []

        def one_group(sym, tol):
            draws.append(sym.shape)
            return [sym]

        monkeypatch.setattr(decompose_module, "_eigengroups", one_group)
        ops = build_operators(cycle_graph(6), 0)
        with caplog.at_level(logging.INFO, logger="tkit.decompose"):
            with pytest.raises(decompose_module.DecompositionError,
                               match="no verified decomposition after 4 attempts"):
                decompose_module.decompose(ops)
        assert draws == [(6, 6)] * 4
        assert [r.getMessage() for r in caplog.records] == [
            f"{describe(ops)} attempt {k}: could not split a dim-6 reducible "
            "subspace" for k in range(4)]
        code, out, err = run_cli(capsys, "check", "cycle:6", "--vertex", "0",
                                 "--decompose")
        assert code == 2 and out == ""
        assert err == (f"error: {describe(ops)}: no verified decomposition after "
                       "4 attempts\n")

    def test_rejected_attempt_logged_on_stderr_only(self):
        # the first draw is forced not to split: with -v its rejection is
        # one INFO line on stderr, and stdout is that of the run without -v
        argv = ["check", "cycle:6", "--vertex", "0", "--decompose"]
        quiet, verbose = (run_python(_FIRST_DRAW_UNSPLIT, *argv, *flag)
                          for flag in ([], ["-v"]))
        ops = build_operators(cycle_graph(6), 0)
        assert quiet.returncode == verbose.returncode == 0
        assert quiet.stdout == verbose.stdout and quiet.stderr == ""
        assert ndjson_lines(quiet.stdout)[0]["decomposition"]["modules"]
        assert verbose.stderr == (f"INFO tkit.decompose: {describe(ops)} attempt 0: "
                                  "could not split a dim-6 reducible subspace\n")

    def test_decomposition_error_exits_2(self, capsys, monkeypatch):
        def rejected(*args):
            raise decompose_module._Rejected("stub")

        monkeypatch.setattr(decompose_module, "_verify_and_summarize", rejected)
        code, out, err = run_cli(capsys, "check", "petersen", "--vertex", "3",
                                 "--decompose")
        assert code == 2 and out == ""
        assert err.startswith("error: IheA@GUAo (n=10, m=15) base 3: no verified "
                              "decomposition")

    @pytest.mark.parametrize("source,base,guarded,what,nbytes", [
        # the example at base 1 has levels of sizes 1, 2, 3 and a reducible
        # space, whose commutant solve would stack four 36 x 36 blocks
        pytest.param("example", "1", "commutant_basis",
                     "the Kronecker commutant stack", 41472,
                     id="commutant_basis-Kronecker commutant stack-41472"),
        # path:20 at an end vertex is irreducible, so its largest arrays are
        # 20 x 20; their size is checked before anything is built
        pytest.param("path:20", "0", "adjacency_matrix", "a dense 20 x 20 array",
                     3200, id="adjacency_matrix-dense 20 x 20 array-3200")])
    def test_dense_array_above_limit_exits_2(self, capsys, monkeypatch, source,
                                             base, guarded, what, nbytes):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{guarded} ran above the limit")

        g, _ = tkit.cli.load_graph(source)
        ops = build_operators(g, g.index_of(base))
        monkeypatch.setattr(decompose_module, "MAX_DENSE_BYTES", nbytes - 1)
        monkeypatch.setattr(decompose_module, guarded, unreachable)
        code, out, err = run_cli(capsys, "check", source, "--vertex", base,
                                 "--decompose")
        assert code == 2 and out == ""
        assert err == (f"error: {describe(ops)}: {what} needs {nbytes} bytes, "
                       f"above the limit of {nbytes - 1}\n")

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        # a 100 000-cycle under a 3 GB address-space limit ran out of memory
        # in the report's graph6 string, n (n - 1) / 12 bytes
        def out_of_memory(g):
            raise MemoryError

        monkeypatch.setattr(tkit.graphs, "to_graph6", out_of_memory)
        code, out, err = run_cli(capsys, "check", "cycle:12", "--vertex", "0")
        assert code == 2 and out == ""
        assert err == "error: out of memory analysing a graph with n=12 and m=12\n"

    def test_check_without_decompose_loads_no_numpy(self):
        # numpy is imported with tkit.decompose, on the first decomposition
        script = ("import sys\n"
                  "from tkit.cli import main\n"
                  "code = main(['check', 'petersen', '--vertex', '0'])\n"
                  "print(code, 'numpy' in sys.modules, 'tkit.decompose' in sys.modules,"
                  " file=sys.stderr)\n")
        proc = run_python(script)
        assert proc.stderr == "0 False False\n"
        assert json.loads(proc.stdout)["graph"]["n"] == 10

    def test_package_import_loads_no_numpy(self):
        # the numeric side is the submodule tkit.decompose, whose function
        # of the same name is an attribute of it; and only a scan that
        # forks imports multiprocessing
        script = ("import sys, types\n"
                  "import tkit\n"
                  "print('numpy' in sys.modules, 'multiprocessing' in sys.modules)\n"
                  "import tkit.decompose as D\n"
                  "print(isinstance(D, types.ModuleType), D is tkit.decompose,"
                  " isinstance(D.decompose, types.FunctionType))\n")
        proc = run_python(script)
        assert (proc.stdout, proc.stderr) == ("False False\nTrue True True\n", "")

    def test_closed_stdout_exits_1_without_traceback(self):
        # the reports of cycle:300 at every vertex, about 10 MB, are more
        # than a pipe holds, so the writer meets the closed pipe
        src = str(Path(tkit.cli.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "tkit", "check", "cycle:300", "--all-vertices"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src})
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert json.loads(first)["graph"]["n"] == 300
        assert err == ""

    @pytest.mark.parametrize("argv", [
        ["check", "example", "--vertex", "1", "--decompose"],
        ["scan", "--generate", "4", "--jobs", "1"]])
    def test_negative_seed_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed: expected a non-negative integer, got '-1'" in err

    @pytest.mark.parametrize("argv", [
        ["check", "example", "--vertex", "1", "--decompose"],
        ["scan", "--generate", "4", "--jobs", "1"]])
    def test_seed_zero_runs(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--seed", "0")
        assert code == 0 and out

    def test_huge_builtin_exits_2_before_building(self, capsys, monkeypatch):
        monkeypatch.setitem(tkit.cli._FAMILIES, "complete", None)
        code, out, err = run_cli(capsys, "check", "complete:100000000")
        assert code == 2 and out == ""
        assert err == ("error: complete:100000000 is above the builtin size "
                       "limit N <= 1000\n")

    def test_builtin_at_size_limit(self):
        g, _ = tkit.cli.load_graph(f"path:{tkit.cli.BUILTIN_MAX_N}")
        assert g.n == tkit.cli.BUILTIN_MAX_N == 1000

    @pytest.mark.parametrize("argv", [["-v", "check"], ["check", "-v"]])
    def test_verbose_either_side_of_subcommand(self, capsys, monkeypatch, argv):
        levels = []
        monkeypatch.setattr(tkit.cli.logging, "basicConfig",
                            lambda **kw: levels.append(kw["level"]))
        code, out, _ = run_cli(capsys, *argv, "example", "--vertex", "1")
        assert code == 0 and levels == [logging.INFO]
        (doc,) = ndjson_lines(out)
        assert doc["pdr"]["ok"] is True

    def test_graph6_file_input(self, capsys, tmp_path):
        path = tmp_path / "k3.g6"
        path.write_text("Bw\n")
        code, out, _ = run_cli(capsys, "check", str(path), "--all-vertices")
        assert code == 0
        assert len(ndjson_lines(out)) == 3

    @pytest.mark.parametrize("text, message", [
        ("0 1\n1 2\n2 3 4\n", "line 3: expected two vertex tokens, got 3"),
        ("0 1\n1\n", "line 2: expected two vertex tokens, got 1"),
        ("Bw\nBw\n", "expected a single graph6 record"),
        ("# a comment\n", "no edges found"),
    ], ids=["three-tokens", "one-token", "two-graph6-records", "comment-only"])
    def test_auto_input_names_the_bad_line(self, capsys, tmp_path, text, message):
        # a line of two or more tokens, or a '#', which no graph6 record
        # holds, makes the text an edge list, so a malformed line of one is
        # reported as such, not as bad graph6
        path = tmp_path / "g.txt"
        path.write_text(text)
        code, _, err = run_cli(capsys, "check", str(path), "--all-vertices")
        assert code == 2 and message in err


    def test_table_with_decomposition(self, capsys):
        code, out, _ = run_cli(capsys, "check", "example", "--vertex", "1",
                               "--decompose", "--format", "table")
        assert code == 0
        assert out.splitlines()[-5:] == [
            "decomposition: 3 modules, verdict PASS",
            "  endpoint 0 dim 3 levels [1, 1, 1] thin=True class 0",
            "  endpoint 1 dim 2 levels [0, 1, 1] thin=True class 1",
            "  endpoint 2 dim 1 levels [0, 0, 1] thin=True class 2",
            "agreement: agree-pass"]
        code, out, _ = run_cli(capsys, "check", "example", "--vertex", "2",
                               "--decompose", "--format", "table")
        assert "verdict NOT_APPLICABLE (trivial module not thin)" in out

    def test_exit_3_on_mismatch(self, capsys, monkeypatch):
        # K4 passes on both sides at every base; the numeric verdict is
        # forced to FAIL at the second base only, so that instance disagrees
        verdict = report_module.algebraic_verdict
        calls = []

        def forced(rep):
            calls.append(rep)
            if len(calls) == 2:
                return AlgebraicVerdict(decompose_module.FAIL, "forced")
            return verdict(rep)

        monkeypatch.setattr(report_module, "algebraic_verdict", forced)
        code, out, _ = run_cli(capsys, "check", "complete:4", "--all-vertices",
                               "--decompose")
        assert code == 3
        assert [doc["agreement"] for doc in ndjson_lines(out)] == [
            "agree-pass", "MISMATCH", "agree-pass", "agree-pass"]


class TestBadInput:
    @pytest.mark.parametrize("text, argv, message", [
        ("~~??????????\n", ["check", "{path}", "--all-vertices"],
         "graph6 offset 1: 8-byte size header not supported"),
        ("~?\n", ["check", "{path}", "--all-vertices"],
         "graph6 offset 0: truncated extended size header"),
        ("~?!?\n", ["check", "{path}", "--all-vertices"],
         "graph6 offset 2: byte out of range"),
        ("!\n", ["check", "{path}", "--all-vertices"],
         "graph6 offset 0: size byte out of range"),
        ("?\n", ["check", "{path}", "--all-vertices"],
         "graph6 encodes an empty vertex set"),
        (">>graph6<<\n", ["check", "{path}", "--all-vertices"],
         "empty graph6 input"),
        ("", ["check", "{path}", "--all-vertices"],
         "expected a single graph6 record"),
        ("# no edges\n", ["check", "{path}", "--all-vertices"],
         "no edges found"),
        ("Bw\n", ["scan", "{path}", "--generate", "3"],
         "give either a corpus or --generate, not both"),
        ("a b\nc d\n", ["oracle", "{path}", "a", "r", "b", "b"],
         "graph is disconnected: vertex c unreachable"),
        ("a b\nc d\n", ["partition", "{path}", "a", "b"],
         "graph is disconnected: vertex c unreachable"),
        ("", ["check", "example", "--vertex", "1", "--tol", "abc"],
         "--tol: expected a positive finite number, got 'abc'"),
        ("", ["check", "example", "--vertex", "1", "--all-vertices"],
         "argument --all-vertices: not allowed with argument --vertex"),
    ], ids=["graph6-8-byte-header", "graph6-truncated-header",
            "graph6-bad-header-byte", "graph6-size-byte", "graph6-no-vertices",
            "graph6-empty-record", "empty-file", "edgelist-no-edges",
            "scan-corpus-and-generate", "oracle-disconnected",
            "partition-disconnected", "tol-not-a-number",
            "check-vertex-and-all-vertices"])
    def test_exits_2_with_a_message(self, capsys, tmp_path, text, argv, message):
        path = tmp_path / "input.txt"
        path.write_text(text)
        try:
            code = main([arg.format(path=path) for arg in argv])
        except SystemExit as exc:  # argparse rejects an option value
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2
        assert message in err and "Traceback" not in err
        assert out == ""

    # local_metric's search is the one connectivity proof of these
    # subcommands; it names the first vertex, by index, that it does not
    # reach from the base
    @pytest.mark.parametrize("argv, unreachable", [
        (["check", "{path}", "--vertex", "c"], "a"),
        (["check", "{path}", "--all-vertices"], "c"),
        (["oracle", "{path}", "d", "r", "c", "c"], "a"),
        (["partition", "{path}", "c", "d"], "a"),
        (["construct", "{path}", "b", "empty", "2"], "c"),
    ], ids=["check-vertex", "check-all-vertices", "oracle", "partition",
            "construct"])
    def test_disconnected_input(self, capsys, tmp_path, argv, unreachable):
        path = tmp_path / "input.txt"
        path.write_text("a b\nc d\n")
        code = main([arg.format(path=path) for arg in argv])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"error: graph is disconnected: vertex {unreachable} unreachable\n"


class TestConstruct:
    def test_empty_fiber_edgelist(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "example", "1", "empty", "2")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        vertices = {tok for ln in lines for tok in ln.split()}
        assert len(vertices) == 13 and "w" in vertices

    def test_complete_fiber_graph6(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "example", "1",
                               "complete", "3", "--output", "graph6")
        assert code == 0
        g = parse_graph6(out.strip())
        assert g.n == 19

    def test_irregular_fiber_rejected(self, capsys):
        code, _, err = run_cli(capsys, "construct", "example", "1", "path", "3")
        assert code == 2 and "regular" in err

    def test_huge_fibre_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "construct", "example", "1",
                                 "complete", "1001")
        assert code == 2 and out == ""
        assert "complete:1001 is above the builtin size limit" in err

    def test_huge_output_exits_2_before_building(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("apex_extension must not run")

        monkeypatch.setattr(tkit.cli, "apex_extension", fail)
        code, out, err = run_cli(capsys, "construct", "complete:100", "0",
                                 "complete", "100")
        assert code == 2 and out == ""
        assert "100 * 100 + 1 = 10001 vertices" in err

    def test_output_at_size_limit(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "cycle:37", "0",
                               "complete", "27", "--output", "graph6")
        assert code == 0
        assert parse_graph6(out.strip()).n == tkit.cli.BUILTIN_MAX_N == 1000

    def test_output_feeds_back_into_check(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "example", "1", "empty", "2")
        assert code == 0
        import io, sys
        stdin_backup = sys.stdin
        try:
            sys.stdin = io.StringIO(out)
            code2, out2, _ = run_cli(capsys, "check", "-", "--vertex", "w")
            assert code2 == 0
            (doc,) = ndjson_lines(out2)
            assert doc["endpoint1"]["ok"] is True
        finally:
            sys.stdin = stdin_backup


class TestScan:
    def test_generate_4_clean(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--generate", "4", "--jobs", "1")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[0])
        assert summary["mismatch_count"] == 0
        assert summary["graphs"] == 38
        assert summary["counts"]["agree-pass"] > 0

    def test_corpus_file(self, capsys, tmp_path):
        path = tmp_path / "corpus.g6"
        path.write_text(">>graph6<<Bw\nDhc\n")
        code, out, _ = run_cli(capsys, "scan", str(path), "--jobs", "1")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[0])
        assert summary["graphs"] == 2

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--generate", "3", "--jobs", "1",
                               "--format", "table")
        assert code == 0
        assert "mismatches: 0" in out

    def test_exit_3_on_mismatch(self, capsys, monkeypatch):
        fake = ScanSummary()
        fake.graphs = 1
        fake.instances = 1
        fake.mismatches.append({"schema": "tkit-analysis-report/1"})
        monkeypatch.setattr(tkit.cli, "scan_corpus",
                            lambda *a, **k: fake)
        code, out, _ = run_cli(capsys, "scan", "--generate", "2")
        assert code == 3
        assert json.loads(out.strip().splitlines()[0])["mismatch_count"] == 1

    def test_mismatch_path(self, capsys, monkeypatch, tmp_path):
        # K4 passes on both sides at every base; the numeric verdict is
        # forced to FAIL at base 0 only, so that instance disagrees
        graph6 = "C~"
        target = tkit.scan.instance_seed(42, graph6, 0)
        verdict = report_module.algebraic_verdict

        def forced(rep):
            if rep.seed == target:
                return AlgebraicVerdict(decompose_module.FAIL, "forced")
            return verdict(rep)

        monkeypatch.setattr(report_module, "algebraic_verdict", forced)
        out = tkit.scan.scan_graph(graph6)
        assert out["counts"]["agree-pass"] == 3
        assert out["counts"]["agree-fail"] == 0
        expected = report_module.analyze(parse_graph6(graph6), 0,
                                         with_decomposition=True, seed=target)
        assert out["mismatches"] == [report_module.report_to_dict(expected)]
        assert expected.agreement == "MISMATCH"

        path = tmp_path / "corpus.g6"
        path.write_text(graph6 + "\n")
        code, out, _ = run_cli(capsys, "scan", str(path), "--jobs", "1")
        assert code == 3
        assert json.loads(out.strip().splitlines()[0])["mismatch_count"] == 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_progress_on_stderr_only(self, capsys, monkeypatch, tmp_path, jobs):
        path = tmp_path / "corpus.g6"
        path.write_text("Bw\nDhc\nC~\nDLo\nCr\n")
        code, quiet, err = run_cli(capsys, "scan", str(path), "--jobs", jobs)
        assert code == 0 and err == ""
        monkeypatch.setattr(tkit.scan, "PROGRESS_EVERY", 2)
        code, out, err = run_cli(capsys, "scan", str(path), "--jobs", jobs, "--progress")
        assert code == 0 and out == quiet
        lines = err.splitlines()
        assert len(lines) == 2
        for done, line in zip((2, 4), lines):
            assert re.fullmatch(rf"# scanned {done} graphs, \d+ graphs/s, ETA \d+ s", line)
        # an enumeration's length is known from its table: an ETA too
        monkeypatch.setattr(tkit.scan, "PROGRESS_EVERY", 10)
        code, _, err = run_cli(capsys, "scan", "--generate", "4", "--jobs", jobs,
                               "--progress")
        assert code == 0 and len(err.splitlines()) == 3
        assert all(re.fullmatch(r"# scanned \d0 graphs, \d+ graphs/s, ETA \d+ s", line)
                   for line in err.splitlines())

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_generate_below_one_rejected(self, capsys, n):
        code, out, err = run_cli(capsys, "scan", "--generate", n)
        assert code == 2 and out == ""
        assert err == "error: n must be positive\n"

    def test_generate_bound(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--generate", "9")
        assert code == 2 and "n <= 7" in err

    def test_needs_source(self, capsys):
        code, _, err = run_cli(capsys, "scan")
        assert code == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("record", ["C?", "Cg", "DgC", "Ek?G", "Fh?GG"])
    def test_disconnected_record_rejected(self, capsys, tmp_path, record, jobs):
        # C? has only isolated vertices, which used to pass as vacuous,
        # and is searched from vertex 0 on its own; Cg has a vertex of
        # degree 2, which used to abort unnamed; the rest are named by the
        # search of their first base of degree >= 2. For DgC, P3 + K2,
        # that is base 1, which is thin; for Ek?G, P4 + K2, base 0, which
        # fails the ratio fit on level 1 like base 1; for Fh?GG, P4 + P3,
        # base 1 on the P4, whatever the thin centre of the P3 finds
        missing = {"C?": 1, "Cg": 3, "DgC": 3, "Ek?G": 4, "Fh?GG": 4}[record]
        path = tmp_path / "corpus.g6"
        path.write_text(f"Bw\n{record}\nDhc\n")
        code, out, err = run_cli(capsys, "scan", str(path), "--jobs", jobs)
        assert code == 2 and out == ""
        assert err == (f"error: record 2 ({record}): graph is disconnected: "
                       f"vertex {missing} unreachable\n")

    def test_missing_corpus_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "scan", str(tmp_path / "absent.g6"))
        assert code == 2 and "cannot read" in err

    def test_non_ascii_corpus_rejected(self, capsys, tmp_path):
        path = tmp_path / "corpus.g6"
        path.write_bytes("Bw\nC\u00e9\n".encode("utf-8"))
        code, _, err = run_cli(capsys, "scan", str(path), "--jobs", "1")
        assert code == 2 and "cannot decode" in err and "ascii" in err


class TestScanBlasThreads:
    # a scan that loads numpy itself asks for one BLAS thread; a variable
    # already set stays, and a caller that imported numpy first is left alone
    SCRIPT = ("import os, sys\n"
              "if sys.argv[1:] == ['numpy-first']:\n"
              "    import numpy\n"
              "import tkit.cli\n"
              "code = tkit.cli.main(['scan', '--generate', '3', '--jobs', '1'])\n"
              "print(code, *map(os.environ.get, tkit.cli.BLAS_THREAD_VARIABLES))\n")
    UNSET = dict.fromkeys(tkit.cli.BLAS_THREAD_VARIABLES)

    @pytest.mark.parametrize("argv, env, printed", [
        ([], {}, "0 1 1 1"),
        ([], {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "3",
              "MKL_NUM_THREADS": "3"}, "0 3 3 3"),
        ([], {"OMP_NUM_THREADS": "3"}, "0 1 3 1"),
        (["numpy-first"], {}, "0 None None None"),
    ], ids=["unset", "preset", "one-preset", "numpy-first"])
    def test_thread_variables(self, argv, env, printed):
        proc = run_python(self.SCRIPT, *argv, env={**self.UNSET, **env})
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == printed


class TestOracle:
    def test_agreeing_counts(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "example", "1", "rl", "2", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"shape": "rl", "family": "rl", "m": 1,
                       "walk_table": "1", "enumeration": "1", "agree": True}

    def test_empty_shape(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "example", "1", "", "2", "2")
        assert code == 0
        assert json.loads(out)["walk_table"] == "1"

    def test_ecc_bound_zero(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "example", "1", "rr", "2", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["walk_table"] == doc["enumeration"] == "0"

    def test_walk_longer_than_recursion_limit(self, capsys):
        # 999 raising steps from the end of path:1000: one walk, with more
        # steps than Python's default recursion limit of 1000 frames
        code, out, _ = run_cli(capsys, "oracle", "path:1000", "0", "r" * 999,
                               "0", "999")
        assert code == 0 and '"agree":true' in out
        assert json.loads(out)["enumeration"] == "1"

    def test_disagreement_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(tkit.cli, "enumerate_walks", lambda *a, **k: 999)
        code, out, _ = run_cli(capsys, "oracle", "example", "1", "rl", "2", "3")
        assert code == 4

    def test_bad_shape_rejected(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "example", "1", "rlr", "2", "3")
        assert code == 2

    @pytest.mark.parametrize("shape, y", [("rl", "4"), ("rl", "1"), ("lr", "1"),
                                          ("rf", "1"), ("r", "4")],
                             ids=["level-2", "rl-from-x", "lr-from-x", "rf-from-x",
                                  "r-from-level-2"])
    def test_unread_column_rejected(self, capsys, shape, y):
        # the fits read family r from the base and every family from its
        # neighbours; 4 is on level 2 of the example
        code, out, err = run_cli(capsys, "oracle", "example", "1", shape, y, "5")
        assert code == 2 and out == ""
        assert f"no fit reads {shape!r} walks from {y}" in err

    def test_parse_shape(self):
        assert _parse_shape("") == ("r", 0)
        assert _parse_shape("rrr") == ("r", 3)
        assert _parse_shape("rrl") == ("rl", 2)
        assert _parse_shape("lrr") == ("lr", 2)
        assert _parse_shape("rf") == ("rf", 1)
        assert _parse_shape("l") == ("rl", 0)
        with pytest.raises(GraphError):
            _parse_shape("rlf")


class TestPartition:
    def test_example_cells(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "example", "1", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["cells"]["1,0"] == ["2"]
        assert doc["cells"]["1,1"] == ["3"]
        assert doc["cells"]["2,1"] == ["4", "5"]
        assert doc["cells"]["2,2"] == ["6"]

    def test_non_edge_rejected(self, capsys):
        code, _, err = run_cli(capsys, "partition", "example", "1", "4")
        assert code == 2 and "not adjacent" in err


class TestJobsResolution:
    # resolve_jobs is called directly; no worker process is started
    @pytest.fixture(autouse=True)
    def cores(self, monkeypatch):
        monkeypatch.setattr(tkit.scan.os, "cpu_count", lambda: 8)

    def test_explicit_wins(self):
        assert resolve_jobs(3) == 3

    @pytest.mark.parametrize("jobs", [None, 0, -3])
    def test_default_all_cores(self, jobs):
        assert resolve_jobs(jobs) == 8

    def test_huge_clamped_to_cores(self):
        assert resolve_jobs(10 ** 6) == 8

    # the former TK_JOBS variable is not read: --jobs is the one setting
    @pytest.mark.parametrize("env", ["5", "0", "-2", "2.5", "1e6", "", "many"])
    def test_unusable_env_means_all_cores(self, monkeypatch, env):
        monkeypatch.setenv("TK_JOBS", env)
        assert resolve_jobs(None) == 8

    def test_unknown_core_count(self, monkeypatch):
        monkeypatch.setattr(tkit.scan.os, "cpu_count", lambda: None)
        assert resolve_jobs(4) == 1


class TestParserBuiltOnce:
    # main builds its parser once per process; each call in a mixed run of
    # subcommands and options must parse, print and exit as it does on a
    # parser built for that call alone
    CALLS = (
        ("-v", "check", "example", "--decompose"),
        ("check", "example"),
        ("check", "petersen", "--vertex", "0", "-v"),
        ("-v", "check", "example", "--vertex", "2", "-v", "--format", "table"),
        ("check", "example", "--no-such-option"),
        ("scan", "--generate", "4", "--jobs", "1"),
        ("check", "path:4", "--all-vertices"),
        ("partition", "example", "1", "2"),
        ("check", "example", "--decompose", "--seed", "7"),
        ("check", "example"),
    )

    @staticmethod
    def _run(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_successive_calls_match_fresh_ones(self, capsys):
        tkit.cli._parser.cache_clear()
        successive = [self._run(capsys, argv) for argv in self.CALLS]
        assert tkit.cli._parser.cache_info().misses == 1
        fresh = []
        for argv in self.CALLS:
            tkit.cli._parser.cache_clear()
            fresh.append(self._run(capsys, argv))
        assert successive == fresh
        assert [code for code, _, _ in successive] == [0, 0, 0, 0, 2, 0, 0, 0, 0, 0]

    def test_successive_namespaces_match_fresh_ones(self):
        parser = tkit.cli._parser()
        for argv in self.CALLS:
            if "--no-such-option" in argv:
                continue
            assert (vars(parser.parse_args(list(argv)))
                    == vars(tkit.cli.build_parser().parse_args(list(argv))))
