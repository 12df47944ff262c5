"""Tests of the benchmark harness itself, in seconds:

    python3 -m pytest -q perfbench

Every workload runs in smoke mode (a few tiny graphs) untraced and traced.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import graph6_degrees, normalize_report_stdout
from run import WORKLOADS
from tracing import self_times

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = CONFIG["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_other_seed_falls_back_to_self_consistency():
    proc = bench("--workload", "check-exact", "--seed", "7", "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr


def test_bare_checkout_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "scan-n6", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_graph6_degrees_match_the_program_decoder():
    sys.path.insert(0, str(ROOT / "src"))
    from tkit.graphs import parse_graph6
    from tkit.scan import generate_connected_graph6
    for record in list(generate_connected_graph6(6))[::97]:
        g = parse_graph6(record)
        assert graph6_degrees(record) == [g.degree(v) for v in range(g.n)]


def test_report_check_flags_mismatch_and_large_residual():
    line = ('{"agreement":"agree-pass","decomposition":{"modules":[{"residual":%s}]},'
            '"tol":1e-09}\n')
    normalized, problem = normalize_report_stdout(line % "1.5e-15")
    assert problem is None and '"residual":"checked"' in normalized
    assert normalize_report_stdout(line % "1.5e-15" + line % "2.5e-16")[0] == normalized * 2
    assert normalize_report_stdout(line % "2e-06")[1].startswith("residual")
    assert normalize_report_stdout(line.replace("agree-pass", "MISMATCH") % "0")[1]
    assert normalize_report_stdout("")[1] == "no report printed"


def test_self_time_subtracts_direct_children_in_the_same_process():
    spans = [
        {"pid": 1, "seq": 0, "parent": None, "name": "a", "start_ns": 0, "end_ns": 100},
        {"pid": 1, "seq": 1, "parent": [1, 0], "name": "b", "start_ns": 10, "end_ns": 40},
        {"pid": 1, "seq": 2, "parent": [1, 1], "name": "c", "start_ns": 20, "end_ns": 30},
        {"pid": 2, "seq": 5, "parent": [1, 0], "name": "b", "start_ns": 0, "end_ns": 90},
    ]
    times = self_times(spans)
    assert times["a"] == {"calls": 1, "self_s": 70e-9}
    assert times["b"]["calls"] == 2
    assert times["b"]["self_s"] == pytest.approx(110e-9)
    assert times["c"]["self_s"] == pytest.approx(10e-9)
