"""The `check-exact` workload of the benchmark, run once through the command
line and compared with its stored reports, so that a change to the exact
side that alters a report fails here and not first in the benchmark."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from tkit.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench_run(monkeypatch, tmp_path):
    """perfbench/run.py with its inputs written under tmp_path."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "OUT", tmp_path / "out")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out" / "inputs").mkdir(parents=True)
    return module


def test_check_exact_reports_match_expected(bench_run, capsys):
    from checks import normalize_report_stdout
    expected = json.loads(
        (PERFBENCH / "expected" / "check-exact.seed1.json").read_text())
    calls = bench_run.ladder_calls("check-exact", 1, False)
    assert sorted(call.key for call in calls) == sorted(expected)
    for call in calls:
        assert main(call.argv) == 0
        normalized, problem = normalize_report_stdout(capsys.readouterr().out)
        assert problem is None, call.key
        assert normalized == expected[call.key], call.key
