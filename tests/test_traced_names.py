"""The benchmark's tracer patches tkit functions by name; a refactor that
renames one, or stops calling it through a module global, would drop it
from `perfbench/run.py --trace 1` without an error."""
import importlib.util
from pathlib import Path

import pytest

from tkit.constructions import petersen_graph
from tkit.report import analyze

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    for mod, fn, _ in tracing.TRACED:
        module = importlib.import_module(f"tkit.{mod}")
        assert callable(getattr(module, fn, None)), f"tkit.{mod}.{fn}"


def test_instance_data_is_traced(tracing, tmp_path):
    # the ratio fit runs the one BFS, local_metric from the base, and
    # keeps its ops, so build_operators does not run;
    # ops.cells is one sweep over its levels, with no BFS per neighbour;
    # the base's raising vectors are that BFS's geodesic counts, and the
    # endpoint-one fit raises the neighbours as packed lanes, so
    # raising_powers never runs; every level of the Petersen graph fits,
    # so solve_linear never runs. The report loads tkit.decompose on first
    # use and calls decompose through that module, so both traced
    # functions of the decomposition are seen, once each
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        analyze(petersen_graph(), 0, with_decomposition=True)
    finally:
        tracer.uninstall()
    calls = {name: entry["calls"]
             for name, entry in tracing.self_times(tracer.take()).items()}
    assert calls["regularity.fit_pdr"] == calls["graphs.local_metric"] == 1
    assert "exact.build_operators" not in calls
    assert "graphs.distance_partition" not in calls
    assert "exact.raising_powers" not in calls
    assert "exact.solve_linear" not in calls
    assert calls["regularity.fit_endpoint1"] == 1
    assert calls["decompose.decompose"] == calls["decompose.commutant_basis"] == 1
