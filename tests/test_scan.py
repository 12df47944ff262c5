"""The scan's class cache: a replayed outcome gives what the analysis
gives, each instance keeps its own records, the cache lives for one
scan_corpus call, and the 1 % self-check turns a stale outcome into a
mismatch."""
import json
from dataclasses import replace

import pytest

import tkit.scan
from tkit.cli import main
from tkit.constructions import cycle_graph
from tkit.graphs import local_metric, parse_graph6, rooted_key, to_graph6
from tkit.report import MISMATCH
from tkit.scan import (CACHE_MISMATCH, SELF_CHECK_EVERY, generate_connected_graph6,
                       instance_seed, scan_corpus, scan_graph)


def scan_stdout(capsys, *argv):
    code = main(["scan", *argv])
    return code, capsys.readouterr().out


@pytest.fixture
def analyses(monkeypatch):
    """The seeds of the analyses the scan runs, in order."""
    calls = []
    analyze_fitted = tkit.scan.analyze_fitted

    def counted(ops, pdr, **kwargs):
        calls.append(kwargs["seed"])
        return analyze_fitted(ops, pdr, **kwargs)

    monkeypatch.setattr(tkit.scan, "analyze_fitted", counted)
    return calls


def class_instances(n, graph, base):
    """(graph6, base) of every instance of the rooted class of (graph,
    base) in the labelled corpus on n vertices, in scan order."""
    g = parse_graph6(graph)
    key = rooted_key(g, local_metric(g, base))
    out = []
    for record in generate_connected_graph6(n):
        h = parse_graph6(record)
        out.extend((record, str(x)) for x in range(n)
                   if rooted_key(h, local_metric(h, x)) == key)
    return out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_replay_matches_analysis(capsys, monkeypatch, jobs):
    cached = [scan_stdout(capsys, "--generate", str(n), "--jobs", jobs)
              for n in range(1, 6)]
    # a key unique to each instance defeats the cache
    monkeypatch.setattr(tkit.scan, "rooted_key", lambda g, metric: object())
    fresh = [scan_stdout(capsys, "--generate", str(n), "--jobs", jobs)
             for n in range(1, 6)]
    assert cached == fresh
    assert all(code == 0 for code, _ in cached)


def test_each_class_analyzed_once(monkeypatch):
    calls = []
    analyze_fitted = tkit.scan.analyze_fitted

    def keyed(ops, pdr, **kwargs):
        calls.append((rooted_key(ops.graph, ops.metric), kwargs["seed"]))
        return analyze_fitted(ops, pdr, **kwargs)

    monkeypatch.setattr(tkit.scan, "analyze_fitted", keyed)
    summary = scan_corpus(generate_connected_graph6(5), jobs=1)
    # 560 thin instances at a base of degree >= 2 fall into 16 rooted
    # classes; every analysis but the first of its class is a self-check
    assert summary.counts["agree-pass"] + summary.counts["agree-fail"] == 560
    seen = set()
    for key, seed in calls:
        assert key not in seen or seed % SELF_CHECK_EVERY == 0
        seen.add(key)
    assert (len(seen), len(calls)) == (16, 23)


def test_cache_lives_for_one_call(analyses):
    corpus = list(generate_connected_graph6(4))
    scan_corpus(corpus, jobs=1)
    first = len(analyses)
    scan_corpus(corpus, jobs=1)
    assert len(analyses) == 2 * first


def test_scan_graph_alone_caches_that_graph(analyses):
    # K4: one rooted class at its four bases
    out = scan_graph("C~")
    assert out["counts"]["agree-pass"] == 4 and len(analyses) == 1
    scan_graph("C~")
    assert len(analyses) == 2


UP_CELL_PROBLEM = "nonempty upward cell coexists with a mid cell below it"


def forced_structure(monkeypatch, seeds, **fields):
    """Make the analyses with these instance seeds report their structure
    with fields replaced."""
    analyze_fitted = tkit.scan.analyze_fitted

    def forced(ops, pdr, **kwargs):
        report = analyze_fitted(ops, pdr, **kwargs)
        if kwargs["seed"] in seeds:
            report = replace(report, structure=replace(report.structure, **fields))
        return report

    monkeypatch.setattr(tkit.scan, "analyze_fitted", forced)


def test_replayed_findings_name_their_instance(monkeypatch, analyses):
    # the 4-cycle at any base, forced to break a structure predicate and to
    # vary its thresholds; no other rooted class is touched
    instances = class_instances(4, to_graph6(cycle_graph(4)), 0)
    assert len(instances) == 12
    seeds = {instance_seed(42, graph, int(base)) for graph, base in instances}
    forced_structure(monkeypatch, seeds, up_blocks_mid=False,
                     threshold_constant=False)
    summary = scan_corpus(generate_connected_graph6(4), jobs=1)
    assert summary.structure_violations == [
        {"graph6": graph, "base": base, "problem": UP_CELL_PROBLEM}
        for graph, base in instances]
    assert summary.varying_thresholds == [
        {"graph6": graph, "base": base} for graph, base in instances]
    # one miss, the rest replayed
    assert len(seeds & set(analyses)) == 1


def test_self_check_reports_a_stale_outcome(capsys, monkeypatch, tmp_path):
    # two labelled 5-cycles: DLo is analyzed at base 0 and replays at 1-4;
    # Dhc at base 0 is a hit that the self-check selects, and its fresh
    # analysis is forced to find a structure problem the stored outcome lacks
    target = instance_seed(42, "Dhc", 0)
    assert target % SELF_CHECK_EVERY == 0
    forced_structure(monkeypatch, {target}, up_blocks_mid=False)
    summary = scan_corpus(["DLo", "Dhc"], jobs=1)
    assert summary.counts["agree-pass"] == 9
    assert summary.structure_violations == []
    (mismatch,) = summary.mismatches
    assert (mismatch["agreement"], mismatch["agreement_reason"]) == (MISMATCH, CACHE_MISMATCH)
    assert (mismatch["graph"]["graph6"], mismatch["base"]["label"], mismatch["seed"]) == (
        "Dhc", "0", target)

    path = tmp_path / "corpus.g6"
    path.write_text("DLo\nDhc\n")
    code, out = scan_stdout(capsys, str(path), "--jobs", "1")
    assert code == 3
    lines = out.strip().splitlines()
    assert json.loads(lines[0])["mismatch_count"] == 1
    assert json.loads(lines[1]) == mismatch


def test_self_check_agrees_on_a_clean_scan(analyses):
    summary = scan_corpus(["DLo", "Dhc"], jobs=1)
    assert summary.clean and summary.counts["agree-pass"] == 10
    assert analyses == [instance_seed(42, "DLo", 0), instance_seed(42, "Dhc", 0)]
