"""The scan's class cache: a replayed outcome gives what the analysis
gives, each instance keeps its own records, the cache lives for one
scan_corpus call, and the 1 % self-check turns a stale outcome into a
mismatch. The batch thinness pass: only its thin bases and the bases of
every SELF_CHECK_EVERY-th record are fitted, a fit that refutes it is a
mismatch, and every record it leaves to parse_graph6 scans or fails as
before. The scan's processes: big messages do not deadlock, results
merge in input order, a dead worker or a bad record raises, `--jobs N`
starts N - 1 workers, and none is left behind."""
import json
import multiprocessing
import os
import signal
from dataclasses import replace

import numpy as np
import pytest

import tkit.exact
import tkit.regularity
import tkit.scan
from tkit.cli import main
from tkit.constructions import cycle_graph, path_graph
from tkit.exact import LocalOperators
from tkit.graphs import LocalMetric, local_metric, parse_graph6, rooted_key, to_graph6
from tkit.report import MISMATCH
from tkit.graphs import GraphError
from tkit.regularity import fit_pdr, thin_bases
from tkit.scan import (BATCH_MAX_N, BATCH_RECORDS, CACHE_MISMATCH, CATEGORY_KEYS,
                       SELF_CHECK_EVERY, THIN_MISMATCH, generate_connected_graph6,
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


def test_non_thin_bases_build_nothing(monkeypatch):
    # every base of Dj_ of degree >= 2 fails the ratio fit at level 1, so
    # the scan builds no metric or operators, keys no class and sweeps no
    # cells; K3 (Bw) is thin at every base and builds both
    built = []
    for cls in (LocalMetric, LocalOperators):
        def logged(self, *args, init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", logged)

    def unused(*args):
        raise AssertionError("called on a base that is not thin")

    with monkeypatch.context() as m:
        m.setattr(tkit.scan, "rooted_key", unused)
        m.setattr(tkit.exact, "cell_pattern", unused)
        res = scan_graph("Dj_")
    assert res["counts"] == {"agree-pass": 0, "agree-fail": 0,
                             "skipped-not-thin": 4, "vacuous": 1}
    assert built == []
    scan_graph("Bw")
    assert built[:2] == ["LocalMetric", "LocalOperators"]


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


def fitted_bases(record):
    """(thin bases, bases of degree at least 2) of a graph6 record, by
    fit_pdr."""
    g = parse_graph6(record)
    bases = [x for x in range(g.n) if g.degree(x) >= 2]
    return [x for x in bases if fit_pdr(g, x).ok], bases


def test_only_thin_bases_and_sampled_records_are_fitted(monkeypatch):
    corpus = list(generate_connected_graph6(5))
    fitted, parsed = [], []
    fit, parse = tkit.scan.fit_pdr, tkit.scan.parse_graph6

    def logged_fit(g, x):
        fitted.append((g.graph6, x))
        return fit(g, x)

    def logged_parse(graph6):
        parsed.append(graph6)
        return parse(graph6)

    monkeypatch.setattr(tkit.scan, "fit_pdr", logged_fit)
    monkeypatch.setattr(tkit.scan, "parse_graph6", logged_parse)
    scan_corpus(corpus, jobs=1)
    expected = []
    for record_number, record in enumerate(corpus, start=1):
        thin, bases = fitted_bases(record)
        sampled = record_number % SELF_CHECK_EVERY == 0
        expected += [(record, x) for x in (bases if sampled else thin)]
    assert fitted == expected
    assert parsed == list(dict.fromkeys(graph6 for graph6, _ in expected))
    # 7 sampled records, and some records with no thin base
    assert 7 < len(parsed) < len(corpus)


# path:64, under the '~' size header
PATH_64 = to_graph6(path_graph(64))


@pytest.fixture
def stacked(monkeypatch):
    """The record count of each stack the batch pass decides."""
    counts = []

    def counted(stack):
        counts.append(len(stack))
        return thin_bases(stack)

    monkeypatch.setattr(tkit.scan, "thin_bases", counted)
    return counts


def summary_of(graphs, instances, **counts):
    return {"graphs": graphs, "instances": instances,
            "counts": {**dict.fromkeys(CATEGORY_KEYS, 0), **counts},
            "mismatch_count": 0, "dim_bound_violations": 0,
            "structure_violations": 0, "varying_threshold_count": 0}


@pytest.mark.parametrize("corpus, stacks, summary", [
    # an even path has no thin base, an odd one its centre
    ([PATH_64], [], summary_of(1, 64, **{"skipped-not-thin": 62, "vacuous": 2})),
    ([to_graph6(path_graph(BATCH_MAX_N)), to_graph6(path_graph(BATCH_MAX_N + 1))], [1],
     summary_of(2, 33, **{"agree-pass": 1, "skipped-not-thin": 28, "vacuous": 4})),
    (["Bw", ">>graph6<<Dhc", "Bw ", "C~"], [1, 1],
     summary_of(4, 15, **{"agree-pass": 15})),
], ids=["n64", "n17", "prefix-and-space"])
def test_records_left_to_parse_graph6_scan_as_before(stacked, corpus, stacks, summary):
    assert scan_corpus(corpus, jobs=1).to_dict() == summary
    assert stacked == stacks


@pytest.mark.parametrize("record, message", [
    ("B\x7f", "graph6 offset 1: byte out of range"),
    ("B@", "graph6 offset 1: nonzero padding bits"),
    ("B\xe9", "graph6 offset 1: non-ASCII character"),
    ("Ek?G", "graph is disconnected: vertex 4 unreachable"),
])
def test_records_left_to_parse_graph6_fail_as_before(record, message):
    # alone, and in a group with a record the batch pass decides
    for corpus, number in (([record], 1), (["Bw", record, "Bw"], 2)):
        with pytest.raises(GraphError) as exc:
            scan_corpus(corpus, jobs=1)
        assert str(exc.value) == f"record {number} ({record}): {message}"


def test_product_limit_leaves_a_group_to_parse_graph6(monkeypatch):
    corpus = list(generate_connected_graph6(5))
    parsed = []
    parse = tkit.scan.parse_graph6
    monkeypatch.setattr(tkit.scan, "parse_graph6",
                        lambda graph6: parsed.append(graph6) or parse(graph6))
    summary = scan_corpus(corpus, jobs=1).to_dict()
    assert len(parsed) < len(corpus)
    parsed.clear()
    monkeypatch.setattr(tkit.regularity, "PRODUCT_LIMIT", 1)
    assert scan_corpus(corpus, jobs=1).to_dict() == summary
    assert parsed == corpus


def forced_flags(monkeypatch, thin):
    """Make the batch pass call every base thin, or none."""
    def forced(stack):
        degrees, flags, connected = thin_bases(stack)
        return degrees, np.full_like(flags, thin), connected

    monkeypatch.setattr(tkit.scan, "thin_bases", forced)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("thin", [True, False])
def test_a_refuted_thin_flag_is_a_mismatch(monkeypatch, processes, jobs, thin):
    # called thin, every base that is not is refuted; called not thin, a
    # thin base is refuted on every SELF_CHECK_EVERY-th record only, by its
    # number in the corpus whatever the job count
    corpus = list(generate_connected_graph6(5))
    forced_flags(monkeypatch, thin)
    summary = scan_corpus(corpus, jobs=jobs)
    refuted = []
    for record_number, record in enumerate(corpus, start=1):
        thin_here, bases = fitted_bases(record)
        if thin:
            refuted += [(record, str(x)) for x in bases if x not in thin_here]
        elif record_number % SELF_CHECK_EVERY == 0:
            refuted += [(record, str(x)) for x in thin_here]
    assert refuted
    assert [(m["graph"]["graph6"], m["base"]["label"]) for m in summary.mismatches] == refuted
    assert {(m["agreement"], m["agreement_reason"]) for m in summary.mismatches} == {
        (MISMATCH, THIN_MISMATCH)}


# A protocol test that hangs fails after this many seconds instead
HARD_TIMEOUT_S = 60


@pytest.fixture
def processes(monkeypatch):
    """A hard timeout for a test that starts scan workers, and enough cores
    that --jobs 3 is not clamped; afterwards no worker may be left."""
    def expire(signum, frame):
        raise TimeoutError(f"scan did not finish within {HARD_TIMEOUT_S} s")

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(HARD_TIMEOUT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def stub_result(graph6, **extra):
    """A scan_graph record with no instance and one mismatch entry."""
    return {"graph6": graph6, "counts": dict.fromkeys(CATEGORY_KEYS, 0), "instances": 0,
            "mismatches": [{"graph6": graph6, **extra}], "dim_bound_violations": [],
            "structure_violations": [], "varying_thresholds": []}


@pytest.mark.parametrize("jobs", [2, 3])
def test_big_messages_do_not_deadlock(monkeypatch, processes, jobs):
    # the first record of every batch, and its mismatch entry, are 1 MiB,
    # more than a socket buffer holds, so a side that sends before it
    # reads blocks on the other
    monkeypatch.setattr(tkit.scan, "scan_graph", lambda graph6, **_: stub_result(graph6))
    corpus = [("~" * 2 ** 20 if k % BATCH_RECORDS == 0 else "") + str(k)
              for k in range(8 * BATCH_RECORDS)]
    summary = scan_corpus(corpus, jobs=jobs)
    assert [m["graph6"] for m in summary.mismatches] == corpus


def test_merge_keeps_input_order(capsys, monkeypatch, processes):
    # a forced mismatch on every 13th of the 728 records, 12 batches
    corpus = list(generate_connected_graph6(5))
    forced = set(corpus[::13])
    scan_graph = tkit.scan.scan_graph

    def forcing(graph6, **kwargs):
        out = scan_graph(graph6, **kwargs)
        if graph6 in forced:
            out["mismatches"].append({"graph6": graph6})
        return out

    monkeypatch.setattr(tkit.scan, "scan_graph", forcing)
    runs = [scan_stdout(capsys, "--generate", "5", "--jobs", jobs) for jobs in "123"]
    code, out = runs[0]
    assert code == 3
    assert [json.loads(line) for line in out.splitlines()[1:]] == [
        {"graph6": graph6} for graph6 in corpus[::13]]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_dead_worker_raises(monkeypatch, processes):
    parent = os.getpid()

    def dies_in_a_worker(graph6, **_):
        if os.getpid() != parent:
            os._exit(1)
        return stub_result(graph6)

    monkeypatch.setattr(tkit.scan, "scan_graph", dies_in_a_worker)
    corpus = [str(k) for k in range(4 * BATCH_RECORDS)]
    with pytest.raises(RuntimeError, match=r"^scan worker \S+ \(pid \d+\) died$"):
        scan_corpus(corpus, jobs=2)


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("bad, named", [
    ((5,), 5),            # in batch 0, the parent's
    ((71,), 71),          # in batch 1, a worker's
    ((71, 130), 71),      # the first in input order
    ((130, 140), 130),    # in batch 2, the parent's at --jobs 2
])
def test_bad_record_named(processes, jobs, bad, named):
    corpus = ["Bw"] * (4 * BATCH_RECORDS)
    for record in bad:
        corpus[record - 1] = "C?"
    with pytest.raises(GraphError, match=rf"^record {named} \(C\?\): graph is disconnected"):
        scan_corpus(corpus, jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_jobs_starts_one_fewer_workers(capsys, monkeypatch, processes, tmp_path, jobs):
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counted(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    monkeypatch.setattr(tkit.scan, "scan_graph",
                        lambda graph6, **_: stub_result(graph6, pid=os.getpid()))
    path = tmp_path / "corpus.g6"
    path.write_text("".join(f"{k}\n" for k in range(6 * BATCH_RECORDS)))
    code, out = scan_stdout(capsys, str(path), "--jobs", str(jobs))
    pids = {json.loads(line)["pid"] for line in out.splitlines()[1:]}
    assert code == 3 and len(started) == jobs - 1
    assert os.getpid() in pids and len(pids) == jobs
