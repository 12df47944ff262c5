"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (visible with -s, or
via the verbose test report) and enforces the stated tolerances and time
budgets. Exact quantities are compared with zero tolerance.
"""
import itertools
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from corpus_oracle import connected_graphs, is_connected
from tkit.cli import main
from tkit.constructions import (apex_extension, complete_graph, cycle_graph,
                                empty_graph, example_graph, path_graph,
                                petersen_graph, predicted_profile,
                                rook_graph_3x3)
from tkit.decompose import algebraic_verdict, decompose, dual_block_dims
from clausewise import verify_condition_values
from matrix_oracle import build_matrix_operators, walk_table
from numeric_oracle import subspace_distance
from tkit.exact import (SHAPE_FAMILIES, build_operators, shape_string,
                        walk_counts_from)
from tkit.graphs import GraphError, make_graph, rooted_key
from tkit.regularity import (fit_endpoint1, fit_pdr, neighbour_sweep,
                             swept_column)
from tkit.report import (AGREE_FAIL, AGREE_PASS, AGREE_VACUOUS, analyze,
                         analyze_fitted)
from tkit.scan import generate_connected_graph6, scan_corpus

F = Fraction
# the dodecahedron, the generalized Petersen graph GP(10, 2)
DODECAHEDRON = "ShCGGC@_K?G?GAC@@?OGA?_G@?O@OO?gG"


class _gate:
    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        elapsed = time.perf_counter() - self.start
        print(f"ACCEPTANCE {self.number:02d} {status} ({elapsed:.2f}s): "
              f"{self.description}", file=sys.stderr)
        return False


@pytest.fixture(scope="module")
def scans():
    results = {}
    for n in (4, 5, 6):
        start = time.perf_counter()
        summary = scan_corpus(generate_connected_graph6(n), seed=42)
        results[n] = (summary, time.perf_counter() - start)
    return results


def test_criterion_01_ratio_constants_table(example, example_ops):
    with _gate(1, "ratio-constant table reproduced exactly"):
        start = time.perf_counter()
        pdr = fit_pdr(example_ops.graph, example_ops.base)
        elapsed = time.perf_counter() - start
        assert pdr.ok
        assert pdr.alpha == (F(2), F(3), F(0))
        assert pdr.beta == (F(0), F(1), F(0))
        assert elapsed < 1.0


def test_criterion_02_endpoint1_scalar_table(example_ops):
    with _gate(2, "endpoint-1 scalar table solves the exact system"):
        start = time.perf_counter()
        prof = fit_endpoint1(fit_pdr(example_ops.graph, example_ops.base))
        assert prof.ok
        kappa, mu, theta, rho = prof.canonical()
        assert verify_condition_values(example_ops, kappa, mu, theta, rho) is None
        published = ((F(1), F(0)), (F(1), F(0)), (F(-1), F(0)), (F(1), F(0)))
        assert verify_condition_values(example_ops, *published) is None
        assert prof.canonical() == published
        assert time.perf_counter() - start < 1.0


def test_criterion_03_example_decomposition(example, example_ops):
    with _gate(3, "example decomposes into modules of dims 3+2+1"):
        g, _ = example
        start = time.perf_counter()
        rep = decompose(example_ops)
        elapsed = time.perf_counter() - start
        assert len(rep.modules) == 3
        assert sorted(m.dim for m in rep.modules) == [1, 2, 3]
        assert rep.total_dim == 6
        (mod,) = rep.endpoint1_modules()
        assert mod.thin and mod.diameter == 1
        target = np.zeros((2, 6))
        target[0, g.index_of("3")], target[0, g.index_of("2")] = 1, -1
        target[1, g.index_of("6")], target[1, g.index_of("4")] = 1, -1
        target[0] /= np.linalg.norm(target[0])
        target[1] /= np.linalg.norm(target[1])
        assert subspace_distance(mod.subspace, target) <= 1e-6
        assert elapsed < 1.0


def test_criterion_04_apex_fiber_tables(example, example_ops):
    with _gate(4, "edgeless/complete fiber apexes match predicted scalars"):
        g, x = example
        pdr = fit_pdr(example_ops.graph, example_ops.base)
        for kind, maker in (("empty", empty_graph), ("complete", complete_graph)):
            for n in (2, 3):
                start = time.perf_counter()
                ax = apex_extension(g, x, maker(n))
                hops = build_operators(ax.graph, ax.apex)
                prof = fit_endpoint1(fit_pdr(hops.graph, hops.base))
                pred = predicted_profile(pdr, kind)
                assert prof.ok
                expected = (pred.kappa, pred.mu, pred.theta, pred.rho)
                assert prof.canonical() == expected
                assert verify_condition_values(hops, *expected) is None
                rep = decompose(hops)
                e1 = rep.endpoint1_modules()
                assert len(e1) == n - 1
                assert rep.endpoint1_iso_classes == 1
                assert all(m.thin and m.dim == 3 for m in e1)
                assert time.perf_counter() - start < 5.0


def test_criterion_05_fiber_dichotomy(example):
    with _gate(5, "irregular fiber rejected; regular non-extreme fiber fails"):
        g, x = example
        with pytest.raises(GraphError):
            apex_extension(g, x, path_graph(3))
        ax = apex_extension(g, x, cycle_graph(4))
        hops = build_operators(ax.graph, ax.apex)
        pdr = fit_pdr(hops.graph, hops.base)
        assert pdr.ok  # trivial module thin at the apex
        assert not fit_endpoint1(pdr).ok


def test_criterion_06_exhaustive_cross_validation(scans, tmp_path, capsys):
    with _gate(6, "no combinatorial/algebraic mismatch on n = 4, 5, 6"):
        expected_graphs = {4: 38, 5: 728, 6: 26704}
        for n in (4, 5, 6):
            summary, elapsed = scans[n]
            assert summary.graphs == expected_graphs[n]
            assert summary.mismatches == []
            assert summary.counts["agree-pass"] > 0
        assert scans[6][1] < 600.0
        # the dodecahedron GP(10, 2) is agree-fail at every vertex on the
        # ground that its endpoint-one class is not thin, a reason that no
        # FAIL with n <= 6 rests on alone
        summary = scan_corpus([DODECAHEDRON], jobs=1, seed=42)
        assert summary.mismatches == []
        assert summary.counts["agree-fail"] == 20
        # a disconnected record is no clean graph: Ek?G, P4 + K2, has two
        # bases of degree 2, both failing the ratio fit on level 1, and the
        # first one's search never reaches the K2; C?, four isolated
        # vertices, has no base to fit, and is searched on its own
        for record, missing in (("Ek?G", 4), ("C?", 1)):
            corpus = tmp_path / "corpus.g6"
            corpus.write_text(f"Bw\n{record}\nDhc\n")
            code = main(["scan", str(corpus), "--jobs", "1"])
            out, err = capsys.readouterr()
            assert code == 2 and out == ""
            assert err == (f"error: record 2 ({record}): graph is disconnected: "
                           f"vertex {missing} unreachable\n")


def test_criterion_07_walk_count_oracle():
    with _gate(7, "walk tables and the counts the fits read equal explicit "
                  "enumeration on 500 graphs"):
        start = time.perf_counter()
        rng = random.Random(20260808)
        instances = []
        while len(instances) < 500:
            n = rng.randint(2, 8)
            p = rng.uniform(0.25, 0.9)
            edges = [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < p]
            g = make_graph(n, edges)
            if is_connected(g):
                instances.append((g, rng.randrange(n)))
        # the fits read R^m e_x (metric.paths) from the base, and every
        # family from each neighbour, as the lanes of the endpoint-one
        # fit's sweep; the oracle subcommand reads the same columns
        for g, x in instances:
            ops = build_operators(g, x)
            mops = build_matrix_operators(g, x)
            metric = ops.metric
            sweep = neighbour_sweep(ops)
            nbrs = sweep[0]
            for family in SHAPE_FAMILIES:
                for m in range(metric.ecc + 2):
                    table = walk_table(mops, family, m)
                    shape = shape_string(family, m)
                    for y in range(g.n):
                        by_end = walk_counts_from(g, x, shape, y, metric)
                        column = swept_column(ops, sweep, family, m, y)
                        read = y in nbrs or y == x and family == "r"
                        assert (column is not None) == read
                        for z in range(g.n):
                            assert table[z, y] == by_end.get(z, 0)
                            if read:
                                assert column[z] == by_end.get(z, 0)
        assert time.perf_counter() - start < 120.0


def test_criterion_08_block_dimension_bounds():
    with _gate(8, "restricted-block dimensions 2 on levels 1..d'+1 and 1 "
                  "above on all passes"):
        # the lemma behind the scan's not checking the bounds, on every
        # agree-pass rooted class of the connected graphs with n <= 6
        seen = set()
        passes = 0
        for g in itertools.chain(*map(connected_graphs, range(1, 7))):
            for x in range(g.n):
                if g.degree(x) < 2:
                    continue
                pdr = fit_pdr(g, x)
                if not pdr.ok:
                    continue
                ops = pdr.ops
                key = rooted_key(g, ops.metric)
                if key in seen:
                    continue
                seen.add(key)
                report = analyze_fitted(pdr, with_decomposition=True)
                if report.agreement != AGREE_PASS:
                    continue
                rep = report.decomposition
                d_prime = max(m.diameter for m in rep.endpoint1_modules())
                assert dual_block_dims(rep) == (2,) * (d_prime + 1) + (1,) * (
                    ops.ecc - d_prime - 1), (g.graph6, x)
                passes += 1
        assert passes == 50


def test_criterion_09_partition_structure_suite(scans):
    with _gate(9, "cell-structure predicates hold on all passing instances"):
        for n in (4, 5, 6):
            summary, _ = scans[n]
            assert summary.structure_violations == []


def test_criterion_10_known_graph_sanity():
    with _gate(10, "known graphs classify correctly"):
        for g, x, expected in (
                (cycle_graph(6), 0, AGREE_PASS),
                (cycle_graph(5), 0, AGREE_PASS),
                (petersen_graph(), 0, AGREE_PASS),
                (rook_graph_3x3(), 0, AGREE_FAIL),
                (path_graph(3), 0, AGREE_VACUOUS)):
            rep = analyze(g, x, with_decomposition=True)
            assert rep.agreement == expected
        rook = analyze(rook_graph_3x3(), 0, with_decomposition=True)
        assert rook.verdict.status == "FAIL"
