import itertools
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import endpoint1_oracle
import walk_oracle
from clausewise import verify_condition_values
from corpus_oracle import oracle_connected_graph6
from graph6_oracle import oracle_to_graph6
from rooted import permutation_key
from structure_oracle import oracle_structure_report, partitions_at
from tkit.graphs import (CONNECTED_GRAPH_COUNTS, Graph, GraphError, bfs_start,
                         cell_pattern, connected_graphs, distance_partition, generate_connected_graph6,
                         local_metric, make_graph, parse_edge_list, parse_graph6,
                         rooted_key, structure_report, to_graph6)
import tkit.exact
import tkit.graphs
import tkit.regularity
from tkit.constructions import (complete_graph, cycle_graph, path_graph,
                                petersen_graph, star_graph)
from tkit.exact import build_operators, walk_counts_from
from tkit.regularity import fit_pdr
from tkit.report import analyze, analyze_fitted, report_to_dict

EXAMPLE_EDGES = "1 2\n1 3\n2 3\n2 4\n2 5\n3 5\n3 6"


def labels_of(g, vs):
    return sorted(g.labels[v] for v in vs)


class TestParseEdgeList:
    def test_example_graph(self):
        g = parse_edge_list(EXAMPLE_EDGES)
        assert g.n == 6
        assert g.edge_count == 7
        assert [g.degree(g.index_of(str(i))) for i in range(1, 7)] == [2, 4, 4, 1, 2, 1]

    def test_single_edge_with_names(self):
        g = parse_edge_list("a b")
        assert g.n == 2 and g.edge_count == 1
        assert set(g.labels) == {"a", "b"}

    def test_duplicates_collapse(self):
        g = parse_edge_list("1 2\n2 1\n1 2")
        assert g.n == 2 and g.edge_count == 1

    def test_comments_and_blanks(self):
        g = parse_edge_list("# header\n1 2   # trailing\n\n2 3\n")
        assert g.n == 3 and g.edge_count == 2

    def test_loop_rejected_with_line(self):
        with pytest.raises(GraphError, match="line 2"):
            parse_edge_list("1 2\n3 3")

    def test_bad_token_count_rejected(self):
        with pytest.raises(GraphError, match="line 1"):
            parse_edge_list("1 2 3")

    def test_numeric_ordering(self):
        g = parse_edge_list("10 2\n2 1")
        assert g.labels == ("1", "2", "10")

    def test_equal_values_ordered_by_token_under_any_hash_seed(self):
        # "01", "+1" and "1" are all 1, and "1_0" and "10" are 10; the
        # token set's iteration order changes with the string hash seed
        text = "01 2\n1 2\n1 3\n+1 10\n1_0 3\n"
        code = ("import sys; from tkit.graphs import parse_edge_list, to_graph6; "
                "g = parse_edge_list(sys.stdin.read()); print(*g.labels, to_graph6(g))")
        src = str(Path(tkit.graphs.__file__).resolve().parents[1])
        outputs = {subprocess.run(
            [sys.executable, "-c", code], input=text, capture_output=True,
            text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)}).stdout
            for seed in range(1, 5)}
        g = parse_edge_list(text)
        assert g.labels == ("+1", "01", "1", "2", "3", "10", "1_0")
        assert outputs == {" ".join(g.labels) + f" {to_graph6(g)}\n"}


class TestMakeGraph:
    def test_loop_rejected(self):
        with pytest.raises(GraphError):
            make_graph(2, [(0, 0)])

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            make_graph(2, [(0, 5)])

    def test_duplicate_labels(self):
        with pytest.raises(GraphError):
            make_graph(2, [(0, 1)], labels=["a", "a"])


class TestGraph6:
    def test_k3_by_hand(self):
        # size byte 3+63='B'; bits 111 padded to 111000 -> 56+63=119='w'
        g = parse_graph6("Bw")
        assert g.n == 3 and g.edge_count == 3

    def test_p3_by_hand(self):
        g = parse_graph6("Bg")
        assert g.n == 3 and g.edge_count == 2
        assert sorted(g.degree(v) for v in range(3)) == [1, 1, 2]

    def test_roundtrip_exhaustive_small(self):
        for n in (2, 3, 4):
            for g in connected_graphs(n):
                s = to_graph6(g)
                assert to_graph6(parse_graph6(s)) == s
                h = parse_graph6(s)
                assert sorted(h.edges()) == sorted(g.edges())

    def test_header_prefix_stripped(self):
        assert parse_graph6(">>graph6<<Bw").edge_count == 3

    def test_large_n_extension_roundtrip(self):
        g = path_graph(70)
        s = to_graph6(g)
        assert s.startswith("~")
        back = parse_graph6(s)
        assert back.n == 70 and sorted(back.edges()) == sorted(g.edges())

    def test_truncated_rejected(self):
        with pytest.raises(GraphError, match="offset"):
            parse_graph6("E?")

    def test_bad_byte_rejected(self):
        with pytest.raises(GraphError, match="offset"):
            parse_graph6(b"B\x1f")

    def test_nonzero_padding_rejected(self):
        # P3 body byte with a trailing padding bit set
        with pytest.raises(GraphError, match="padding"):
            parse_graph6(bytes([63 + 3, 63 + 0b101001]))

    # "EhEG" is the 6-cycle: n = 6, a 3-byte body of 15 pair bits and 3
    # padding bits, "G" = 63 + 0b001000
    @pytest.mark.parametrize("record, message", [
        (b"E!EG", "graph6 offset 1: byte out of range"),
        (b"Eh!G", "graph6 offset 2: byte out of range"),
        (b"EhE\x7f", "graph6 offset 3: byte out of range"),
        # the first bad byte is named, before a later, smaller one
        (b"E\x7f!G", "graph6 offset 1: byte out of range"),
        (b"Eh\x7f\x7f", "graph6 offset 2: byte out of range"),
        (b"~??Eh!G", "graph6 offset 5: byte out of range"),
        (b"  >>graph6<<EhE!\n", "graph6 offset 3: byte out of range"),
        # "H" sets the last padding bit, "K" the first
        (b"EhEH", "graph6 offset 3: nonzero padding bits"),
        (b"EhEK", "graph6 offset 3: nonzero padding bits"),
        (b"~??EhEK", "graph6 offset 6: nonzero padding bits"),
        (b"EhE", "graph6 offset 1: body has 2 bytes, expected 3"),
    ])
    def test_body_errors_name_their_offset(self, record, message):
        with pytest.raises(GraphError) as err:
            parse_graph6(record)
        assert str(err.value) == message

    @pytest.mark.parametrize("record", [
        "EhEG", "~??EhEG", ">>graph6<<EhEG", "  EhEG\n", "\t>>graph6<<~??EhEG \r\n",
        b"~??EhEG"])
    def test_kept_string_is_canonical(self, record):
        g = parse_graph6(record)
        assert g == cycle_graph(6)
        assert g.graph6 == "EhEG" == to_graph6(g) == oracle_to_graph6(g)

    def test_kept_string_is_the_encoding_small(self):
        # every record with n <= 6
        count = 0
        for n in range(1, 7):
            for record in generate_connected_graph6(n):
                g = parse_graph6(record)
                assert g.graph6 == record == to_graph6(g) == oracle_to_graph6(g)
                count += 1
        assert count == sum(CONNECTED_GRAPH_COUNTS[n] for n in range(1, 7))

    def test_kept_string_is_the_encoding_seeded(self):
        # seeded graphs up to n = 200, dense and sparse, with both headers
        rng = random.Random(20261019)
        for n in [1, 2, 3, 7, 12, 61, 62, 63, 64, 100, 157, 200]:
            for p in (0.05, 0.5, 0.95):
                edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
                record = oracle_to_graph6(make_graph(n, edges))
                g = parse_graph6(record)
                assert sorted(g.edges()) == sorted(edges)
                assert g.graph6 == record == to_graph6(g), (n, p)

    def test_encoder_matches_oracle(self):
        # n = 1000 has 499 500 pair bits, more than one encoding block
        rng = random.Random(20261019)
        sparse = make_graph(1000, [(u, v) for v in range(1000) for u in range(v)
                                   if rng.random() < 0.01])
        graphs = [complete_graph(200), path_graph(300), star_graph(120),
                  cycle_graph(64), make_graph(1, []), path_graph(1000), sparse]
        for g in graphs:
            assert to_graph6(g) == oracle_to_graph6(g), g.n

    def test_pickle_ignores_kept_string(self):
        # parse_graph6 keeps the string at once; the pickle is that of the
        # same graph built without one
        for record in ["EhEG", "~??EhEG", "Bw", "@"]:
            g = parse_graph6(record)
            assert "graph6" in vars(g)
            h = make_graph(g.n, g.edges())
            assert "graph6" not in vars(h)
            assert pickle.dumps(g) == pickle.dumps(h)
            restored = pickle.loads(pickle.dumps(g))
            assert restored == g and "graph6" not in vars(restored)
            assert restored.graph6 == g.graph6


class TestLocalMetric:
    def test_example(self):
        g = parse_edge_list(EXAMPLE_EDGES)
        m = local_metric(g, g.index_of("1"))
        assert m.ecc == 2
        assert labels_of(g, m.sphere(0)) == ["1"]
        assert labels_of(g, m.sphere(1)) == ["2", "3"]
        assert labels_of(g, m.sphere(2)) == ["4", "5", "6"]

    def test_k2(self):
        g = parse_edge_list("a b")
        assert local_metric(g, 0).ecc == 1

    def test_path_center(self):
        g = path_graph(3)
        m = local_metric(g, 1)
        assert m.dist == (1, 0, 1)

    def test_disconnected_rejected(self):
        g = make_graph(3, [(0, 1)])
        with pytest.raises(GraphError, match="disconnected"):
            local_metric(g, 0)

    def test_bad_vertex(self):
        g = parse_edge_list("a b")
        with pytest.raises(GraphError):
            local_metric(g, 9)

    def test_paths_example(self):
        g = parse_edge_list(EXAMPLE_EDGES)
        m = local_metric(g, g.index_of("1"))
        # 5 is reached through 2 and through 3
        assert {g.labels[v]: m.paths[v] for v in range(g.n)} == {
            "1": 1, "2": 1, "3": 1, "4": 1, "5": 2, "6": 1}

    def test_paths_are_enumerated_geodesics(self):
        # on every connected graph with n <= 5 and at every base, paths[v]
        # is the number of raising walks from the base to v, each walk
        # enumerated on a stack
        bases = 0
        for n in range(1, 6):
            for g in connected_graphs(n):
                for x in range(g.n):
                    m = local_metric(g, x)
                    for v in range(g.n):
                        walks = walk_counts_from(g, x, "r" * m.dist[v], x, m)
                        assert m.paths[v] == walks[v]
                    bases += 1
        assert bases == 1 + 2 * 1 + 3 * 4 + 4 * 38 + 5 * 728


class TestDistancePartition:
    def test_example_edge_cells(self):
        g = parse_edge_list(EXAMPLE_EDGES)
        part = distance_partition(g, g.index_of("1"), g.index_of("2"))
        assert labels_of(g, part.cell(1, 0)) == ["2"]
        assert labels_of(g, part.cell(1, 1)) == ["3"]
        assert labels_of(g, part.cell(2, 1)) == ["4", "5"]
        assert labels_of(g, part.cell(2, 2)) == ["6"]
        assert part.cell(0, 1) == (g.index_of("1"),)

    def test_k2(self):
        g = parse_edge_list("a b")
        part = distance_partition(g, 0, 1)
        assert part.cell(0, 1) == (0,)
        assert part.cell(1, 0) == (1,)
        assert part.cell(1, 1) == ()

    def test_not_adjacent_rejected(self):
        g = path_graph(3)
        with pytest.raises(GraphError, match="not adjacent"):
            distance_partition(g, 0, 2)

    def test_cells_partition_vertices(self):
        for n in (3, 4, 5):
            for g in connected_graphs(n):
                for x, y in g.edges():
                    part = distance_partition(g, x, y)
                    seen = [v for vs in part.cells.values() for v in vs]
                    assert sorted(seen) == list(range(g.n))
                    assert all(abs(i - j) <= 1 for (i, j) in part.cells)
                break  # one edge per graph keeps this sweep quick

    @pytest.mark.parametrize("graphs, directed_edges", [
        pytest.param(lambda: (g for n in range(1, 6) for g in connected_graphs(n)),
                     8588, id="all-n-le-5"),
        pytest.param(lambda: [complete_graph(50)], 50 * 49, id="complete-50")])
    def test_sweep_matches_per_edge_bfs(self, graphs, directed_edges):
        # cell_pattern, one sweep over the base's levels, against one BFS
        # per neighbour: every bit of every level, at every edge and base
        edges = 0
        for g in graphs():
            for x in range(g.n):
                metric = local_metric(g, x)
                cells = cell_pattern(g, metric)
                assert cells.nbrs == g.neighbors(x)
                levels = metric.ecc + 1
                assert len(cells.down) == len(cells.mid) == len(cells.up) == levels
                for k, y in enumerate(cells.nbrs):
                    part = distance_partition(g, x, y)
                    for i in range(levels):
                        for j, masks in ((i - 1, cells.down), (i, cells.mid),
                                         (i + 1, cells.up)):
                            assert bool(masks[i] >> k & 1) == bool(part.cell(i, j))
                    edges += 1
                assert all(m >> len(cells.nbrs) == 0
                           for masks in (cells.down, cells.mid, cells.up) for m in masks)
        assert edges == directed_edges

    def test_bipartite_mid_cells_empty(self):
        for g in (cycle_graph(6), path_graph(5), star_graph(4)):
            for x, y in g.edges():
                part = distance_partition(g, x, y)
                assert all(i != j for (i, j) in part.cells if part.cells[(i, j)])


def _key(g, x):
    return rooted_key(g, local_metric(g, x))


def _hypercube(d):
    return make_graph(1 << d, [(u, u | 1 << b) for u in range(1 << d)
                               for b in range(d) if not u >> b & 1])


class TestRootedKey:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equal_exactly_when_brute_force_keys_are(self, n):
        classes = {}
        count = 0
        for g in connected_graphs(n):
            for x in range(n):
                classes.setdefault(_key(g, x), set()).add(permutation_key(g, x))
                count += 1
        brute = set().union(*classes.values())
        assert all(len(keys) == 1 for keys in classes.values())
        assert len(classes) == len(brute)
        assert (count, len(classes)) == {1: (1, 1), 2: (2, 1), 3: (12, 3),
                                         4: (152, 11), 5: (3640, 58)}[n]

    def test_relabelling_and_base_orbits(self):
        # the Petersen graph is vertex-transitive and has no twins; a path's
        # bases are equivalent only under its reflection
        g = petersen_graph()
        rng = random.Random(7)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert len({_key(g, x) for x in range(g.n)} | {_key(h, x) for x in range(h.n)}) == 1
        p = path_graph(6)
        keys = [_key(p, x) for x in range(6)]
        assert keys == keys[::-1] and len(set(keys)) == 3

    def test_least_of_inequivalent_leaves(self, monkeypatch):
        # a cubic graph on 10 vertices whose equitable partition at base 9
        # is coarser than the orbits there: its leaves give two different
        # certificates, and the key is the least wherever the search starts.
        # By brute force over all 9! relabellings per base, its bases fall
        # into 6 rooted classes
        g = parse_graph6("IsGJA_LD_")
        certificates = []
        certificate = tkit.graphs._certificate

        def recorded(*args):
            certificates.append(certificate(*args))
            return certificates[-1]

        monkeypatch.setattr(tkit.graphs, "_certificate", recorded)
        keys = [_key(g, x) for x in range(g.n)]
        assert len(set(keys)) == 6
        certificates.clear()
        _key(g, 9)
        assert len(set(certificates)) == 2
        rng = random.Random(3)
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert [_key(h, perm[x]) for x in range(g.n)] == keys

    @pytest.mark.parametrize("g,x,most", [
        # every candidate is a twin of the first: one branch, one leaf
        (complete_graph(200), 0, 1),
        (star_graph(200), 0, 1),
        (star_graph(200), 7, 1),
        # no twins; the first branch offers 6 + 5 + 4 + 3 + 2 candidates and
        # the first leaf below each gives the automorphism back, where
        # individualisation alone would reach all 6! leaves
        (_hypercube(6), 0, 20),
    ], ids=["complete:200", "star:200-centre", "star:200-leaf", "Q6"])
    def test_leaves_explored(self, monkeypatch, g, x, most):
        leaves = []
        certificate = tkit.graphs._certificate

        def counted(*args):
            leaves.append(1)
            return certificate(*args)

        monkeypatch.setattr(tkit.graphs, "_certificate", counted)
        key = _key(g, x)
        assert len(key) == g.n and 1 <= len(leaves) <= most


def _structure(g, x):
    return structure_report(g, x, build_operators(g, x).cells)


class TestStructureReport:
    def test_example_thresholds_zero(self):
        g = parse_edge_list(EXAMPLE_EDGES)
        rep = _structure(g, g.index_of("1"))
        assert not rep.vacuous
        assert [rec.threshold for rec in rep.per_neighbor] == [0, 0]
        assert rep.threshold_constant is True

    def test_star_center_threshold_is_ecc(self):
        g = star_graph(3)
        rep = _structure(g, 0)
        assert rep.is_tree
        assert all(rec.threshold == rep.ecc == 1 for rec in rep.per_neighbor)

    def test_cycle6_threshold(self):
        rep = _structure(cycle_graph(6), 0)
        assert [rec.threshold for rec in rep.per_neighbor] == [2, 2]

    def test_leaf_base_vacuous(self):
        rep = _structure(path_graph(3), 0)
        assert rep.vacuous

    @pytest.mark.parametrize("instances, count", [
        pytest.param(lambda: ((g, x) for n in range(1, 6) for g in connected_graphs(n)
                              for x in range(g.n)), 3807, id="all-n-le-5"),
        pytest.param(lambda: [(complete_graph(50), 0), (star_graph(20), 0),
                              (_hypercube(4), 0)], 3, id="complete-50-star-20-Q4")])
    def test_matches_per_edge_oracle(self, instances, count):
        # the report read off the bitmasks equals the one read cell by cell
        # from a distance partition per neighbour
        seen = 0
        for g, x in instances():
            assert _structure(g, x) == oracle_structure_report(g, x, partitions_at(g, x))
            seen += 1
        assert seen == count


    def test_thin_base_down_cells_nonempty(self):
        # the lemma behind dropping the scan's "empty downward cell"
        # problem: once the ratio fit holds, every neighbour's downward
        # cells on levels 1..ecc are nonempty; every base of degree >= 2 of
        # every connected graph with n <= 6
        thin = 0
        for n in range(3, 7):
            for g in connected_graphs(n):
                for x in range(n):
                    ops = build_operators(g, x)
                    if g.degree(x) < 2 or not fit_pdr(g, x).ok:
                        continue
                    assert structure_report(g, x, ops.cells).down_cells_all_nonempty, \
                        (to_graph6(g), x)
                    thin += 1
        assert thin == 5962

    def test_mid_runs_contiguous_above_threshold(self):
        # the lemma behind mid_runs_contiguous = True: the oracle's loop
        # finds no gap in any neighbour's mid cells above its threshold;
        # every 8th n = 6 graph, every base (n <= 5 is covered above)
        seen = above = 0
        for g in itertools.islice(connected_graphs(6), 0, None, 8):
            for x in range(g.n):
                rep = oracle_structure_report(g, x, partitions_at(g, x))
                assert rep.mid_runs_contiguous
                seen += 1
                above += any(rec.threshold is not None
                             and any(rec.mid_nonempty[rec.threshold + 1:])
                             for rec in rep.per_neighbor)
        assert (seen, above) == (20028, 7787)

    @pytest.mark.parametrize("trees, count, at_root", [
        pytest.param(lambda: (g for n in range(3, 7) for g in connected_graphs(n)
                              if g.edge_count == n - 1), 78, 16, id="all-n-le-6"),
        pytest.param(lambda: [_spherical_tree([5, 1, 1, 1, 3]),
                              _spherical_tree([2, 2, 2, 2])], 2, 2, id="spherical")])
    def test_thin_tree_thresholds_are_eccentricity(self, trees, count, at_root):
        # the lemma behind dropping the scan's tree-threshold problem: at a
        # base of degree >= 2 with a thin trivial module, every neighbour's
        # threshold of a tree is the base's eccentricity; the spherically
        # symmetric trees are thin at their roots only
        checked = roots = 0
        for g in trees():
            for x in range(g.n):
                ops = build_operators(g, x)
                if g.degree(x) < 2 or not fit_pdr(g, x).ok:
                    continue
                rep = structure_report(g, x, ops.cells)
                assert rep.is_tree
                assert [rec.threshold for rec in rep.per_neighbor] == [
                    rep.ecc] * g.degree(x)
                checked += 1
                roots += x == 0
        assert (checked, roots) == (count, at_root)


def _spherical_tree(children):
    """The rooted tree, root 0, whose level-i vertices each have
    children[i] children."""
    edges, level, n = [], [0], 1
    for k in children:
        nxt = []
        for v in level:
            for _ in range(k):
                edges.append((v, n))
                nxt.append(n)
                n += 1
        level = nxt
    return make_graph(n, edges)


def test_analyze_runs_one_bfs(monkeypatch):
    # the base's distances serve the fits, and one sweep over its levels
    # gives every neighbour's partition for the endpoint-one fit and the
    # structure report alike
    calls = []

    def counting(g, x):
        calls.append(x)
        return bfs_start(g, x)

    def unused(*args, **kwargs):
        raise AssertionError("per-neighbour BFS on the analysis path")

    for module in (tkit.graphs, tkit.regularity):
        monkeypatch.setattr(module, "bfs_start", counting)
    monkeypatch.setattr(tkit.graphs, "distance_partition", unused)
    analyze(petersen_graph(), 0, with_decomposition=True)
    assert calls == [0]


def _record_steps(monkeypatch):
    """Patch the stepped oracle's step to log (input vector, level, letter)
    for every step, in tests/walk_oracle.py and in the stepped endpoint-one
    oracle, which lowers and flattens with it; and raising_powers, with
    which that oracle raises each neighbour of the base, to log
    (None, level, "r") for each of its raising steps."""
    log = []
    original = walk_oracle.step
    raising_powers = tkit.exact.raising_powers

    def counting(ops, counts, level, letter):
        log.append((counts, level, letter))
        return original(ops, counts, level, letter)

    def raising(ops, v, max_m):
        start = ops.metric.dist[v]
        log.extend((None, level, "r") for level in range(start, start + max_m))
        return raising_powers(ops, v, max_m)

    for module in (walk_oracle, endpoint1_oracle):
        monkeypatch.setattr(module, "step", counting)
    for module in (tkit.exact, endpoint1_oracle):
        monkeypatch.setattr(module, "raising_powers", raising)
    return log


def _raise_levels(log):
    return [level for _, level, letter in log if letter == "r"]


def test_analyze_takes_no_step(monkeypatch):
    # the base's raising vectors are the BFS's geodesic counts, and the
    # endpoint-one fit raises every neighbour at once, as the lanes of one
    # packed count per vertex
    steps = _record_steps(monkeypatch)
    analyze(petersen_graph(), 0, with_decomposition=True)
    assert steps == []


def test_instance_data_built_once(monkeypatch):
    # the report's instance runs one BFS and one cell sweep; a verification
    # after it reads the geodesic counts of that BFS from the same ops, and
    # takes its cells from a BFS at each end of every edge, its own route
    searched, swept = [], []

    def counting_search(g, x):
        searched.append(x)
        return bfs_start(g, x)

    def counting_sweep(g, metric):
        swept.append(metric.base)
        return cell_pattern(g, metric)

    for module in (tkit.graphs, tkit.regularity):
        monkeypatch.setattr(module, "bfs_start", counting_search)
    monkeypatch.setattr(tkit.exact, "cell_pattern", counting_sweep)
    steps = _record_steps(monkeypatch)
    pdr = fit_pdr(petersen_graph(), 0)
    ops = pdr.ops
    rep = analyze_fitted(ops, pdr, with_decomposition=True)
    assert searched == [0] and swept == [0]
    assert steps == []
    assert verify_condition_values(ops, *rep.endpoint1.canonical()) is None
    assert swept == [0]
    # the verification steps the three neighbours from levels 1 and 2 by
    # the oracle's route, and no step reads the base's geodesic counts
    assert sorted(_raise_levels(steps)) == [1] * 3 + [2] * 3
    assert not any(counts is ops.metric.paths for counts, _, _ in steps)

    # path:6 from vertex 1 fails at level 1 of 4, and reading alpha
    # continues the same search
    pdr = fit_pdr(path_graph(6), 1)
    assert not pdr.ok and pdr.witness.level == 1
    assert pdr.alpha == (2, 0, 1, 1, 0)


@pytest.mark.parametrize("g, x", [(petersen_graph(), 0), (path_graph(6), 1)],
                         ids=["petersen", "path6-at-1"])
def test_ratio_fit_takes_no_step(monkeypatch, g, x):
    # the ratio fit reads R^i e_x as the BFS's geodesic counts and sums
    # them over each level's adjacency lists
    steps = _record_steps(monkeypatch)
    pdr = fit_pdr(g, x)
    assert pdr.alpha and pdr.beta
    assert steps == []


def test_graph6_encoded_once(monkeypatch):
    # Graph.graph6 is to_graph6 on first read and kept: the reports of all
    # bases of one graph encode it once, and equality, hashing and pickles
    # do not see the kept string
    encoded = []
    original = tkit.graphs.to_graph6

    def counting(g):
        encoded.append(g)
        return original(g)

    monkeypatch.setattr(tkit.graphs, "to_graph6", counting)
    g, fresh = petersen_graph(), petersen_graph()
    before = pickle.dumps(g)
    docs = [report_to_dict(analyze(g, x)) for x in range(g.n)]
    assert len(encoded) == 1
    assert {doc["graph"]["graph6"] for doc in docs} == {original(g)} == {g.graph6}
    assert g == fresh and hash(g) == hash(fresh)
    assert pickle.dumps(g) == before == pickle.dumps(fresh)
    restored = pickle.loads(before)
    assert restored == g and "graph6" not in vars(restored)


class TestConnectedGraphs:
    def test_counts(self):
        # labeled connected graph counts, OEIS A001187: the table that
        # scan --generate --progress reads its ETA from
        assert sorted(CONNECTED_GRAPH_COUNTS) == list(range(1, 8))
        for n in range(1, 7):
            assert sum(1 for _ in generate_connected_graph6(n)) == CONNECTED_GRAPH_COUNTS[n]

    def test_all_connected(self):
        assert all(g.is_connected() for g in connected_graphs(4))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_records_match_oracle(self, n):
        # the same records in the same order as building and searching
        # each mask's graph
        records = list(generate_connected_graph6(n))
        assert records == list(oracle_connected_graph6(n))
        assert [to_graph6(g) for g in connected_graphs(n)] == records

    def test_seven_vertices(self):
        assert sum(1 for _ in generate_connected_graph6(7)) == 1866256
        assert CONNECTED_GRAPH_COUNTS[7] == 1866256

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_rejected(self, n):
        for enumeration in (generate_connected_graph6, connected_graphs):
            with pytest.raises(GraphError, match="n must be positive"):
                next(enumeration(n))
