import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import golden
from clausewise import fit_clausewise, verify_condition_values
from corpus_oracle import connected_graphs, is_connected
from endpoint1_oracle import fit_endpoint1_stepped
from numeric_oracle import no_endpoint1_modules, trivial_module_basis
from pdr_oracle import fit_pdr_full
from rooted import rooted_classes
from structure_oracle import partitions_at
from tkit.cli import load_graph
from tkit.constructions import (apex_extension, complete_graph, cycle_graph,
                                empty_graph, example_graph, path_graph,
                                petersen_graph, rook_graph_3x3, star_graph)
import tkit.regularity
from tkit.exact import (build_operators, enumerate_walks, shape_string,
                        solve_linear)
from tkit.graphs import (Graph, local_metric, make_graph,
                         parse_edge_list, parse_graph6)
from tkit.regularity import (NotApplicable, PdrWitness, fit_endpoint1, fit_pdr,
                             thin_bases)

F = Fraction
# the dodecahedron GP(10, 2), as acceptance criterion 6 scans it
DODECAHEDRON = "ShCGGC@_K?G?GAC@@?OGA?_G@?O@OO?gG"


def _six_vertex_cover():
    """A connected 6-vertex graph isomorphic to each one, with repeats: one
    5-vertex graph per isomorphism class plus a sixth vertex joined to every
    nonempty vertex subset. Deleting a leaf of a spanning tree leaves a
    connected graph, so every class is reached."""
    seen = set()
    for g in connected_graphs(5):
        edges = list(g.edges())
        key = min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
                  for p in itertools.permutations(range(5)))
        if key in seen:
            continue
        seen.add(key)
        for mask in range(1, 32):
            yield make_graph(6, edges + [(v, 5) for v in range(5) if mask >> v & 1])


def _golden_graphs():
    """The named and graph6 graphs of the golden reports."""
    return ([load_graph(name)[0] for name in golden.BUILTINS]
            + [parse_graph6(g6) for g6 in golden.graph6_sources()])


def fr(*vals):
    return tuple(F(v) for v in vals)


def _count_solves(monkeypatch):
    """Log the row count of every solve_linear call of fit_endpoint1."""
    calls = []

    def solve(rows, rhs):
        calls.append(len(rows))
        return solve_linear(rows, rhs)

    monkeypatch.setattr(tkit.regularity, "solve_linear", solve)
    return calls


def _witness_rows(ops, prof):
    """The row counts _count_solves logs for a fit: one solve of the
    deg(x) |S_i| rows of its first failing level i, if any."""
    failing = [lv.level for lv in prof.levels if not lv.consistent]
    return [ops.graph.degree(ops.base) * len(ops.metric.sphere(i))
            for i in failing[:1]]


def _hypercube(d):
    return make_graph(1 << d, [(u, u | 1 << b) for u in range(1 << d)
                               for b in range(d) if not u >> b & 1])


def _small_instances():
    """Every base of every connected graph with n <= 5 and of every 8th
    one with n = 6."""
    for n in range(1, 6):
        for g in connected_graphs(n):
            yield from ((g, x) for x in range(n))
    for g in itertools.islice(connected_graphs(6), 0, None, 8):
        yield from ((g, x) for x in range(6))


def _gnp_instances():
    """Every base of 60 seeded connected G(n, p) for each n = 7..14; the
    dense ones hold most of the thin bases."""
    rng = random.Random(2211)
    for n in range(7, 15):
        made = 0
        while made < 60:
            p = rng.uniform(0.5, 0.98)
            g = make_graph(n, [e for e in itertools.combinations(range(n), 2)
                               if rng.random() < p])
            if is_connected(g):
                made += 1
                yield from ((g, x) for x in range(n))


def _apex_instances():
    """The apex of the extension of each thin rooted class with n <= 5 by
    the fibres C4, C5, K3 and 3K1."""
    for n in range(2, 6):
        for g, x in rooted_classes(n):
            if fit_pdr(g, x).ok:
                for fibre in (cycle_graph(4), cycle_graph(5), complete_graph(3),
                              empty_graph(3)):
                    ax = apex_extension(g, x, fibre)
                    yield ax.graph, ax.apex


class TestFitPdr:
    def test_example_table(self, example_ops):
        pdr = fit_pdr(example_ops.graph, example_ops.base)
        assert pdr.ok
        assert pdr.alpha == fr(2, 3, 0)
        assert pdr.beta == fr(0, 1, 0)

    def test_k2(self):
        pdr = fit_pdr(parse_edge_list("a b"), 0)
        assert pdr.ok
        assert pdr.alpha == fr(1, 0)
        assert pdr.beta == fr(0, 0)

    def test_distance_regular_instances_fit(self):
        for g in (cycle_graph(5), cycle_graph(6), petersen_graph()):
            for x in range(g.n):
                assert fit_pdr(g, x).ok

    def test_witness_points_at_real_failure(self):
        # find failing instances among small graphs and re-check the failing
        # equation against the enumeration oracle
        found = 0
        for g in connected_graphs(5):
            for x in range(g.n):
                pdr = fit_pdr(g, x)
                if pdr.ok:
                    continue
                found += 1
                w = pdr.witness
                base_count = enumerate_walks(g, x, shape_string("r", w.level), x, w.vertex)
                if w.equation == "alpha":
                    lhs = enumerate_walks(g, x, shape_string("rl", w.level + 1), x, w.vertex)
                    assert F(lhs) != pdr.alpha[w.level] * base_count
                else:
                    lhs = enumerate_walks(g, x, shape_string("rf", w.level), x, w.vertex)
                    assert F(lhs) != pdr.beta[w.level] * base_count
                if found >= 50:
                    return
        assert found, "expected some non-fitting instances on 5 vertices"

    @pytest.mark.parametrize("instances", [
        pytest.param(lambda: [pair for n in range(1, 6) for pair in rooted_classes(n)],
                     id="rooted-n-le-5"),
        pytest.param(lambda: [(g, x) for g in _golden_graphs() for x in range(g.n)],
                     id="golden-graphs"),
        # first witnesses past level 1: on level 2 by alpha, with level 4
        # not yet reached (EYa? at 4), and by beta; on level 3 by alpha and
        # by beta
        pytest.param(lambda: [(parse_graph6(g6), x) for g6, x in (
            ("Eka?", 3), ("EYa?", 4), ("E{a?", 3), ("EpQ?", 3), ("EtQ?", 4))],
                     id="deep-witnesses")])
    def test_matches_full_fit(self, instances):
        # the early-exit fit against every level stepped and every ratio
        # formed (tests/pdr_oracle.py); witness before alpha, so that the
        # ratios are completed after the fit stopped
        failing = 0
        for g, x in instances():
            pdr = fit_pdr(g, x)
            ok, witness, alpha, beta = fit_pdr_full(build_operators(g, x))
            assert (pdr.ok, pdr.witness) == (ok, witness)
            assert (pdr.alpha, pdr.beta) == (alpha, beta)
            failing += not ok
        assert failing

    @pytest.mark.parametrize("g6, x, witness", [
        ("Dj_", 2, PdrWitness(1, 3, "alpha")),
        ("EYa?", 4, PdrWitness(2, 5, "alpha")),
        ("Eia?", 0, PdrWitness(1, 4, "alpha"))],
        ids=["level-1-of-3", "level-2-of-4", "mid-level-1-of-2"])
    def test_search_stops_after_the_witness_level(self, monkeypatch, g6, x, witness):
        # Dj_ hangs the path 1 0 4 on the triangle 1 2 3; from base 2,
        # level 1 {1, 3} fails at 3. From base 4 of EYa?, level 2 {2, 5}
        # fails at 5. From base 0 of Eia?, level 1 {1, 4, 5} fails at 4,
        # before its last vertex, and level 2 is {2, 3}. The ratio check
        # reads each vertex's adjacency list up to the witness and then
        # only the first vertex of each later level, whose ratios alpha
        # keeps
        reads = []

        class LoggedAdj(tuple):
            def __getitem__(self, v):
                reads.append(v)
                return tuple.__getitem__(self, v)

        g = parse_graph6(g6)
        metric = local_metric(g, x)
        # the search reads the plain graph, the ratio check the logged one
        monkeypatch.setattr(tkit.regularity, "local_metric", lambda *_: metric)
        pdr = fit_pdr(Graph(g.n, LoggedAdj(g.adj), g.labels), x)
        assert pdr.witness == witness
        spheres = metric.spheres
        at = spheres[witness.level].index(witness.vertex)
        assert reads == ([v for sphere in spheres[:witness.level] for v in sphere]
                         + list(spheres[witness.level][:at + 1])
                         + [sphere[0] for sphere in spheres[witness.level + 1:]])
        assert pdr.alpha == fit_pdr_full(build_operators(g, x))[2]

    def test_equal_counts_unequal_ratios_rejected(self):
        # at level 2 every vertex has 4 raise-then-lower walks, but vertex 6
        # has 2 raising walks where the others have 1: the ratios differ,
        # so the trivial module is not thin (the decomposition agrees); at
        # no base of a graph with n <= 6 does comparing the raise-then-lower
        # counts instead of the ratios change the verdict
        g = make_graph(7, [(0, 2), (0, 4), (1, 4), (1, 5), (2, 3), (2, 6),
                           (3, 5), (4, 6), (5, 6)])
        pdr = fit_pdr(g, 0)
        assert not pdr.ok
        assert pdr.witness == PdrWitness(2, 6, "alpha")
        assert pdr.alpha == (2, 3, 4, 0)


def _stack(graphs):
    """The 0/1 int64 adjacency matrices of equal-sized graphs, one array."""
    n = graphs[0].n
    stack = np.zeros((len(graphs), n, n), dtype=np.int64)
    for k, g in enumerate(graphs):
        for u, v in g.edges():
            stack[k, u, v] = stack[k, v, u] = 1
    return stack


def _thin_bases_agree(graphs):
    """thin_bases on the graphs, all connected and of one size, gives each
    base fit_pdr's verdict and the graph's degree."""
    degrees, thin, connected = thin_bases(_stack(graphs))
    assert connected.tolist() == [True] * len(graphs)
    assert degrees.tolist() == [list(map(g.degree, range(g.n))) for g in graphs]
    assert thin.tolist() == [[fit_pdr(g, x).ok for x in range(g.n)] for g in graphs]


class TestThinBases:
    def test_matches_fit_pdr(self):
        by_size = {}
        for g, x in _small_instances():
            if x == 0:
                by_size.setdefault(g.n, []).append(g)
        for graphs in by_size.values():
            _thin_bases_agree(graphs)

    @pytest.mark.parametrize("graphs", [
        [_hypercube(5)],
        [parse_graph6(DODECAHEDRON)],
        [path_graph(62), star_graph(61), complete_graph(62), cycle_graph(62)],
        # equal raise-then-lower counts, unequal ratios (TestFitPdr)
        [make_graph(7, [(0, 2), (0, 4), (1, 4), (1, 5), (2, 3), (2, 6),
                        (3, 5), (4, 6), (5, 6)])],
    ], ids=["Q5", "dodecahedron", "n62", "equal-counts"])
    def test_named_graphs(self, graphs):
        _thin_bases_agree(graphs)

    def test_disconnected(self):
        # P4 + K2, and four isolated vertices
        degrees, thin, connected = thin_bases(_stack([parse_graph6("Ek?G"),
                                                      empty_graph(6)]))
        assert connected.tolist() == [False, False]

    def test_product_limit(self, monkeypatch):
        # Q5's largest sum of geodesic counts is 5! = 120, the down sum of
        # the far vertex's neighbours; its square reaches a limit of 14 400
        stack = _stack([_hypercube(5)])
        monkeypatch.setattr(tkit.regularity, "PRODUCT_LIMIT", 14401)
        assert thin_bases(stack) is not None
        monkeypatch.setattr(tkit.regularity, "PRODUCT_LIMIT", 14400)
        assert thin_bases(stack) is None


class TestFitEndpoint1:
    def test_example_table(self, example_ops):
        prof = fit_endpoint1(fit_pdr(example_ops.graph, example_ops.base))
        assert prof.ok
        assert prof.kappa == fr(1, 0)
        assert prof.mu == fr(1, 0)
        assert prof.theta == fr(-1, 0)
        assert prof.rho == fr(1, 0)
        assert prof.canonical() == (fr(1, 0), fr(1, 0), fr(-1, 0), fr(1, 0))

    def test_not_applicable_leaf(self):
        ops = build_operators(path_graph(3), 0)
        with pytest.raises(NotApplicable, match="leaf"):
            fit_endpoint1(fit_pdr(ops.graph, ops.base))

    def test_not_applicable_not_thin(self):
        for g in connected_graphs(5):
            for x in range(g.n):
                pdr = fit_pdr(g, x)
                if g.degree(x) >= 2 and not pdr.ok:
                    with pytest.raises(NotApplicable, match="not thin"):
                        fit_endpoint1(pdr)
                    return
        pytest.fail("no non-thin instance found")

    def test_failure_witness_is_a_real_violation(self):
        # rebuild the witnessed level's system from enumeration counts with
        # the witness equation removed; every solution of the remainder must
        # violate the witness equation, in particular the canonical one
        checked = 0
        for g in connected_graphs(5):
            for x in range(g.n):
                if g.degree(x) < 2:
                    continue
                pdr = fit_pdr(g, x)
                if not pdr.ok:
                    continue
                ops = pdr.ops
                parts = partitions_at(g, x)
                prof = fit_endpoint1(pdr)
                if prof.ok:
                    continue
                w = prof.witness
                i = w.level
                assert w.z in ops.metric.sphere(i)
                assert w.y in g.neighbors(x)
                head = "rl" if w.equation == "kappa-mu" else "rf"
                head_m = i if w.equation == "kappa-mu" else i - 1
                rows, rhs, target = [], [], None
                for y in g.neighbors(x):
                    for z in ops.metric.sphere(i):
                        plain = enumerate_walks(g, x, shape_string("r", i - 1), y, z)
                        lowered = enumerate_walks(g, x, shape_string("lr", i), y, z)
                        value = enumerate_walks(g, x, shape_string(head, head_m), y, z)
                        if (y, z) == (w.y, w.z):
                            target = (plain, lowered, value)
                        else:
                            rows.append((plain, lowered))
                            rhs.append(value)
                if w.equation == "theta-rho" and any(
                        parts[y].cell(i, i + 1) for y in g.neighbors(x)):
                    rows.append((0, 1))
                    rhs.append(0)
                reduced = solve_linear(rows, rhs)
                if reduced.consistent:
                    # whole system is inconsistent, so every solution of the
                    # remainder must violate the witnessed equation
                    first, second = reduced.canonical()
                    assert first * target[0] + second * target[1] != target[2]
                # independent rebuild of the full system must be unsolvable
                rows.append((target[0], target[1]))
                rhs.append(target[2])
                assert not solve_linear(rows, rhs).consistent
                checked += 1
                if checked >= 25:
                    return
        assert checked, "expected failing instances with concrete witnesses"

    def test_rho_forced_whenever_up_cell_nonempty(self):
        # at every consistent level with a nonempty upward cell the equations
        # already pin the flat scalar to zero, so the side condition never
        # decides it; all connected graphs with n <= 6, every base
        graphs = itertools.chain.from_iterable(
            connected_graphs(n) for n in range(3, 6))
        checked = 0
        for g in itertools.chain(graphs, _six_vertex_cover()):
            for x in range(g.n):
                if g.degree(x) < 2:
                    continue
                pdr = fit_pdr(g, x)
                if not pdr.ok:
                    continue
                for lv in fit_endpoint1(pdr).levels:
                    if lv.up_cell_nonempty and lv.consistent:
                        assert lv.rho_forced_zero
                        assert lv.rho == 0
                        checked += 1
        assert checked > 400

    def test_rho_forced_zero_means_pinned_at_zero(self):
        # rook3x3 at 00: level 2 pins rho to 1/2, which is not zero
        g = rook_graph_3x3()
        ops = build_operators(g, g.labels.index("00"))
        level2 = fit_endpoint1(fit_pdr(ops.graph, ops.base)).levels[1]
        assert level2.consistent and level2.rho == F(1, 2)
        assert not level2.rho_forced_zero

    def test_rho_forced_zero_matches_extended_systems(self):
        # oracle: the flat system rebuilt from enumerated walks stays
        # consistent with the row rho = 0 appended and not with rho = 1;
        # every base of every connected graph with n <= 5
        checked = 0
        for n in range(3, 6):
            for g in connected_graphs(n):
                for x in range(g.n):
                    if g.degree(x) < 2:
                        continue
                    pdr = fit_pdr(g, x)
                    if not pdr.ok:
                        continue
                    ops = pdr.ops
                    for lv in fit_endpoint1(pdr).levels:
                        i = lv.level
                        rows, rhs = [], []
                        for y in g.neighbors(x):
                            for z in ops.metric.sphere(i):
                                rows.append((
                                    enumerate_walks(g, x, shape_string("r", i - 1), y, z),
                                    enumerate_walks(g, x, shape_string("lr", i), y, z)))
                                rhs.append(enumerate_walks(
                                    g, x, shape_string("rf", i - 1), y, z))
                        pinned = (solve_linear(rows + [(0, 1)], rhs + [0]).consistent
                                  and not solve_linear(rows + [(0, 1)], rhs + [1]).consistent)
                        assert lv.rho_forced_zero == pinned
                        checked += pinned
        assert checked > 100

    def test_one_solve_per_failing_fit(self, monkeypatch):
        # a level whose packed check passes takes no solve_linear call; of
        # a failing fit, only the failing system of the first failing level
        # is solved again row by row, for elimination's witness; the named
        # graphs of the golden reports, every base
        calls = _count_solves(monkeypatch)
        fitted = failing = 0
        for g in _golden_graphs():
            for x in range(g.n):
                calls.clear()
                ops = build_operators(g, x)
                try:
                    prof = fit_endpoint1(fit_pdr(g, x))
                except NotApplicable:
                    continue
                assert calls == _witness_rows(ops, prof)
                fitted += 1
                failing += not prof.ok
        assert fitted == 41  # one per line of the golden witness table
        assert failing

    def test_mu_unique_when_side_cell_exists(self):
        # whenever some vertex of the level sits outside every downward
        # cell, the second scalar is pinned by that equation alone
        for g in connected_graphs(5):
            for x in range(g.n):
                if g.degree(x) < 2:
                    continue
                pdr = fit_pdr(g, x)
                if not pdr.ok:
                    continue
                ops = pdr.ops
                parts = partitions_at(g, x)
                prof = fit_endpoint1(pdr)
                if not prof.ok:
                    continue
                for lv in prof.levels:
                    i = lv.level
                    side_exists = any(
                        parts[y].cell(i, i + 1) or parts[y].cell(i, i)
                        for y in g.neighbors(x))
                    if side_exists:
                        assert lv.mu is not None


class TestSteppedOracle:
    """fit_endpoint1 against the fit that steps each neighbour and solves
    every row (tests/endpoint1_oracle.py): the levels with their four
    scalars and rho_forced_zero, and the witness. solve_linear runs once
    on a failing fit, on its first failing level, and never on a fit that
    holds."""

    @pytest.mark.parametrize("instances, least_failing", [
        pytest.param(_small_instances, 30, id="n-le-5-and-every-8th-n6"),
        # a thin base of a random graph almost always fits
        pytest.param(_gnp_instances, 0, id="gnp-7-to-14"),
        pytest.param(_apex_instances, 30, id="apex-c4-c5-k3-3k1"),
        pytest.param(lambda: [(_hypercube(8), 0), (complete_graph(200), 0)], 0,
                     id="q8-and-k200")])
    def test_equals_stepped_fit(self, monkeypatch, instances, least_failing):
        calls = _count_solves(monkeypatch)
        fitted = failing = 0
        for g, x in instances():
            pdr = fit_pdr(g, x)
            if not pdr.ok or g.degree(x) < 2:
                continue
            ops = pdr.ops
            calls.clear()
            prof = fit_endpoint1(pdr)
            assert prof == fit_endpoint1_stepped(ops, pdr)
            assert calls == _witness_rows(ops, prof)
            fitted += 1
            failing += not prof.ok
        assert fitted > failing >= least_failing


class TestVerifyConditionValues:
    def test_published_values_satisfy_example(self, example_ops):
        assert verify_condition_values(
            example_ops, fr(1, 0), fr(1, 0), fr(-1, 0), fr(1, 0)) is None

    def test_wrong_values_rejected(self, example_ops):
        w = verify_condition_values(
            example_ops, fr(1, 0), fr(2, 0), fr(-1, 0), fr(1, 0))
        assert w is not None and w.equation == "kappa-mu"

    def test_nonzero_rho_rejected_when_up_cell_nonempty(self):
        # star: upward cells nonempty at level 1, so a nonzero rho cannot
        # satisfy the condition (the cell equations themselves enforce it)
        ops = build_operators(make_graph(3, [(0, 1), (0, 2)]), 0)
        prof = fit_endpoint1(fit_pdr(ops.graph, ops.base))
        assert prof.ok and prof.rho == (Fraction(0),)
        kappa, mu, theta, rho = prof.canonical()
        assert verify_condition_values(ops, kappa, mu, theta, (F(1),)) is not None

    def test_length_validation(self, example_ops):
        with pytest.raises(ValueError):
            verify_condition_values(example_ops, fr(1), fr(1), fr(1), fr(1))

    def test_canonical_witness_always_satisfies(self):
        for g in connected_graphs(5):
            for x in range(g.n):
                if g.degree(x) < 2:
                    continue
                pdr = fit_pdr(g, x)
                if not pdr.ok:
                    continue
                ops = pdr.ops
                prof = fit_endpoint1(pdr)
                if prof.ok:
                    kappa, mu, theta, rho = prof.canonical()
                    assert verify_condition_values(ops, kappa, mu, theta, rho) is None


class TestClausewiseEquivalence:
    def _check(self, g, x):
        pdr = fit_pdr(g, x)
        if g.degree(x) < 2 or not pdr.ok:
            return
        ops = pdr.ops
        unified = fit_endpoint1(pdr)
        split_ok, split_levels = fit_clausewise(ops)
        assert unified.ok == split_ok
        if unified.ok:
            for lv, split in zip(unified.levels, split_levels):
                for name in ("kappa", "mu", "theta", "rho"):
                    a, b = getattr(lv, name), split[name]
                    if a is not None and b is not None:
                        assert a == b

    def test_exhaustive_small(self):
        for n in (2, 3, 4, 5):
            for g in connected_graphs(n):
                for x in range(g.n):
                    self._check(g, x)

    def test_sampled_six_and_seven(self):
        rng = random.Random(7241)
        for n in (6, 7):
            produced = 0
            while produced < 120:
                pairs = list(itertools.combinations(range(n), 2))
                edges = [e for e in pairs if rng.random() < rng.uniform(0.3, 0.8)]
                g = make_graph(n, edges)
                if not is_connected(g):
                    continue
                produced += 1
                self._check(g, rng.randrange(n))


class TestNoEndpoint1Modules:
    def test_leaf_base_has_none(self):
        g = path_graph(3)
        ops = build_operators(g, 0)
        assert no_endpoint1_modules(ops, trivial_module_basis(ops).basis)

    def test_example_has_some(self, example_ops):
        basis = trivial_module_basis(example_ops).basis
        assert not no_endpoint1_modules(example_ops, basis)

    def test_k2(self):
        ops = build_operators(parse_edge_list("a b"), 0)
        assert no_endpoint1_modules(ops, trivial_module_basis(ops).basis)
