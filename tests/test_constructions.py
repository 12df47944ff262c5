from fractions import Fraction

import pytest

from rooted import rooted_classes
from tkit.constructions import (ApexResult, apex_extension, cartesian_product,
                                complete_graph, cycle_graph, empty_graph,
                                example_graph, is_distance_regular_around,
                                path_graph, petersen_graph, predicted_profile,
                                rook_graph_3x3, star_graph)
from tkit.exact import build_operators
from tkit.graphs import GraphError, local_metric
from tkit.regularity import fit_endpoint1, fit_pdr

F = Fraction


def _has_odd_cycle(g):
    color = {0: 0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w not in color:
                color[w] = 1 - color[u]
                stack.append(w)
            elif color[w] == color[u]:
                return True
    return False


class TestExampleGraph:
    def test_shape(self):
        g, x = example_graph()
        assert g.n == 6 and g.edge_count == 7
        assert [g.degree(g.index_of(str(i))) for i in range(1, 7)] == [2, 4, 4, 1, 2, 1]
        assert g.labels[x] == "1"

    def test_eccentricity(self):
        g, x = example_graph()
        assert local_metric(g, x).ecc == 2

    def test_not_bipartite(self):
        g, _ = example_graph()
        assert _has_odd_cycle(g)


class TestGenerators:
    def test_empty(self):
        g = empty_graph(3)
        assert g.n == 3 and g.edge_count == 0

    def test_complete(self):
        assert complete_graph(3).edge_count == 3

    def test_path_cycle_star(self):
        assert path_graph(4).edge_count == 3
        assert cycle_graph(5).edge_count == 5
        assert star_graph(3).edge_count == 3

    def test_petersen(self):
        g = petersen_graph()
        assert g.n == 10 and g.edge_count == 15
        assert all(g.degree(v) == 3 for v in range(10))
        # girth 5: no triangles (adjacent neighbors) and no squares
        # (two common neighbors) through vertex 0
        m = local_metric(g, 0)
        for v in m.sphere(1):
            assert not any(w in g.adj[0] for w in g.adj[v] if w != 0)
        for v in m.sphere(2):
            assert sum(1 for w in g.adj[v] if w in g.adj[0]) == 1

    def test_rook(self):
        g = rook_graph_3x3()
        assert g.n == 9 and g.edge_count == 18
        assert all(g.degree(v) == 4 for v in range(9))

    def test_bad_sizes(self):
        with pytest.raises(GraphError):
            empty_graph(0)
        with pytest.raises(GraphError):
            cycle_graph(2)


class TestCartesianProduct:
    def test_k2_square(self):
        sq = cartesian_product(path_graph(2), path_graph(2))
        assert sq.n == 4 and sq.edge_count == 4
        assert all(sq.degree(v) == 2 for v in range(4))

    def test_edge_count_identity(self):
        for g, s in [(example_graph()[0], cycle_graph(4)),
                     (path_graph(3), complete_graph(3))]:
            prod = cartesian_product(g, s)
            assert prod.edge_count == g.n * s.edge_count + s.n * g.edge_count

    def test_empty_factor_disconnects(self):
        g, _ = example_graph()
        prod = cartesian_product(g, empty_graph(2))
        assert not prod.is_connected()


class TestApexExtension:
    def test_sizes_and_ecc(self):
        g, x = example_graph()
        ax = apex_extension(g, x, empty_graph(2))
        assert ax.graph.n == 13
        assert local_metric(ax.graph, ax.apex).ecc == 3
        ax2 = apex_extension(g, x, complete_graph(2))
        assert ax2.graph.n == 13
        assert ax2.graph.edge_count == ax.graph.edge_count + 6

    def test_distance_invariant(self):
        # d(w, (g', s')) = 1 + d(x, g') and ecc(w) = ecc(x) + 1, proved in
        # apex_extension's docstring, on every rooted class with n <= 4
        # and five fibres, on the example with K3 and on Petersen with K2;
        # "w" labels the apex only
        fibres = [empty_graph(2), complete_graph(2), empty_graph(3),
                  complete_graph(3), cycle_graph(4)]
        cases = [(g, x, s) for n in range(1, 5) for g, x in rooted_classes(n)
                 for s in fibres] + [(*example_graph(), complete_graph(3)),
                                     (petersen_graph(), 0, complete_graph(2))]
        for g, x, s in cases:
            ax = apex_extension(g, x, s)
            base = local_metric(g, x)
            apexm = local_metric(ax.graph, ax.apex)
            assert [apexm.dist[v] for v in ax.origin] == [
                base.dist[gi] + 1 for gi, _ in ax.origin.values()]
            assert apexm.ecc == base.ecc + 1
            assert ax.graph.labels.index("w") == ax.apex
        assert len(cases) == (1 + 1 + 3 + 11) * 5 + 2

    def test_sphere_structure(self):
        g, x = example_graph()
        s = empty_graph(2)
        ax = apex_extension(g, x, s)
        base = local_metric(g, x)
        apexm = local_metric(ax.graph, ax.apex)
        for i in range(1, apexm.ecc + 1):
            expected = {(gi, si) for gi in base.sphere(i - 1) for si in range(s.n)}
            assert {ax.origin[v] for v in apexm.sphere(i)} == expected

    def test_rejections(self):
        g, x = example_graph()
        with pytest.raises(GraphError, match="regular"):
            apex_extension(g, x, path_graph(3))
        with pytest.raises(GraphError, match="at least 2"):
            apex_extension(g, x, empty_graph(1))
        with pytest.raises(GraphError, match="connected"):
            apex_extension(empty_graph(2), 0, empty_graph(2))

    def test_apex_label(self):
        g, x = example_graph()
        ax = apex_extension(g, x, empty_graph(2))
        assert ax.graph.labels[ax.apex] == "w"


class TestPredictedProfile:
    def test_tables_from_example(self, example_ops):
        pdr = fit_pdr(example_ops.graph, example_ops.base)
        empty = predicted_profile(pdr, "empty")
        assert empty.kappa == (F(2), F(3), F(0))
        assert empty.mu == (F(0), F(0), F(0))
        assert empty.theta == (F(0), F(1), F(0))
        assert empty.rho == (F(0), F(0), F(0))
        comp = predicted_profile(pdr, "complete")
        assert comp.kappa == (F(2), F(3), F(0))
        assert comp.mu == (F(0), F(0), F(0))
        assert comp.theta == (F(-1), F(0), F(-1))
        assert comp.rho == (F(1), F(1), F(1))

    def test_matches_fit_on_k2_base(self):
        k2 = path_graph(2)
        pdr = fit_pdr(k2, 0)
        ax = apex_extension(k2, 0, empty_graph(2))
        ops = build_operators(ax.graph, ax.apex)
        prof = fit_endpoint1(ops, fit_pdr(ax.graph, ax.apex))
        pred = predicted_profile(pdr, "empty")
        assert prof.ok
        assert prof.canonical() == (pred.kappa, pred.mu, pred.theta, pred.rho)

    def test_bad_kind(self, example_ops):
        with pytest.raises(ValueError):
            predicted_profile(fit_pdr(example_ops.graph, example_ops.base), "cycle")


class TestLocalDistanceRegularity:
    def test_example_not_dr_at_base(self):
        g, x = example_graph()
        assert not is_distance_regular_around(g, x)

    def test_cycles_are_dr(self):
        for n in (4, 5, 6):
            assert is_distance_regular_around(cycle_graph(n), 0)

    def test_transfer_through_apex(self):
        # the extension is locally distance-regular at the apex exactly when
        # the first factor is at its base
        c4 = cycle_graph(4)
        ax = apex_extension(c4, 0, empty_graph(2))
        assert is_distance_regular_around(ax.graph, ax.apex)
        g, x = example_graph()
        ax2 = apex_extension(g, x, empty_graph(2))
        assert not is_distance_regular_around(ax2.graph, ax2.apex)
        ax3 = apex_extension(g, x, complete_graph(3))
        assert not is_distance_regular_around(ax3.graph, ax3.apex)

    def test_pdr_fit_succeeds_at_any_regular_fiber_apex(self):
        # thin trivial module at the apex holds for every regular fiber,
        # not only the edgeless and complete ones
        g, x = example_graph()
        for sigma in (empty_graph(2), complete_graph(3), cycle_graph(4), cycle_graph(5)):
            ax = apex_extension(g, x, sigma)
            assert fit_pdr(ax.graph, ax.apex).ok


class TestFiberDichotomy:
    def test_regular_non_extreme_fibers_fail(self):
        # regular fibers that are neither edgeless nor complete break the
        # endpoint-one fit at the apex, connectivity of the fiber aside
        from tkit.graphs import make_graph
        g, x = example_graph()
        two_disjoint_edges = make_graph(4, [(0, 1), (2, 3)])
        for sigma in (cycle_graph(4), cycle_graph(5), two_disjoint_edges):
            ax = apex_extension(g, x, sigma)
            pdr = fit_pdr(ax.graph, ax.apex)
            ops = pdr.ops
            assert pdr.ok
            assert not fit_endpoint1(ops, pdr=pdr).ok

    def test_extreme_fibers_pass(self):
        g, x = example_graph()
        for sigma in (empty_graph(4), complete_graph(4)):
            ax = apex_extension(g, x, sigma)
            ops = build_operators(ax.graph, ax.apex)
            assert fit_endpoint1(ops, fit_pdr(ax.graph, ax.apex)).ok
