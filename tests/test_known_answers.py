"""Known answers from the theory of distance-regular graphs, a third oracle
beside the golden files and the agreement of the two sides.

On a distance-regular graph with intersection numbers b_i, c_i and a_i =
k - b_i - c_i, R^i e_x is c_1 ... c_i on level i, so the ratio fit holds at
every base with alpha_i = b_i c_{i+1} and beta_i = a_i (Brouwer, Cohen &
Neumaier, Distance-Regular Graphs, 1989). The hypercube Q_d has one thin
irreducible module class per endpoint r <= d/2, of dimension d - 2r + 1 and
multiplicity C(d, r) - C(d, r - 1) (Go, "The Terwilliger algebra of the
hypercube", European J. Combin. 2002). The graphs are built here, not by the
package. The ratio fit also runs on two graphs too large to decompose
here (Q9's Kronecker stack is above MAX_DENSE_BYTES).
"""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from tkit.constructions import cartesian_product, complete_graph
from tkit.decompose import FAIL, PASS, _primary_dimension, adjacency_matrix
from tkit.graphs import local_metric, make_graph
from tkit.regularity import fit_pdr
from tkit.report import AGREE_FAIL, AGREE_PASS, analyze


def hamming(d, q):
    """H(d, q): words of length d over q letters, adjacent when they differ
    in one position. b_i = (d - i)(q - 1), c_i = i."""
    words = list(itertools.product(range(q), repeat=d))
    edges = [(u, v) for u, v in itertools.combinations(range(len(words)), 2)
             if sum(a != b for a, b in zip(words[u], words[v])) == 1]
    return (make_graph(len(words), edges),
            [(d - i) * (q - 1) for i in range(d + 1)],
            [i for i in range(d + 1)])


def johnson(n, k):
    """J(n, k): k-subsets of n points, adjacent when they share k - 1.
    b_i = (k - i)(n - k - i), c_i = i^2."""
    sets = [frozenset(c) for c in itertools.combinations(range(n), k)]
    edges = [(u, v) for u, v in itertools.combinations(range(len(sets)), 2)
             if len(sets[u] & sets[v]) == k - 1]
    d = min(k, n - k)
    return (make_graph(len(sets), edges),
            [(k - i) * (n - k - i) for i in range(d + 1)],
            [i * i for i in range(d + 1)])


def hypercube(d):
    """Q_d as the d-fold Cartesian power of K2, by the package's product."""
    g = complete_graph(2)
    for _ in range(d - 1):
        g = cartesian_product(g, complete_graph(2))
    return g, [d - i for i in range(d + 1)], [i for i in range(d + 1)]


GRAPHS = {
    "Q3": lambda: hypercube(3),
    "Q4": lambda: hypercube(4),
    "H(4,2)": lambda: hamming(4, 2),
    "H(3,3)": lambda: hamming(3, 3),
    "J(6,3)": lambda: johnson(6, 3),
    "J(7,2)": lambda: johnson(7, 2),
}

# fitted, not decomposed
AT_SCALE = {
    "Q9": lambda: hypercube(9),
    "J(10,5)": lambda: johnson(10, 5),
}


@pytest.fixture(scope="module")
def analysed():
    """(intersection numbers b, c, and the analysis at base 0) per graph."""
    out = {}
    for name, build in GRAPHS.items():
        g, b, c = build()
        out[name] = (b, c, analyze(g, 0, with_decomposition=True))
    return out


def _ratios(b, c):
    """The ratio fit's alpha_i = b_i c_{i+1} and beta_i = a_i."""
    d = len(b) - 1
    k = b[0]
    # b_d = 0, so alpha_d = 0 needs no c_{d+1}
    return (tuple(Fraction(b[i] * (c[i + 1] if i < d else 0)) for i in range(d + 1)),
            tuple(Fraction(k - b[i] - c[i]) for i in range(d + 1)))


@pytest.mark.parametrize("name", GRAPHS)
def test_ratio_fit_gives_intersection_numbers(analysed, name):
    b, c, rep = analysed[name]
    assert rep.pdr.ok
    assert (rep.pdr.alpha, rep.pdr.beta) == _ratios(b, c)


@pytest.mark.parametrize("name", AT_SCALE)
def test_ratio_fit_at_scale(name):
    g, b, c = AT_SCALE[name]()
    pdr = fit_pdr(g, 0)
    assert pdr.ok
    assert (pdr.alpha, pdr.beta) == _ratios(b, c)


@pytest.mark.parametrize("name", [*GRAPHS, *AT_SCALE])
def test_geodesic_counts(name):
    # R^i e_x = c_1 ... c_i on level i
    g, _, c = {**GRAPHS, **AT_SCALE}[name]()
    metric = local_metric(g, 0)
    assert [{metric.paths[v] for v in sphere} for sphere in metric.spheres] == [
        {math.prod(c[1:i + 1])} for i in range(len(c))]


@pytest.mark.parametrize("name", GRAPHS)
def test_primary_module_is_thin(analysed, name):
    # the ratio fit holds, so T e_x is spanned by R^i e_x, i = 0..d
    b, _, rep = analysed[name]
    dist = np.asarray(local_metric(rep.graph, 0).dist)
    assert _primary_dimension(adjacency_matrix(rep.graph),
                              [dist == i for i in range(len(b))]) == len(b)


@pytest.mark.parametrize("name, d", [("Q3", 3), ("Q4", 4), ("H(4,2)", 4)])
def test_hypercube_decomposition(analysed, name, d):
    _, _, rep = analysed[name]
    dec = rep.decomposition
    classes = {}
    for mod in dec.modules:
        classes.setdefault(mod.iso_class, []).append(mod)
    # C(d, -1) = 0
    want = {r: (d - 2 * r + 1, math.comb(d, r) - (math.comb(d, r - 1) if r else 0))
            for r in range(d // 2 + 1)}
    got = {}
    for mods in classes.values():
        shapes = {(m.endpoint, m.dim, m.thin) for m in mods}
        assert len(shapes) == 1
        (endpoint, dim, thin), = shapes
        assert thin and endpoint not in got
        got[endpoint] = (dim, len(mods))
    assert got == want
    assert dec.total_dim == 2 ** d
    assert rep.verdict.status == PASS
    assert (rep.agreement, rep.endpoint1.ok) == (AGREE_PASS, True)


@pytest.mark.parametrize("name", ["H(3,3)", "J(6,3)", "J(7,2)"])
def test_multiple_endpoint1_classes_observed(analysed, name):
    # not predicted by the theory above; pinned as observed, on both sides
    _, _, rep = analysed[name]
    assert rep.verdict.status == FAIL
    assert rep.verdict.reason == "multiple iso classes"
    assert not rep.endpoint1.ok
    assert (rep.agreement, rep.agreement_reason) == (AGREE_FAIL,
                                                     "multiple iso classes")


def test_graphs_are_the_named_ones(analysed):
    # vertex and edge counts, and level sizes k_i = k_{i-1} b_{i-1} / c_i
    # from the base: the intersection numbers describe the graph built
    sizes = {name: (rep.graph.n, rep.graph.edge_count)
             for name, (_, _, rep) in analysed.items()}
    assert sizes == {"Q3": (8, 12), "Q4": (16, 32), "H(4,2)": (16, 32),
                     "H(3,3)": (27, 81), "J(6,3)": (20, 90), "J(7,2)": (21, 105)}
    for b, c, rep in analysed.values():
        want = [1]
        for i in range(1, len(b)):
            want.append(want[-1] * b[i - 1] // c[i])
        assert [len(s) for s in local_metric(rep.graph, 0).spheres] == want
