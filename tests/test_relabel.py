"""Relabelling the vertices must leave every verdict and fitted scalar
unchanged. Witness vertices depend on the vertex order, so they are not
compared; neither are the ratios of a failed ratio fit, which are read
at the first vertex of each level."""
import itertools
import random

from tkit.constructions import example_graph
from tkit.graphs import make_graph, parse_graph6
from tkit.report import analyze


def _invariants(rep):
    e1 = rep.endpoint1
    return {
        "pdr": (True, rep.pdr.alpha, rep.pdr.beta) if rep.pdr.ok else False,
        "endpoint1": rep.endpoint1_reason if e1 is None else (
            e1.ok, tuple((lv.kappa, lv.mu, lv.theta, lv.rho, lv.consistent)
                         for lv in e1.levels)),
        "verdict": (rep.verdict.status, rep.verdict.reason),
        "level_dims": sorted(m.level_dims for m in rep.decomposition.modules),
        "agreement": rep.agreement,
    }


def _graphs(rng):
    yield example_graph()[0]
    yield parse_graph6("Dto")  # an agree-fail instance at vertex 0
    produced = 0
    while produced < 30:
        n = rng.randint(3, 8)
        p = rng.uniform(0.3, 0.8)
        g = make_graph(n, [e for e in itertools.combinations(range(n), 2)
                           if rng.random() < p])
        if g.is_connected():
            produced += 1
            yield g


def test_relabelling_leaves_fits_and_verdicts_unchanged():
    rng = random.Random(90210)
    for g in _graphs(rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        for x in range(g.n):
            before = analyze(g, x, with_decomposition=True)
            after = analyze(h, perm[x], with_decomposition=True)
            assert _invariants(before) == _invariants(after), (g.n, perm, x)
