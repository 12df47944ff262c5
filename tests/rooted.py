"""Rooted isomorphism classes of small connected graphs, by brute force."""
from __future__ import annotations

import itertools

from tkit.graphs import connected_graphs


def permutation_key(g, x):
    """The least edge list of g over the relabellings that send x to 0:
    equal exactly for rooted-isomorphic (graph, base) pairs."""
    edges = list(g.edges())
    return min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
               for p in itertools.permutations(range(g.n)) if p[x] == 0)


def rooted_classes(n):
    """One (graph, base) per rooted isomorphism class of connected graphs
    on n vertices."""
    seen = set()
    for g in connected_graphs(n):
        for x in range(n):
            key = permutation_key(g, x)
            if key not in seen:
                seen.add(key)
                yield g, x
