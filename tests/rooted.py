"""One (graph, base) per rooted isomorphism class of small connected graphs."""
from __future__ import annotations

import itertools

from tkit.graphs import connected_graphs


def rooted_classes(n):
    """One (graph, base) per rooted isomorphism class of connected graphs
    on n vertices."""
    seen = set()
    for g in connected_graphs(n):
        edges = list(g.edges())
        for x in range(n):
            key = min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
                      for p in itertools.permutations(range(n)) if p[x] == 0)
            if key not in seen:
                seen.add(key)
                yield g, x
