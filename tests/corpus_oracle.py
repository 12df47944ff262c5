"""The labelled corpus as it was enumerated before the edge-mask generator:
every edge mask in ascending order is built into a Graph, kept when a BFS
finds it connected, and encoded with to_graph6. It is the test oracle for
tkit.graphs.generate_connected_graph6, whose records must equal these in
content and order.

The BFS, is_connected, is the tests' own connectivity check, independent
of graphs.local_metric, and connected_graphs decodes the generator's
records for the tests that walk the corpus."""
from __future__ import annotations

from collections import deque
from typing import Iterator

from tkit.graphs import (Graph, generate_connected_graph6, make_graph,
                         parse_graph6, to_graph6)


def is_connected(g: Graph) -> bool:
    """Whether a BFS from vertex 0 reaches every vertex of g."""
    seen = {0}
    queue = deque([0])
    while queue:
        for w in g.adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n


def connected_graphs(n: int) -> Iterator[Graph]:
    """Every connected labelled graph on n vertices, in the order of
    generate_connected_graph6(n)."""
    return map(parse_graph6, generate_connected_graph6(n))


def oracle_connected_graph6(n: int) -> Iterator[str]:
    """graph6 records of the connected labelled graphs on n >= 1 vertices,
    in ascending edge mask order."""
    pair_list = [(u, v) for v in range(1, n) for u in range(v)]
    nbits = len(pair_list)
    for mask in range(1 << nbits):
        edges = [pair_list[k] for k in range(nbits) if mask >> k & 1]
        if len(edges) < n - 1:
            continue
        g = make_graph(n, edges)
        if is_connected(g):
            yield to_graph6(g)
