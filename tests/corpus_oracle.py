"""The labelled corpus as it was enumerated before the edge-mask generator:
every edge mask in ascending order is built into a Graph, kept when a BFS
finds it connected, and encoded with to_graph6. It is the test oracle for
tkit.graphs.generate_connected_graph6, whose records must equal these in
content and order."""
from __future__ import annotations

from typing import Iterator

from tkit.graphs import make_graph, to_graph6


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
        if g.is_connected():
            yield to_graph6(g)
