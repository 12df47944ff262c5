"""The graph6 encoder as it was before tkit.graphs.to_graph6 encoded whole
columns: one step per edge, setting the edge's bit in a bytearray of 6-bit
groups. It is the test oracle of to_graph6 and of the graph6 string that
parse_graph6 keeps."""
from __future__ import annotations

from tkit.graphs import Graph, _graph6_header


def oracle_to_graph6(g: Graph) -> str:
    n = g.n
    # bit k of the upper triangle, listed column by column, is the pair
    # (row, col) with k = col (col - 1) / 2 + row; six bits to a byte, high first
    body = bytearray(-(-n * (n - 1) // 12))
    for u, v in g.edges():
        k = v * (v - 1) // 2 + u
        body[k // 6] |= 32 >> k % 6
    return (_graph6_header(n) + bytes(b + 63 for b in body)).decode("ascii")
