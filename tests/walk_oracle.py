"""Walk counts stepped level by level, one integer vector per step.

The package reads every walk count from two places: the BFS's geodesic
counts (LocalMetric.paths) and the packed lanes of the endpoint-one fit's
sweep (regularity.neighbour_sweep). This oracle takes the direct route: a
raising, flat or lowering step takes a level's support to a single level,
so step() pushes the counts of one level along the adjacency lists, and
walk_column chains steps by the letters of a shape. The stepped
endpoint-one fit (endpoint1_oracle) and the tests build on it.
"""
from typing import Sequence

from tkit.exact import LocalOperators

_STEP = {"r": 1, "f": 0, "l": -1}


def step(ops: LocalOperators, counts: Sequence[int], level: int,
         letter: str) -> list[int]:
    """Apply the raising ("r"), flat ("f") or lowering ("l") part of the
    adjacency matrix to a vector of walk counts, indexed by vertex, whose
    support lies on the given level.

    Entry w of the result is the number of walks that extend a counted walk
    by one step of that kind and end at w; the result lies on the level one
    up, the same level or one down. Only the level's vertices are visited,
    and only those with a nonzero count are pushed to their neighbours.
    """
    want = level + _STEP[letter]
    dist = ops.metric.dist
    adj = ops.graph.adj
    out = [0] * len(counts)
    for u in ops.metric.sphere(level):
        c = counts[u]
        if c:
            for w in adj[u]:
                if dist[w] == want:
                    out[w] += c
    return out


def walk_column(ops: LocalOperators, shape: str, y: int) -> list[int]:
    """Walks from y whose step letters match shape, counted by endpoint:
    column y of the product of the shape's level operators. A step that
    leaves the levels 0..ecc leaves no walk."""
    counts = [0] * ops.graph.n
    counts[y] = 1
    level = ops.metric.dist[y]
    for letter in shape:
        counts = step(ops, counts, level, letter)
        level += _STEP[letter]
    return counts

