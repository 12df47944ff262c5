"""The local operator family, walk enumeration, and exact solving.

Everything here is exact, with no tolerances. Walk counts are vectors
indexed by vertex. The fits read them from two places only: the base's
R^i e_x are the geodesic counts of the BFS that the ratio fit runs
(graphs.local_metric, kept as LocalMetric.paths), and the counts from the
base's neighbours are the lanes of one packed sweep
(regularity.neighbour_sweep). Explicit walk enumeration here is their
independent oracle, which the oracle subcommand runs. Counts grow
exponentially with walk length, so entries are arbitrary precision by
construction (plain Python ints). The linear systems have two unknowns
and are solved in integers as well, by substitution into the two pivot
rows; Fractions appear only in the solved values.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .graphs import CellPattern, Graph, LocalMetric, cell_pattern, local_metric

SHAPE_FAMILIES = ("r", "rl", "lr", "rf")
_STEP = {"r": 1, "f": 0, "l": -1}

# Characters of a graph's graph6 string that errors and log lines show
GRAPH6_SHOWN = 40


# ---------------------------------------------------------------------------
# Exact linear solving (two unknowns, by substitution)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearSolution:
    """Outcome of solving A v = b over the rationals.

    values holds the canonical solution with every free variable set to
    None; pivots lists the determined columns; bad_row is the index of the
    first original equation witnessing inconsistency.
    """

    consistent: bool
    values: tuple[Optional[Fraction], ...]
    pivots: tuple[int, ...]
    bad_row: Optional[int]

    def canonical(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(0) if v is None else v for v in self.values)


def solve_linear(rows: Sequence[Sequence[int | Fraction]],
                 rhs: Sequence[int | Fraction]) -> LinearSolution:
    """Solve equations a0 * v0 + a1 * v1 = b in two unknowns, with the
    answer of Gauss-Jordan elimination with deterministic pivoting.

    Column 0's pivot is the first row with a nonzero first entry. Column
    1's is the first row after the pivots found so far whose second entry,
    reduced by column 0's pivot, is nonzero. Each is swapped into the next
    pivot position, as elimination swaps it. Instead of being rewritten,
    every other row is checked against the pivot rows' solution by
    cross-multiplication, in the order the swaps leave. So the pivots, the
    values and bad_row are those of the elimination, and integer input
    stays in integers up to the two returned Fractions.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    for k, row in enumerate(rows):
        if len(row) != 2:
            raise ValueError(f"row {k} has {len(row)} entries, expected 2")
    order = list(range(len(rows)))
    pivots: list[int] = []

    def swap_in(pos: Optional[int], col: int) -> Optional[int]:
        if pos is None:
            return None
        r = len(pivots)
        order[r], order[pos] = order[pos], order[r]
        pivots.append(col)
        return order[r]

    # a missing pivot row is the unit row of its column with right-hand
    # side 0, which reduces nothing; the formulas below then cover every rank
    p = swap_in(next((k for k, (a0, _) in enumerate(rows) if a0), None), 0)
    (p0, p1), pb = (rows[p], rhs[p]) if p is not None else ((1, 0), 0)
    q = swap_in(next((pos for pos in range(len(pivots), len(order))
                      if p0 * rows[order[pos]][1] - rows[order[pos]][0] * p1),
                     None), 1)
    (q0, q1), qb = (rows[q], rhs[q]) if q is not None else ((0, 1), 0)
    # Cramer's rule on the two pivot rows: v0 = n0 / det, v1 = n1 / det
    det = p0 * q1 - p1 * q0
    n0, n1 = pb * q1 - p1 * qb, p0 * qb - q0 * pb
    for k in order[len(pivots):]:
        a0, a1 = rows[k]
        if rhs[k] * det != a0 * n0 + a1 * n1:
            return LinearSolution(False, (None, None), tuple(pivots), k)
    values = (Fraction(n0, det) if p is not None else None,
              Fraction(n1, det) if q is not None else None)
    return LinearSolution(True, values, tuple(pivots), None)


# ---------------------------------------------------------------------------
# Local operators and walk counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalOperators:
    """A graph with the distance levels of a base vertex.

    The adjacency matrix splits into a lowering, a flat and a raising part
    (steps one level down, within a level, one level up). These operators
    are never formed: the fits walk the adjacency lists of each level.

    The base's raising vectors R^i e_x are the numbers of geodesics from
    the base on level i, which the BFS counts as metric.paths. cells,
    shared by the endpoint-one fit and the structure report, is built on
    first use and kept: most scanned instances never need it.
    """

    graph: Graph
    metric: LocalMetric

    @property
    def base(self) -> int:
        return self.metric.base

    @property
    def ecc(self) -> int:
        return self.metric.ecc

    @cached_property
    def cells(self) -> CellPattern:
        """The nonempty cells of the distance partition of each edge at
        the base."""
        return cell_pattern(self.graph, self.metric)


def build_operators(g: Graph, x: int) -> LocalOperators:
    """The local operator family at base x. Requires g connected."""
    return LocalOperators(g, local_metric(g, x))


def describe(ops: LocalOperators) -> str:
    """The graph and base an error or log line is about: the graph6 string,
    cut after GRAPH6_SHOWN characters, with n and m."""
    g = ops.graph
    g6 = g.graph6
    if len(g6) > GRAPH6_SHOWN:
        g6 = g6[:GRAPH6_SHOWN] + "..."
    return f"{g6} (n={g.n}, m={g.edge_count}) base {g.labels[ops.base]}"


def raising_powers(ops: LocalOperators, v: int, max_m: int) -> list[list[int]]:
    """[R^0 e_v, R^1 e_v, ..., R^max_m e_v]: counts of the walks from v
    that raise the level at every step; powers past the last level are
    zero. No fit calls it: the fits read R^i e_x as metric.paths and the
    neighbours' raising counts as lanes (regularity.neighbour_sweep)."""
    dist, adj = ops.metric.dist, ops.graph.adj
    powers = [[int(u == v) for u in range(ops.graph.n)]]
    for level in range(dist[v], dist[v] + max_m):
        below, out = powers[-1], [0] * ops.graph.n
        for u in ops.metric.sphere(level):
            for w in adj[u]:
                if dist[w] == level + 1:
                    out[w] += below[u]
        powers.append(out)
    return powers


def shape_string(family: str, m: int) -> str:
    """The per-step letter sequence of a shape family with exponent m: the
    family's name with its r repeated m times (rl, m = 2 gives rrl)."""
    if family not in SHAPE_FAMILIES:
        raise ValueError(f"unknown shape family {family!r}")
    return family.replace("r", "r" * m)


def walk_counts_from(g: Graph, x: int, shape: str, y: int,
                     metric: Optional[LocalMetric] = None) -> dict[int, int]:
    """Count walks from y of the given shape by explicit depth-first
    enumeration on a stack, keyed by endpoint.

    The shape is a string over {r, f, l}: each letter constrains one step
    to raise, keep or lower the distance from x. This enumerates every
    walk individually and is the independent oracle for the counts the
    fits read (regularity.swept_column).
    """
    for ch in shape:
        if ch not in _STEP:
            raise ValueError(f"bad shape letter {ch!r}")
    if metric is None:
        metric = local_metric(g, x)
    dist = metric.dist
    counts: dict[int, int] = {}
    adj = g.adj
    steps = [_STEP[ch] for ch in shape]
    depth = len(steps)

    # one (vertex, length) entry per walk prefix still to extend
    stack = [(y, 0)]
    while stack:
        v, k = stack.pop()
        if k == depth:
            counts[v] = counts.get(v, 0) + 1
            continue
        want = dist[v] + steps[k]
        stack.extend((w, k + 1) for w in adj[v] if dist[w] == want)
    return counts


def enumerate_walks(g: Graph, x: int, shape: str, y: int, z: int,
                    metric: Optional[LocalMetric] = None) -> int:
    """Number of walks from y to z whose step letters match shape."""
    return walk_counts_from(g, x, shape, y, metric).get(z, 0)
