"""The local operator family, level-stepped walk counts, and exact solving.

Everything here is exact, with no tolerances. Walk counts are vectors
indexed by vertex, pushed one level step at a time along adjacency lists.
They grow exponentially with walk length, so entries are arbitrary
precision by construction (plain Python ints). Linear systems are
eliminated in integers as well (fraction-free, each row kept divided by
the gcd of its entries); Fractions appear only in the solved values.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from typing import Optional, Sequence

from .graphs import (DistancePartition, Graph, LocalMetric, distance_partition,
                     local_metric)

SHAPE_FAMILIES = ("r", "rl", "lr", "rf")
_STEP = {"r": 1, "f": 0, "l": -1}


# ---------------------------------------------------------------------------
# Exact linear solving (integer Gauss-Jordan elimination)
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
    """Gauss-Jordan elimination with deterministic pivoting, over integers.

    The pivot of column c is the first remaining row with a nonzero entry
    there. Each row is cleared as row <- p * row - f * pivot_row and divided
    by the gcd of its entries, so it stays a nonzero integer multiple of the
    row that elimination over the rationals would hold: the zero pattern,
    the pivots and bad_row are the same, and a pivot variable's value is
    its row's right-hand side over its pivot entry.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    ncols = len(rows[0]) if rows else 0
    for k, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError(f"row {k} has {len(row)} entries, expected {ncols}")
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    if set(map(type, chain.from_iterable(aug))) - {int}:
        # scale each row to integers once, by the lcm of its denominators
        for k, entries in enumerate(aug):
            den = lcm(*[e.denominator for e in entries])
            aug[k] = [e.numerator * (den // e.denominator) for e in entries]
    origin = list(range(len(aug)))

    pivots: list[tuple[int, int]] = []  # (row, col)
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        origin[r], origin[pr] = origin[pr], origin[r]
        prow = aug[r]
        p = prow[c]
        for i, row in enumerate(aug):
            f = row[c]
            if f and i != r:
                row = [p * e - f * q for e, q in zip(row, prow)]
                g = gcd(*row)
                aug[i] = [e // g for e in row] if g > 1 else row
        pivots.append((r, c))
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if aug[i][ncols]:
            return LinearSolution(False, tuple([None] * ncols),
                                  tuple(c for _, c in pivots), origin[i])
    # canonical assignment: free variables are zero, so a pivot variable's
    # value is its row's right-hand side over the pivot; free ones stay None
    values: list[Optional[Fraction]] = [None] * ncols
    for pr, c in pivots:
        values[c] = Fraction(aug[pr][ncols], aug[pr][c])
    return LinearSolution(True, tuple(values), tuple(c for _, c in pivots), None)


# ---------------------------------------------------------------------------
# Local operators and level-stepped walk counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalOperators:
    """A graph with the distance levels of a base vertex.

    The adjacency matrix splits into a lowering, a flat and a raising part
    (steps one level down, within a level, one level up). These operators
    are never formed; step() applies one of them to a count vector by
    walking the adjacency lists.

    partitions and base_powers, shared by the fits and the structure
    report, are built on first use and kept: most scanned instances need
    neither.
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
    def partitions(self) -> dict[int, DistancePartition]:
        """Distance partition of each edge {x, y} at the base x, by y."""
        g, x = self.graph, self.base
        return {y: distance_partition(g, x, y, self.metric) for y in g.neighbors(x)}

    @cached_property
    def base_powers(self) -> list[list[int]]:
        """R^0 e_x, ..., R^{ecc+1} e_x for the base x."""
        return raising_powers(self, self.base, self.ecc + 1)


def build_operators(g: Graph, x: int) -> LocalOperators:
    """The local operator family at base x. Requires g connected."""
    return LocalOperators(g, local_metric(g, x))


def step(ops: LocalOperators, counts: Sequence[int], letter: str) -> list[int]:
    """Apply the raising ("r"), flat ("f") or lowering ("l") part of the
    adjacency matrix to a vector of walk counts indexed by vertex.

    Entry w of the result is the number of walks that extend a counted walk
    by one step of that kind and end at w.
    """
    delta = _STEP[letter]
    dist = ops.metric.dist
    adj = ops.graph.adj
    out = [0] * len(counts)
    for u, c in enumerate(counts):
        if c:
            want = dist[u] + delta
            for w in adj[u]:
                if dist[w] == want:
                    out[w] += c
    return out


def walk_column(ops: LocalOperators, shape: str, y: int) -> list[int]:
    """Walks from y whose step letters match shape, counted by endpoint:
    column y of the product of the shape's level operators."""
    counts = [0] * ops.graph.n
    counts[y] = 1
    for letter in shape:
        counts = step(ops, counts, letter)
    return counts


def raising_powers(ops: LocalOperators, v: int, max_m: int) -> list[list[int]]:
    """[R^0 e_v, R^1 e_v, ..., R^max_m e_v]: counts of the walks from v
    that raise the level at every step; powers past the last level are zero."""
    powers = [walk_column(ops, "", v)]
    for _ in range(max_m):
        powers.append(step(ops, powers[-1], "r"))
    return powers


def shape_string(family: str, m: int) -> str:
    """The per-step letter sequence of a shape family with exponent m."""
    if family == "r":
        return "r" * m
    if family == "rl":
        return "r" * m + "l"
    if family == "lr":
        return "l" + "r" * m
    if family == "rf":
        return "r" * m + "f"
    raise ValueError(f"unknown shape family {family!r}")


def walk_counts_from(g: Graph, x: int, shape: str, y: int,
                     metric: Optional[LocalMetric] = None) -> dict[int, int]:
    """Count walks from y of the given shape by explicit depth-first
    enumeration, keyed by endpoint.

    The shape is a string over {r, f, l}: each letter constrains one step
    to raise, keep or lower the distance from x. This enumerates every
    walk individually and is the independent oracle for walk_column.
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

    def walk(v: int, k: int) -> None:
        if k == depth:
            counts[v] = counts.get(v, 0) + 1
            return
        want = dist[v] + steps[k]
        for w in adj[v]:
            if dist[w] == want:
                walk(w, k + 1)

    walk(y, 0)
    return counts


def enumerate_walks(g: Graph, x: int, shape: str, y: int, z: int,
                    metric: Optional[LocalMetric] = None) -> int:
    """Number of walks from y to z whose step letters match shape."""
    return walk_counts_from(g, x, shape, y, metric).get(z, 0)
