"""Dense integer-matrix walk counts, kept as an independent oracle.

The package counts walks by stepping count vectors along adjacency lists.
This module builds the same local operators as dense n x n integer
matrices (adjacency, one dual projector per level, lowering/flat/raising)
and counts walks by matrix products, so tests can compare three routes:
products, level-stepped vectors and explicit enumeration.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from tkit.exact import SHAPE_FAMILIES
from tkit.graphs import Graph, LocalMetric, local_metric


@dataclass(frozen=True)
class IntMatrix:
    """Dense matrix of arbitrary-precision integers."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.entries or not self.entries[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(self.entries[0])
        if any(len(row) != width for row in self.entries):
            raise ValueError("ragged rows")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i][j]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        bt = tuple(zip(*other.entries))
        return IntMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
            for row in self.entries))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return IntMatrix(tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def is_zero(self) -> bool:
        return all(all(e == 0 for e in row) for row in self.entries)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        """Restriction to the given rows and columns, in the given order."""
        if not row_idx or not col_idx:
            raise ValueError("empty restriction")
        return IntMatrix(tuple(
            tuple(self.entries[i][j] for j in col_idx) for i in row_idx))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(e) for e in row) for row in rows))


@dataclass(frozen=True)
class MatrixOperators:
    """The adjacency matrix split by the distance levels of a base vertex.

    duals[i] projects onto the vertices at distance i from the base. The
    lowering, flat and raising matrices are the parts of the adjacency
    matrix that step one level down, stay level, and step one level up;
    their sum is the adjacency matrix and raising is the transpose of
    lowering.
    """

    graph: Graph
    metric: LocalMetric
    adjacency: IntMatrix
    duals: tuple[IntMatrix, ...]
    lowering: IntMatrix
    flat: IntMatrix
    raising: IntMatrix

    @property
    def ecc(self) -> int:
        return self.metric.ecc


def build_matrix_operators(g: Graph, x: int) -> MatrixOperators:
    """Adjacency matrix, dual idempotents and level-split parts at base x."""
    metric = local_metric(g, x)
    n = g.n
    dist = metric.dist
    adj_rows = [[0] * n for _ in range(n)]
    low_rows = [[0] * n for _ in range(n)]
    flat_rows = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in g.adj[u]:
            adj_rows[u][v] = 1
            if dist[u] == dist[v] - 1:
                low_rows[u][v] = 1
            elif dist[u] == dist[v]:
                flat_rows[u][v] = 1
    duals = tuple(
        IntMatrix(tuple(tuple(int(r == c and dist[r] == i) for c in range(n))
                        for r in range(n)))
        for i in range(metric.ecc + 1))
    lowering = IntMatrix.from_rows(low_rows)
    return MatrixOperators(
        graph=g,
        metric=metric,
        adjacency=IntMatrix.from_rows(adj_rows),
        duals=duals,
        lowering=lowering,
        flat=IntMatrix.from_rows(flat_rows),
        raising=lowering.transpose(),
    )


def matrix_raising_powers(ops: MatrixOperators, max_m: int) -> list[IntMatrix]:
    """[R^0, R^1, ..., R^max_m]; powers beyond the eccentricity are zero."""
    powers = [IntMatrix.identity(ops.graph.n)]
    for _ in range(max_m):
        powers.append(ops.raising @ powers[-1])
    return powers


def walk_table(ops: MatrixOperators, family: str, m: int) -> IntMatrix:
    """Walk counts of one shape family by matrix products.

    Family "r" with exponent m counts walks that raise the level m times;
    "rl" appends one lowering step, "rf" one flat step, and "lr" prepends
    one lowering step. Entry (z, y) is the number of walks from y to z of
    that shape. Exponent 0 of family "r" is the empty walk (identity).
    """
    if family not in SHAPE_FAMILIES:
        raise ValueError(f"unknown shape family {family!r}")
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    rm = matrix_raising_powers(ops, m)[m]
    if family == "r":
        return rm
    if family == "rl":
        return ops.lowering @ rm
    if family == "lr":
        return rm @ ops.lowering
    return ops.flat @ rm  # "rf"
