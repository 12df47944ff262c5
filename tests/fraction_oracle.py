"""Gauss-Jordan elimination over Fraction: the test oracle for the integer
elimination of tkit.exact.solve_linear, which must agree with it on every
field of the LinearSolution."""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from tkit.exact import LinearSolution


def solve_linear_fraction(rows: Sequence[Sequence[int | Fraction]],
                          rhs: Sequence[int | Fraction]) -> LinearSolution:
    """Gaussian elimination over Fraction with deterministic pivoting."""
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    ncols = len(rows[0]) if rows else 0
    aug = [[Fraction(c) for c in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    origin = list(range(len(aug)))

    pivots: list[tuple[int, int]] = []  # (row, col)
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        origin[r], origin[pr] = origin[pr], origin[r]
        inv = 1 / aug[r][c]
        aug[r] = [e * inv for e in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [e - f * p for e, p in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if aug[i][ncols] != 0:
            return LinearSolution(False, tuple([None] * ncols),
                                  tuple(c for _, c in pivots), origin[i])
    # canonical assignment: free variables are zero, so a pivot variable's
    # value is just the reduced right-hand side; free ones stay None
    values: list[Optional[Fraction]] = [None] * ncols
    for pr, c in pivots:
        values[c] = aug[pr][ncols]
    return LinearSolution(True, tuple(values), tuple(c for _, c in pivots), None)
