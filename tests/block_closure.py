"""Block dimensions by numeric word closure, kept as an independent oracle.

The package reads dim E*_i T E*_1 off the module decomposition as a
Wedderburn count. This module spans the operator algebra directly: words
in the generators are grown until their linear span stops growing, and
the span is then compressed to each (level i) x (level 1) block. It uses
neither the decomposition nor the isomorphism classes.

On some graphs with n >= 8 the closure undercounts: at base 0 of
`Guqv}[` it finds 42 where the block is all 7 x 7 matrices. Tests compare
it with the count only on graphs where the two agree.
"""
from __future__ import annotations

import numpy as np

from numeric_oracle import generator_matrices
from tkit.exact import LocalOperators


def closure_block_dims(ops: LocalOperators) -> tuple[int, ...]:
    """Per level i >= 1, the dimension of the span of all operator-algebra
    elements compressed to the (level i) x (level 1) block.

    A spanning set of the algebra is grown by word closure over the
    generators until the linear span stabilizes.
    """
    gens = generator_matrices(ops)
    n = ops.graph.n
    cut = 1e-8

    eye = np.eye(n)
    mats: list[np.ndarray] = [eye]
    ortho = [eye.reshape(-1) / np.linalg.norm(eye)]
    frontier = [eye]
    while frontier:
        next_frontier = []
        for M in frontier:
            for G in gens:
                prod = G @ M
                norm = np.linalg.norm(prod)
                if norm < cut:
                    continue
                prod = prod / norm
                vec = prod.reshape(-1)
                for q in ortho:
                    vec = vec - (q @ vec) * q
                    # second pass keeps the basis orthonormal despite drift
                for q in ortho:
                    vec = vec - (q @ vec) * q
                vnorm = np.linalg.norm(vec)
                if vnorm > cut:
                    ortho.append(vec / vnorm)
                    mats.append(prod)
                    next_frontier.append(prod)
        frontier = next_frontier

    sph1 = list(ops.metric.sphere(1))
    dims = []
    for i in range(1, ops.ecc + 1):
        rows = []
        for M in mats:
            block = M[np.ix_(list(ops.metric.sphere(i)), sph1)].reshape(-1)
            norm = np.linalg.norm(block)
            if norm > cut:
                rows.append(block / norm)
        if not rows:
            dims.append(0)
            continue
        sv = np.linalg.svd(np.vstack(rows), compute_uv=False)
        dims.append(int((sv > cut * max(1.0, float(sv[0]))).sum()))
    return tuple(dims)
