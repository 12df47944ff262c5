"""The ratio fit as it stood before it stopped at its first witness: every
level is stepped and every ratio formed, and each vertex's ratios are
compared with the first vertex's as Fractions. The steps are products with
the dense operators of matrix_oracle, so the oracle shares no kernel with
the package. It is the test oracle for tkit.regularity.fit_pdr, whose ok,
witness, alpha and beta must equal these."""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from matrix_oracle import IntMatrix, build_matrix_operators
from tkit.exact import LocalOperators
from tkit.regularity import PdrWitness


def _apply(mat: IntMatrix, col: Sequence[int]) -> list[int]:
    return [sum(a * c for a, c in zip(row, col)) for row in mat.entries]


def fit_pdr_full(ops: LocalOperators
                 ) -> tuple[bool, Optional[PdrWitness],
                            tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(ok, witness, alpha, beta) of the ratio fit at the base of ops."""
    d = ops.ecc
    mops = build_matrix_operators(ops.graph, ops.base)
    powers = [[int(v == ops.base) for v in range(ops.graph.n)]]
    for _ in range(d + 1):
        powers.append(_apply(mops.raising, powers[-1]))
    up_down = [_apply(mops.lowering, c) for c in powers]
    up_flat = [_apply(mops.flat, c) for c in powers]

    alphas: list[Fraction] = []
    betas: list[Fraction] = []
    witness: Optional[PdrWitness] = None
    for i in range(d + 1):
        sphere = ops.metric.sphere(i)
        z0 = sphere[0]
        base_count = powers[i][z0]
        down, flat = up_down[i + 1], up_flat[i]
        alphas.append(Fraction(down[z0], base_count))
        betas.append(Fraction(flat[z0], base_count))
        if witness is not None:
            continue
        for z in sphere:
            if Fraction(down[z], powers[i][z]) != alphas[-1]:
                witness = PdrWitness(i, z, "alpha")
                break
            if Fraction(flat[z], powers[i][z]) != betas[-1]:
                witness = PdrWitness(i, z, "beta")
                break
    return witness is None, witness, tuple(alphas), tuple(betas)
