"""Independent clause-split checks of the endpoint-one condition.

The production fitter assembles a single linear system per level; these
oracles follow the two-clause formulation literally (separate equations on
the upward/mid cells and on the downward cells) and are used to confirm the
unified system is equivalent:

* fit_clausewise solves the clauses; its walk counts come from dense
  matrix products (matrix_oracle), not from the package's packed sweep;
* verify_condition_values substitutes given scalars into the clauses and
  returns the first violation, which the golden witnesses pin.

Both take their cells from distance_partition, a BFS at each end of every
edge at the base, not from the package's cell sweep.
"""
from fractions import Fraction
from typing import Optional, Sequence

from endpoint1_oracle import endpoint1_columns
from matrix_oracle import build_matrix_operators, matrix_raising_powers
from structure_oracle import partitions_at
from tkit.exact import LocalOperators, solve_linear
from tkit.regularity import E1Witness


def _single_unknown(rows: list[tuple[int, int]]) -> tuple[Optional[Fraction], bool]:
    """Solve coeff * t = rhs over all rows; returns (value-or-free, ok)."""
    value: Optional[Fraction] = None
    for coeff, rhs in rows:
        if coeff == 0:
            if rhs != 0:
                return None, False
            continue
        cand = Fraction(rhs, coeff)
        if value is None:
            value = cand
        elif value != cand:
            return None, False
    return value, True


def fit_clausewise(ops: LocalOperators):
    """Returns (ok, levels) with levels[i-1] = dict of the four scalars
    (Fraction or None for free)."""
    g = ops.graph
    x = ops.base
    nbrs = g.neighbors(x)
    parts = partitions_at(g, x)
    d = ops.ecc
    mops = build_matrix_operators(g, x)
    powers = matrix_raising_powers(mops, d)
    ok = True
    levels = []
    for i in range(1, d + 1):
        down_after_up = mops.lowering @ powers[i]
        up_after_down = powers[i] @ mops.lowering
        flat_after_up = mops.flat @ powers[i - 1]
        up_only = powers[i - 1]

        a_mu: list[tuple[int, int]] = []
        a_rho: list[tuple[int, int]] = []
        b_rows: list[tuple[int, int]] = []
        b_mix: list[int] = []
        b_flat: list[int] = []
        up_nonempty = False
        for y in nbrs:
            part = parts[y]
            up_cell = part.cell(i, i + 1)
            if up_cell:
                up_nonempty = True
            for z in up_cell + part.cell(i, i):
                a_mu.append((up_after_down[z, y], down_after_up[z, y]))
                a_rho.append((up_after_down[z, y], flat_after_up[z, y]))
            for z in part.cell(i, i - 1):
                b_rows.append((up_only[z, y], up_after_down[z, y]))
                b_mix.append(down_after_up[z, y])
                b_flat.append(flat_after_up[z, y])

        mu, mu_ok = _single_unknown(a_mu)
        rho, rho_ok = _single_unknown(a_rho)
        kappa: Optional[Fraction] = None
        theta: Optional[Fraction] = None
        level_ok = mu_ok and rho_ok
        if level_ok:
            if mu is not None:
                kappa, k_ok = _single_unknown(
                    [(c0, rhs - mu * c1) for (c0, c1), rhs in zip(b_rows, b_mix)])
                level_ok = level_ok and k_ok
            elif b_rows:
                sol = solve_linear(b_rows, b_mix)
                level_ok = level_ok and sol.consistent
                if sol.consistent:
                    kappa, mu = sol.values
        if level_ok:
            if rho is not None:
                theta, t_ok = _single_unknown(
                    [(c0, rhs - rho * c1) for (c0, c1), rhs in zip(b_rows, b_flat)])
                level_ok = level_ok and t_ok
            elif b_rows:
                sol = solve_linear(b_rows, b_flat)
                level_ok = level_ok and sol.consistent
                if sol.consistent:
                    theta, rho = sol.values
        if level_ok and up_nonempty:
            if rho is None:
                rho = Fraction(0)
            elif rho != 0:
                level_ok = False
        ok = ok and level_ok
        levels.append({"kappa": kappa, "mu": mu, "theta": theta, "rho": rho,
                       "ok": level_ok})
    return ok, levels


def verify_condition_values(
        ops: LocalOperators,
        kappa: Sequence[Fraction],
        mu: Sequence[Fraction],
        theta: Sequence[Fraction],
        rho: Sequence[Fraction],
) -> Optional[E1Witness]:
    """Substitute concrete scalars into the per-cell equations, clause by
    clause, and return the first violation (None when all hold).

    The scalar sequences are indexed by level starting at 1 and must have
    length equal to the base vertex's eccentricity.
    """
    g = ops.graph
    x = ops.base
    nbrs = g.neighbors(x)
    d = ops.ecc
    if not (len(kappa) == len(mu) == len(theta) == len(rho) == d):
        raise ValueError("scalar sequences must have one entry per level 1..ecc")
    partitions = partitions_at(g, x)
    for i, columns in enumerate(endpoint1_columns(ops, nbrs), start=1):
        k_i, m_i, t_i, r_i = kappa[i - 1], mu[i - 1], theta[i - 1], rho[i - 1]
        for y in nbrs:
            up_only, up_after_down, down_after_up, flat_after_up = columns[y]
            part = partitions[y]
            for z in part.cell(i, i + 1) + part.cell(i, i):
                if down_after_up[z] != m_i * up_after_down[z]:
                    return E1Witness(i, y, z, "kappa-mu")
                if flat_after_up[z] != r_i * up_after_down[z]:
                    return E1Witness(i, y, z, "theta-rho")
            for z in part.cell(i, i - 1):
                if down_after_up[z] != k_i * up_only[z] + m_i * up_after_down[z]:
                    return E1Witness(i, y, z, "kappa-mu")
                if flat_after_up[z] != t_i * up_only[z] + r_i * up_after_down[z]:
                    return E1Witness(i, y, z, "theta-rho")
        if any(partitions[y].cell(i, i + 1) for y in nbrs) and r_i != 0:
            return E1Witness(i, None, None, "rho-side-condition")
    return None
