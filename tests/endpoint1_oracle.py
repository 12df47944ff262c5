"""The endpoint-one fit with every neighbour stepped and every row solved.

The package's fit_endpoint1 raises all neighbours of the base at once, as
lanes of one packed integer per vertex, and checks each vertex's rows with
one identity. This oracle takes the direct route: it raises each neighbour
y separately with raising_powers, lowers and flattens its vectors with
walk_oracle's step, builds one row per (neighbour, level vertex) pair and
solves each level's two systems with solve_linear. The clause-wise oracles
read their columns from endpoint1_columns too.
"""
from typing import Optional, Sequence

from tkit.exact import LocalOperators, raising_powers, solve_linear
from tkit.regularity import (REASON_LEAF, REASON_NOT_THIN, E1Witness,
                             Endpoint1Profile, LevelFit, NotApplicable,
                             PdrProfile)
from walk_oracle import step


def endpoint1_columns(ops: LocalOperators, nbrs: Sequence[int]
                      ) -> list[dict[int, tuple]]:
    """Per level i = 1..ecc, for each neighbor y of the base, column y of the
    four walk-count matrices of the endpoint-one equations, as vectors by
    vertex read at the level-i vertices z: up_only = R^{i-1}, up_after_down
    = R^i L, down_after_up = L R^i and flat_after_up = F R^{i-1}. Column y
    of R^i L is R^i e_x, because L e_y = e_x: the geodesic counts
    ops.metric.paths. R^{i-1} e_y and R^i e_y lie on levels i and i + 1,
    and step() takes them to level i by F and L.
    """
    from_base = ops.metric.paths
    at = {y: raising_powers(ops, y, ops.ecc) for y in nbrs}
    return [{y: (up[i - 1], from_base,
                 step(ops, up[i], i + 1, "l"), step(ops, up[i - 1], i, "f"))
             for y, up in at.items()}
            for i in range(1, ops.ecc + 1)]


def fit_endpoint1_stepped(ops: LocalOperators, pdr: PdrProfile) -> Endpoint1Profile:
    """fit_endpoint1 with one row per (neighbour, level vertex) pair, in
    neighbour-major order, and two solve_linear calls per level."""
    if not pdr.ok:
        raise NotApplicable(REASON_NOT_THIN)
    nbrs = ops.graph.neighbors(ops.base)
    if len(nbrs) < 2:
        raise NotApplicable(REASON_LEAF)

    levels: list[LevelFit] = []
    witness: Optional[E1Witness] = None
    for i, columns in enumerate(endpoint1_columns(ops, nbrs), start=1):
        sphere = ops.metric.sphere(i)
        rows: list[tuple[int, int]] = []
        rhs_mix: list[int] = []
        rhs_flat: list[int] = []
        for y in nbrs:
            up_only, up_after_down, down_after_up, flat_after_up = columns[y]
            for z in sphere:
                rows.append((up_only[z], up_after_down[z]))
                rhs_mix.append(down_after_up[z])
                rhs_flat.append(flat_after_up[z])

        sol_km = solve_linear(rows, rhs_mix)
        sol_tr = solve_linear(rows, rhs_flat)
        forced_zero = sol_tr.consistent and sol_tr.values[1] == 0
        consistent = sol_km.consistent and sol_tr.consistent
        if witness is None and not consistent:
            # row k is the equation of neighbour nbrs[k // |S_i|] and
            # vertex sphere[k % |S_i|]
            sol, equation = ((sol_km, "kappa-mu") if not sol_km.consistent
                             else (sol_tr, "theta-rho"))
            at_y, at_z = divmod(sol.bad_row, len(sphere))
            witness = E1Witness(i, nbrs[at_y], sphere[at_z], equation)

        levels.append(LevelFit(
            level=i,
            kappa=sol_km.values[0] if sol_km.consistent else None,
            mu=sol_km.values[1] if sol_km.consistent else None,
            theta=sol_tr.values[0] if sol_tr.consistent else None,
            rho=sol_tr.values[1] if sol_tr.consistent else None,
            consistent=consistent,
            up_cell_nonempty=bool(ops.cells.up[i]),
            rho_forced_zero=forced_zero,
        ))

    return Endpoint1Profile(all(lv.consistent for lv in levels), tuple(levels),
                            witness)
