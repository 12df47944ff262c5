"""Exact decision procedures on walk-count ratios.

Two fits, both over exact rationals with zero tolerance:

* fit_pdr certifies that around the base vertex every level admits constant
  ratios between raise-then-lower (and raise-then-flat) walk counts and
  plain raising counts. Success is equivalent to the trivial module of the
  local operator algebra being thin.

* fit_endpoint1 decides, per level, whether four scalars can reproduce the
  mixed walk counts between the base's neighbors and the level. Success
  characterizes a unique thin irreducible module at endpoint one. The
  characterization also needs the flat scalar to vanish on a level where
  some upward partition cell is nonempty; the equations themselves fix it
  at zero there (see fit_endpoint1), so no separate check is made.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .exact import LocalOperators, raising_powers, solve_linear, step


class NotApplicable(Exception):
    """The fit's hypotheses fail for this instance; not a pass or a fail."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


REASON_NOT_THIN = "trivial module not thin"
REASON_LEAF = "base vertex is a leaf"


# ---------------------------------------------------------------------------
# Thin-trivial-module fit (per-level ratio constants)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdrWitness:
    level: int
    vertex: int
    equation: str  # "alpha" or "beta"


class PdrProfile:
    """Candidate ratio constants per level and whether they fit globally.

    alpha[i] and beta[i] are always the ratios taken at the first vertex of
    level i; ok says whether those ratios hold at every vertex of the level.
    When ok, alpha[ecc] = 0 and the constants are uniquely determined.

    R^i e_x is the geodesic count metric.paths on level i, so each level is
    one sweep over its adjacency lists. The fit stops at the first witness,
    so ok and witness are known on construction; alpha and beta continue the
    same level loop over the remaining levels when first read.
    """

    def __init__(self, ops: LocalOperators):
        self._ops = ops
        # per level: L R^{i+1} e_x, F R^i e_x and R^i e_x at the first vertex
        self._firsts: list[tuple[int, int, int]] = []
        self.witness: Optional[PdrWitness] = None
        for i in range(ops.ecc + 1):
            self.witness = self._level(i, check=True)
            if self.witness is not None:
                break
        self.ok = self.witness is None

    def _level(self, i: int, check: bool) -> Optional[PdrWitness]:
        """Record level i's counts at its first vertex and, when check, return
        the first vertex whose ratios differ from them."""
        metric = self._ops.metric
        dist, paths, adj = metric.dist, metric.paths, self._ops.graph.adj
        sphere = metric.sphere(i)
        # (L R^{i+1} e_x)[z] and (F R^i e_x)[z] sum the geodesic counts of
        # z's neighbours one level up and on its own level
        for z in sphere if check else sphere[:1]:
            down = flat = 0
            for w in adj[z]:
                d = dist[w]
                if d > i:
                    down += paths[w]
                elif d == i:
                    flat += paths[w]
            if z == sphere[0]:
                # every level vertex is reached by at least one geodesic, so
                # the reference count is positive and the ratios well defined
                down0, flat0, count0 = down, flat, paths[z]
                self._firsts.append((down0, flat0, count0))
            # the ratios at z equal the first vertex's, cross-multiplied
            elif down * count0 != down0 * paths[z]:
                return PdrWitness(i, z, "alpha")
            elif flat * count0 != flat0 * paths[z]:
                return PdrWitness(i, z, "beta")
        return None

    @cached_property
    def _ratios(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        for i in range(len(self._firsts), self._ops.ecc + 1):
            self._level(i, check=False)
        return (tuple(Fraction(down, count) for down, _, count in self._firsts),
                tuple(Fraction(flat, count) for _, flat, count in self._firsts))

    @property
    def alpha(self) -> tuple[Fraction, ...]:
        return self._ratios[0]

    @property
    def beta(self) -> tuple[Fraction, ...]:
        return self._ratios[1]


def fit_pdr(ops: LocalOperators) -> PdrProfile:
    """The ratio fit at the base of ops, up to its first witness."""
    return PdrProfile(ops)


# ---------------------------------------------------------------------------
# Endpoint-one fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E1Witness:
    level: int
    y: Optional[int]
    z: Optional[int]
    # "kappa-mu" or "theta-rho"; the report schema also admits
    # "rho-side-condition", which the equations never leave open (see
    # fit_endpoint1)
    equation: str


@dataclass(frozen=True)
class LevelFit:
    """Solved scalars at one level; None marks an undetermined scalar."""

    level: int
    kappa: Optional[Fraction]
    mu: Optional[Fraction]
    theta: Optional[Fraction]
    rho: Optional[Fraction]
    consistent: bool
    up_cell_nonempty: bool   # some neighbor has a nonempty upward cell here
    rho_forced_zero: bool    # the flat system is consistent and fixes rho at 0


@dataclass(frozen=True)
class Endpoint1Profile:
    ok: bool
    levels: tuple[LevelFit, ...]
    witness: Optional[E1Witness]

    def _seq(self, name: str) -> tuple[Optional[Fraction], ...]:
        return tuple(getattr(lv, name) for lv in self.levels)

    @property
    def kappa(self) -> tuple[Optional[Fraction], ...]:
        return self._seq("kappa")

    @property
    def mu(self) -> tuple[Optional[Fraction], ...]:
        return self._seq("mu")

    @property
    def theta(self) -> tuple[Optional[Fraction], ...]:
        return self._seq("theta")

    @property
    def rho(self) -> tuple[Optional[Fraction], ...]:
        return self._seq("rho")

    def canonical(self) -> tuple[tuple[Fraction, ...], ...]:
        """Concrete scalar choice: undetermined scalars become zero."""
        zero = Fraction(0)
        return tuple(
            tuple(zero if v is None else v for v in self._seq(name))
            for name in ("kappa", "mu", "theta", "rho"))


def _endpoint1_columns(ops: LocalOperators, nbrs: Sequence[int]
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


def fit_endpoint1(ops: LocalOperators, pdr: PdrProfile) -> Endpoint1Profile:
    """Solve, per level i >= 1, the exact linear systems

        down_after_up(y, z)  = kappa_i * up_only(y, z) + mu_i * up_after_down(y, z)
        flat_after_up(y, z)  = theta_i * up_only(y, z) + rho_i * up_after_down(y, z)

    over all neighbors y of the base and all level-i vertices z. The
    up_only coefficient vanishes exactly off the downward partition cell,
    so this single system covers both cell cases.

    When some upward cell at level i is nonempty, the characterization
    also needs rho_i = 0, and a consistent flat system already fixes it
    there. Take z in the upward cell of y, so d(y, z) = i + 1. The
    support of R^{i-1} e_y lies at distance i - 1 from y, and z and its
    neighbours lie further out, so up_only(y, z) = 0 and flat_after_up(y,
    z), a sum of R^{i-1} e_y over z's level-i neighbours, is 0 too. z's
    equation reads 0 = rho_i * R^i e_x[z], with a positive geodesic count,
    so rho_i is a pivot and equals 0.

    pdr is fit_pdr(ops). The fit applies only when the trivial module is
    thin (pdr.ok) and the base has at least two neighbors; otherwise it
    raises NotApplicable.
    """
    if not pdr.ok:
        raise NotApplicable(REASON_NOT_THIN)
    g = ops.graph
    x = ops.base
    nbrs = g.neighbors(x)
    if len(nbrs) < 2:
        raise NotApplicable(REASON_LEAF)

    levels: list[LevelFit] = []
    witness: Optional[E1Witness] = None
    for i, columns in enumerate(_endpoint1_columns(ops, nbrs), start=1):
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
        # rho is determined exactly when it is a pivot, and values[1] then
        # holds it
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

    ok = all(lv.consistent for lv in levels)
    return Endpoint1Profile(ok, tuple(levels), witness)
