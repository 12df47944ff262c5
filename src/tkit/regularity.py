"""Exact decision procedures on walk-count ratios.

Two fits, both over exact rationals with zero tolerance:

* fit_pdr certifies that around the base vertex every level admits constant
  ratios between raise-then-lower (and raise-then-flat) walk counts and
  plain raising counts. Success is equivalent to the trivial module of the
  local operator algebra being thin.

* fit_endpoint1 decides, per level, whether four scalars can reproduce the
  mixed walk counts between the base's neighbors and the level, with the
  counts of all neighbours packed into one integer per vertex. Success
  characterizes a unique thin irreducible module at endpoint one. The
  characterization also needs the flat scalar to vanish on a level where
  some upward partition cell is nonempty; the equations themselves fix it
  at zero there (see fit_endpoint1), so no separate check is made.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, NamedTuple, Optional, Sequence

from .exact import LinearSolution, LocalOperators, solve_linear
from .graphs import Graph, bfs_connected, bfs_metric, bfs_search, bfs_start


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

class PdrWitness(NamedTuple):
    # a tuple, not a frozen dataclass, since nearly every scanned base
    # builds one: about 0.3 us against 0.8 us (two cores, Python 3.11)
    level: int
    vertex: int
    equation: str  # "alpha" or "beta"


class PdrProfile:
    """Candidate ratio constants per level and whether they fit globally.

    alpha[i] and beta[i] are always the ratios taken at the first vertex of
    level i; ok says whether those ratios hold at every vertex of the level.
    When ok, alpha[ecc] = 0 and the constants are uniquely determined.

    R^i e_x is the geodesic count paths on level i, so each level is one
    sweep over its adjacency lists, made inside the breadth-first search
    from the base (graphs.bfs_search): level i is checked as soon as the
    search has found level i + 1, whose counts its down ratios sum, and
    the fit stops at the first witness. So ok and witness are known on
    construction, and a base that is not thin is searched only up to the
    level after its witness. alpha, beta, ops and require_connected()
    continue the same search.
    """

    def __init__(self, g: Graph, x: int):
        self._graph = g
        self._search = bfs_start(g, x)
        # per level: L R^{i+1} e_x, F R^i e_x and R^i e_x at the first
        # vertex. On level 0 they are deg(x), 0 and 1: each neighbour of x
        # has one geodesic, and none is on level 0, whose one vertex is no
        # witness
        self._firsts = [(len(g.adj[x]), 0, 1)]
        self.witness = self._levels(check=True)
        self.ok = self.witness is None

    def _levels(self, check: bool) -> Optional[PdrWitness]:
        """Record the counts at the first vertex of each level not recorded
        yet and, when check, return the first vertex whose ratios differ
        from its level's first."""
        g, search, firsts = self._graph, self._search, self._firsts
        dist, paths, spheres = search
        adj = g.adj
        i = len(firsts)
        while True:
            # level i's down counts sum the geodesic counts of level i + 1,
            # final once its sphere is found
            if len(spheres) < i + 2:
                bfs_search(g, search, i + 2)
            sphere = spheres[i]
            if not sphere:
                return None
            first = sphere[0]
            # (L R^{i+1} e_x)[z] and (F R^i e_x)[z] sum the geodesic counts
            # of z's neighbours one level up and on its own level
            for z in sphere if check else (first,):
                down = flat = 0
                for w in adj[z]:
                    d = dist[w]
                    if d > i:
                        down += paths[w]
                    elif d == i:
                        flat += paths[w]
                if z == first:
                    # every level vertex is reached by at least one
                    # geodesic, so the reference count is positive and the
                    # ratios well defined
                    down0, flat0, count0 = down, flat, paths[z]
                    firsts.append((down0, flat0, count0))
                # the ratios at z equal the first vertex's, cross-multiplied
                elif down * count0 != down0 * paths[z]:
                    return PdrWitness(i, z, "alpha")
                elif flat * count0 != flat0 * paths[z]:
                    return PdrWitness(i, z, "beta")
            i += 1

    @cached_property
    def _ratios(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        self._levels(check=False)
        return (tuple(Fraction(down, count) for down, _, count in self._firsts),
                tuple(Fraction(flat, count) for _, flat, count in self._firsts))

    @property
    def alpha(self) -> tuple[Fraction, ...]:
        return self._ratios[0]

    @property
    def beta(self) -> tuple[Fraction, ...]:
        return self._ratios[1]

    def require_connected(self) -> None:
        """Run the fit's search to the end, and raise GraphError when it
        left a vertex unreached."""
        g = self._graph
        bfs_search(g, self._search, g.n + 1)
        bfs_connected(g, self._search)

    @cached_property
    def ops(self) -> LocalOperators:
        """The local operators at the base, from the fit's search run to
        the end. Raises GraphError when the graph is disconnected."""
        g = self._graph
        bfs_search(g, self._search, g.n + 1)
        return LocalOperators(g, bfs_metric(g, self._search))


def fit_pdr(g: Graph, x: int) -> PdrProfile:
    """The ratio fit at base x of g, up to its first witness. Requires g
    connected: a fit that stops at a witness has not searched the whole
    graph, so only ops and require_connected() check it."""
    return PdrProfile(g, x)


# thin_bases leaves a stack to fit_pdr when a product it cross-multiplies
# could reach this, where int64 wraps
PRODUCT_LIMIT = 1 << 63


# numpy's ndarray, which this module does not import
Array = Any


def thin_bases(adjacency: Array) -> Optional[tuple[Array, Array, Array]]:
    """fit_pdr(g, x).ok at every base x of every graph g of a (B, n, n)
    stack of symmetric 0/1 int64 adjacency matrices, n <= 62, in one pass
    of integer array products: (degrees, thin, connected), of shapes
    (B, n), (B, n) and (B,), or None when a cross-product could reach
    PRODUCT_LIMIT. The caller's array brings numpy, so the exact side
    imports none.

    Row x of each matrix is the search from base x. With P_k the geodesic
    counts on level k (P_1 = A) and Q_k = P_k A, level k + 1 is where Q_k
    is positive and no earlier level is, and P_{k+1} is Q_k there. On level
    k, Q_{k+1} holds each vertex's down sum L R^{k+1} e_x and Q_k its flat
    sum F R^k e_x, and both are cross-multiplied against the level's least
    vertex, as PdrProfile._levels does, with no tolerance. A geodesic
    count on n <= 62 vertices is a product of the sizes of the levels it
    crosses, at most 3^20 < 2^32, and a sum of at most 61 of them is below
    2^38, so only the cross-products can wrap; each is at most the square
    of the largest Q_k.
    """
    count, n, _ = adjacency.shape
    degrees = adjacency.sum(axis=2)
    # the flat index of vertex 0 in each row: 0, n, 2n, ...
    row_starts = (degrees >= 0).cumsum().reshape(count, n, 1) * n - n
    level = adjacency.astype(bool)
    seen = level.copy()
    seen[:, range(n), range(n)] = True
    paths = adjacency
    sums = paths @ adjacency
    peak = int(sums.max())
    uneven = seen & False
    while True:
        above = (sums > 0) & ~seen
        above_paths = sums * above
        above_sums = above_paths @ adjacency
        peak = max(peak, int(above_sums.max()))
        # each row's counts at its level's least vertex, on a length-1 axis
        least = row_starts + level.argmax(axis=2)[..., None]
        first_paths = paths.take(least)
        uneven |= level & ((above_sums * first_paths != above_sums.take(least) * paths)
                           | (sums * first_paths != sums.take(least) * paths))
        if not above.any():
            break
        seen |= above
        level, paths, sums = above, above_paths, above_sums
    if peak * peak >= PRODUCT_LIMIT:
        return None
    thin = ~uneven.any(axis=2)
    return degrees, thin, seen[:, 0].all(axis=1)


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


def _lane(packed: int, k: int, width: int) -> int:
    """Lane k, width bits wide, of a nonnegative packed int."""
    return packed >> width * k & ((1 << width) - 1)


def _lanes(packed: int, count: int, width: int) -> list[int]:
    """The count lanes, width bits wide, of a nonnegative packed int."""
    mask = (1 << width) - 1
    return [packed >> width * k & mask for k in range(count)]


def _low_lane(packed: int, width: int) -> int:
    """The lowest nonzero lane of a nonzero packed int; a negative one is
    read in two's complement, whose lowest set bit is the same."""
    return ((packed & -packed).bit_length() - 1) // width


def _packed_solve(sphere: Sequence[int], up: Sequence[int], paths: Sequence[int],
                  width: int, ones: int, *rhss: Sequence[int]
                  ) -> tuple[LinearSolution, ...]:
    """Solve one level's rows (up_only, up_after_down) = (lane k of up[z],
    paths[z]), for every lane k and level vertex z, against each packed
    right-hand side rhs (lane k of rhs[z]), checking all rows of a vertex
    at once.

    The first pivot is the first vertex's lowest nonzero up lane (every
    level vertex has one: the up lanes of z sum to paths[z] > 0). The
    second is the first row independent of it, found by comparing the
    lanes of p0 * paths[z] * ones and p1 * up[z]; when none is, it is the
    unit row (0, 1) with right-hand side 0, as in solve_linear. On a
    consistent system the values do not depend on which rows pivot: in
    rank 2 they are unique, and in rank 1 every row gives v0 = pb / p0
    with v1 free. An inconsistent system has no bad_row: the caller
    solves it again row by row for elimination's first.
    """
    z0 = sphere[0]
    k0 = _low_lane(up[z0], width)
    p0, p1 = _lane(up[z0], k0, width), paths[z0]
    q = next(((z, _low_lane(diff, width)) for z in sphere
              if (diff := p0 * paths[z] * ones ^ p1 * up[z])), None)
    if q:
        zq, kq = q
        q0, q1 = _lane(up[zq], kq, width), paths[zq]
    else:
        q0, q1 = 0, 1
    det = p0 * q1 - p1 * q0
    pivots = (0, 1) if q else (0,)

    def solve(rhs: Sequence[int]) -> LinearSolution:
        pb = _lane(rhs[z0], k0, width)
        qb = _lane(rhs[zq], kq, width) if q else 0
        # Cramer's rule on the two pivot rows: v0 = n0 / det, v1 = n1 / det
        n0, n1 = pb * q1 - p1 * qb, p0 * qb - q0 * pb
        n1_ones = n1 * ones
        for z in sphere:
            # lane k is det * rhs_k - n0 * up_k - n1 * paths[z]
            if det * rhs[z] - n0 * up[z] - n1_ones * paths[z]:
                return LinearSolution(False, (None, None), pivots, None)
        return LinearSolution(True, (Fraction(n0, det), Fraction(n1, det) if q else None),
                              pivots, None)

    return tuple(solve(rhs) for rhs in rhss)


# (nbrs, width, up, down, flat) of neighbour_sweep
Sweep = tuple[tuple[int, ...], int, list[int], list[int], list[int]]


def neighbour_sweep(ops: LocalOperators) -> Sweep:
    """The walk counts from every neighbour of the base that the
    endpoint-one fit reads, from one pass over each level's adjacency
    lists: (nbrs, width, up, down, flat). Lane k, width bits wide, of a
    packed count is neighbour y = nbrs[k]'s: for z on level i, up[z] packs
    R^{i-1} e_y[z], down[z] packs L R^i e_y[z] and flat[z] packs
    F R^{i-1} e_y[z]. The pass over level i raises its up counts to level
    i + 1, lowers them into down on level i - 1 and sums them over each
    vertex's level-i neighbours into flat.
    """
    g = ops.graph
    nbrs = g.neighbors(ops.base)
    metric = ops.metric
    dist, paths, adj = metric.dist, metric.paths, g.adj
    # up[z] on level i has lanes summing to R^{i-1} R e_x[z] = paths[z], so
    # each is at most P = max(paths), and the lanes of down and flat, sums
    # of up over at most maxdeg neighbours, are at most M = maxdeg * P. In
    # fit_endpoint1 a pivot determinant is at most P^2 and a Cramer
    # numerator at most P * M in size, so every lane of a checked
    # difference det * rhs - n0 * up - n1 * paths * ones is below 3 P^2 M
    # < 2^width in size. No sum carries, and a packed difference is zero
    # exactly when all its lanes are: below its lowest nonzero lane L it
    # is zero, and modulo the next lane boundary it is L shifted, which is
    # not zero since 0 < |L| < 2^width.
    p_max = max(paths)
    m_max = max(map(len, adj)) * p_max
    width = (3 * p_max * p_max * m_max).bit_length()
    up = [0] * g.n
    down = [0] * g.n
    flat = [0] * g.n
    for k, y in enumerate(nbrs):
        up[y] = 1 << width * k
    for j in range(1, metric.ecc + 1):
        for z in metric.sphere(j):
            u, f = up[z], 0
            for w in adj[z]:
                d = dist[w]
                if d == j:
                    f += up[w]
                elif d > j:
                    up[w] += u
                else:
                    down[w] += u
            flat[z] = f
    return nbrs, width, up, down, flat


def swept_column(ops: LocalOperators, sweep: Sweep, family: str, m: int,
                 y: int) -> Optional[list[int]]:
    """Column y of the walk counts of shape_string(family, m), by endpoint,
    read where the fits read it from sweep = neighbour_sweep(ops), or None
    where they read no such column. From the base x, R^m e_x is
    metric.paths on level m. From a neighbour y = nbrs[k], R^m e_y,
    L R^m e_y and F R^m e_y are lane k of up on level m + 1, of down on
    level m and of flat on level m + 1, and R^m L e_y = R^m e_x.
    """
    nbrs, width, up, down, flat = sweep
    metric = ops.metric
    if (y == metric.base and family == "r") or (y in nbrs and family == "lr"):
        return [p if d == m else 0 for d, p in zip(metric.dist, metric.paths)]
    if y not in nbrs:
        return None
    packed, level = {"r": (up, m + 1), "rl": (down, m), "rf": (flat, m + 1)}[family]
    k = nbrs.index(y)
    return [_lane(c, k, width) if d == level else 0
            for d, c in zip(metric.dist, packed)]


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

    The counts of all neighbours y are carried at once, as the lanes of
    one packed int per vertex, so each level is one sweep over its
    adjacency lists (neighbour_sweep), and every row of a vertex is
    checked by one integer identity (_packed_solve). The first failing
    level is solved again row by row with solve_linear, whose first bad
    row is the witness; a later failing level only reads as inconsistent.

    pdr is the ratio fit at the base of ops. The fit applies only when the
    trivial module is thin (pdr.ok) and the base has at least two
    neighbors; otherwise it raises NotApplicable.
    """
    if not pdr.ok:
        raise NotApplicable(REASON_NOT_THIN)
    if ops.graph.degree(ops.base) < 2:
        raise NotApplicable(REASON_LEAF)

    nbrs, width, up, down, flat = neighbour_sweep(ops)
    metric = ops.metric
    paths = metric.paths
    ones = ((1 << width * len(nbrs)) - 1) // ((1 << width) - 1)
    levels: list[LevelFit] = []
    witness: Optional[E1Witness] = None
    for i in range(1, ops.ecc + 1):
        sphere = metric.sphere(i)
        sol_km, sol_tr = _packed_solve(sphere, up, paths, width, ones, down, flat)
        # rho is determined exactly when it is a pivot, and values[1] then
        # holds it
        forced_zero = sol_tr.consistent and sol_tr.values[1] == 0
        consistent = sol_km.consistent and sol_tr.consistent
        if witness is None and not consistent:
            # the reports name elimination's first bad row, so the first
            # failing system is solved again row by row; row k |S_i| + j is
            # the equation of neighbour nbrs[k] and vertex sphere[j]
            equation, rhs = (("kappa-mu", down) if not sol_km.consistent
                             else ("theta-rho", flat))
            ups = [_lanes(up[z], len(nbrs), width) for z in sphere]
            rhss = [_lanes(rhs[z], len(nbrs), width) for z in sphere]
            keys = [(k, j) for k in range(len(nbrs)) for j in range(len(sphere))]
            bad_row = solve_linear([(ups[j][k], paths[sphere[j]]) for k, j in keys],
                                   [rhss[j][k] for k, j in keys]).bad_row
            at_y, at_z = divmod(bad_row, len(sphere))
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
