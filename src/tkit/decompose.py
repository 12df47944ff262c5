"""Numeric decomposition of the vertex space into irreducible invariant
subspaces of the local operator algebra.

The algebra is generated by the adjacency matrix and the level projectors
of a base vertex. First a level-graded solve decides whether only scalars
commute with the generators: a commuting matrix is block-diagonal by
level, so that solve has sum_i |S_i|^2 unknowns, and when it passes the
whole space is one irreducible module. Otherwise the commutant is solved
as a Kronecker system with n^2 unknowns, a random symmetric element of it
is sampled and eigen-split; eigenspaces are invariant subspaces, and any
piece whose self-intertwiner space is bigger than scalars is split again.
Every accepted module is post-verified against an invariance residual, so
the randomness never affects the correctness of accepted output, only
whether a retry is needed.

Eigenvalues are irrational in general, so this module works in floating
point; the combinatorial fits elsewhere stay exact.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exact import LocalOperators
from .graphs import to_graph6

log = logging.getLogger(__name__)

PASS = "PASS"
FAIL = "FAIL"
VACUOUS = "VACUOUS"
NOT_APPLICABLE = "NOT_APPLICABLE"


class DecompositionError(RuntimeError):
    """Splitting or invariance verification kept failing across reseeded
    attempts."""

    def __init__(self, message: str, residuals: Sequence[float] = ()):
        super().__init__(message)
        self.residuals = tuple(residuals)


class _SplitFailed(Exception):
    pass


@dataclass(frozen=True)
class Subspace:
    """Orthonormal row-vector basis of a subspace of the vertex space."""

    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


@dataclass(frozen=True)
class ModuleSummary:
    subspace: Subspace
    endpoint: int
    diameter: int
    level_dims: tuple[int, ...]
    thin: bool
    iso_class: int
    residual: float

    @property
    def dim(self) -> int:
        return self.subspace.dim


@dataclass(frozen=True)
class DecompositionReport:
    modules: tuple[ModuleSummary, ...]
    trivial_index: int
    trivial_thin: bool
    endpoint1_count: int
    endpoint1_iso_classes: int
    endpoint1_all_thin: bool
    total_dim: int
    n: int
    seed: int
    tol: float
    rank_flag: bool
    notes: tuple[str, ...]

    def endpoint1_modules(self) -> tuple[ModuleSummary, ...]:
        return tuple(m for m in self.modules if m.endpoint == 1)


@dataclass(frozen=True)
class AlgebraicVerdict:
    status: str
    reason: Optional[str] = None


def generator_matrices(ops: LocalOperators) -> list[np.ndarray]:
    """Adjacency matrix and level projectors as 0/1 float arrays."""
    n = ops.graph.n
    adjacency = np.zeros((n, n))
    for u, nbrs in enumerate(ops.graph.adj):
        adjacency[u, list(nbrs)] = 1.0
    dist = np.array(ops.metric.dist)
    return [adjacency] + [np.diag((dist == i).astype(float))
                          for i in range(ops.ecc + 1)]


# ---------------------------------------------------------------------------
# Rank and orthonormalization helpers
# ---------------------------------------------------------------------------

def _orthonormal_rows(stack: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis (rows) of the row space, by SVD."""
    u, s, vt = np.linalg.svd(stack, full_matrices=False)
    if s.size == 0:
        return vt[:0]
    cutoff = tol * max(1.0, float(s[0]))
    return vt[s > cutoff]


def _nullspace_rows(stack: np.ndarray, tol: float) -> tuple[np.ndarray, bool]:
    """Orthonormal nullspace basis (rows) and a rank-instability flag.

    A tall stack is QR-reduced first, so the SVD never forms its tall left
    factor; LAPACK's SVD takes the same QR step itself on tall input, and
    R has the same singular values and right factor.
    """
    if stack.shape[0] > stack.shape[1]:
        stack = np.linalg.qr(stack, mode="r")
    _, s, vt = np.linalg.svd(stack, full_matrices=False)
    cutoff, flag = _cutoff(s, tol)
    return vt[s <= cutoff], flag


def _cutoff(s: np.ndarray, tol: float) -> tuple[float, bool]:
    """Rank cutoff for descending singular values s, and whether any of
    them sits within a factor of ten of it (an unstable rank)."""
    cutoff = tol * max(1.0, float(s[0]) if s.size else 1.0)
    return cutoff, bool(np.any((s > 0.1 * cutoff) & (s < 10.0 * cutoff)))


def _intertwiner_stack(gens_a: Sequence[np.ndarray],
                       gens_b: Sequence[np.ndarray]) -> np.ndarray:
    """Stacked matrix of M -> M G_a - G_b M over the generator pairs, acting
    on M flattened row-major; its nullspace is the intertwiners from a to b.
    Filled block by block into one preallocated array."""
    ka, kb = gens_a[0].shape[0], gens_b[0].shape[0]
    size = ka * kb
    stack = np.empty((len(gens_a) * size, size))
    for j, (ga, gb) in enumerate(zip(gens_a, gens_b)):
        block = stack[j * size:(j + 1) * size]
        block[:] = np.kron(np.eye(kb), ga.T)
        block -= np.kron(gb, np.eye(ka))
    return stack


def commutant_basis(generators: Sequence[np.ndarray],
                    tol: float = 1e-9) -> tuple[list[np.ndarray], bool]:
    """Orthonormal basis of all matrices commuting with every generator.

    Solved as the stacked nullspace of M -> MG - GM over all generators G.
    The dimension equals the sum of squared multiplicities over the
    isomorphism classes appearing in the space the generators act on.
    """
    k = generators[0].shape[0]
    null, flag = _nullspace_rows(_intertwiner_stack(generators, generators), tol)
    return [v.reshape(k, k) for v in null], flag


def scalar_commutant(adjacency: np.ndarray, dist: Sequence[int],
                     tol: float = 1e-9) -> tuple[bool, bool]:
    """Whether only scalars commute with the adjacency matrix and the level
    projectors (the standard module is irreducible), and the rank flag of
    that solve.

    A matrix commuting with every level projector is block-diagonal by
    level, so the unknowns are its entries M[a, b] with a and b on one
    level, sum_i |S_i|^2 of them, and (MA - AM)[u, v] can be nonzero only
    where the levels of u and v are at most one apart.
    """
    level = np.asarray(dist)
    gap = level[:, None] - level[None, :]
    a, b = np.nonzero(gap == 0)
    u, v = np.nonzero(np.abs(gap) <= 1)
    u, v = u[:, None], v[:, None]
    # coefficient of M[a, b] in (MA)[u, v] is [u = a] A[b, v], in (AM)[u, v]
    # it is A[u, a] [b = v]
    system = (u == a) * adjacency[b, v] - adjacency[u, a] * (b == v)
    s = np.linalg.svd(system, compute_uv=False)
    cutoff, flag = _cutoff(s, tol)
    # the system has at least as many rows as unknowns
    return a.size - int((s > cutoff).sum()) == 1, flag


def hom_dimension(w: Subspace | np.ndarray, w_other: Subspace | np.ndarray,
                  generators: Sequence[np.ndarray], tol: float = 1e-9) -> int:
    """Dimension of the space of intertwining maps from w to w_other.

    For irreducible inputs a nonzero value means the modules are
    isomorphic and zero means they are not.
    """
    dim, _ = _hom_dimension_flagged(_rows(w), _rows(w_other), generators, tol)
    return dim


def _rows(w: Subspace | np.ndarray) -> np.ndarray:
    return w.basis if isinstance(w, Subspace) else np.asarray(w, dtype=float)


def _hom_dimension_flagged(ba: np.ndarray, bb: np.ndarray,
                           generators: Sequence[np.ndarray],
                           tol: float) -> tuple[int, bool]:
    stack = _intertwiner_stack([ba @ G @ ba.T for G in generators],
                               [bb @ G @ bb.T for G in generators])
    null, flag = _nullspace_rows(stack, tol)
    return null.shape[0], flag


def subspace_distance(a: Subspace | np.ndarray, b: Subspace | np.ndarray) -> float:
    """Spectral-norm distance between orthogonal projectors."""
    ba, bb = _rows(a), _rows(b)
    pa = ba.T @ ba
    pb = bb.T @ bb
    return float(np.linalg.norm(pa - pb, 2))


# ---------------------------------------------------------------------------
# Trivial module
# ---------------------------------------------------------------------------

def trivial_module_basis(ops: LocalOperators, tol: float = 1e-9) -> Subspace:
    """Closure of the base vertex's indicator vector under the generators,
    re-orthonormalized each pass until the dimension stabilizes.
    """
    gens = generator_matrices(ops)
    n = ops.graph.n
    basis = np.zeros((1, n))
    basis[0, ops.base] = 1.0
    while True:
        stack = np.vstack([basis] + [basis @ G.T for G in gens])
        new_basis = _orthonormal_rows(stack, tol)
        if new_basis.shape[0] == basis.shape[0]:
            return Subspace(new_basis)
        basis = new_basis


# ---------------------------------------------------------------------------
# Full decomposition
# ---------------------------------------------------------------------------

def _eigengroups(sym: np.ndarray, tol: float) -> list[np.ndarray]:
    """Eigenvector column blocks of a symmetric matrix, grouped by
    eigenvalue with a gap threshold derived from tol."""
    vals, vecs = np.linalg.eigh(sym)
    gap = 1e3 * tol * max(1.0, float(np.abs(vals).max()))
    groups: list[np.ndarray] = []
    start = 0
    for idx in range(1, len(vals) + 1):
        if idx == len(vals) or vals[idx] - vals[idx - 1] > gap:
            groups.append(vecs[:, start:idx])
            start = idx
    return groups


def _split_subspace(basis: np.ndarray, gens: Sequence[np.ndarray],
                    rng: np.random.Generator, tol: float,
                    notes: list[str], flags: list[bool]) -> list[np.ndarray]:
    k = basis.shape[0]
    if k == 1:
        return [basis]
    restricted = [basis @ G @ basis.T for G in gens]
    comm, flag = commutant_basis(restricted, tol)
    flags.append(flag)
    if not comm:
        # the identity always commutes; a cutoff below rounding noise
        # rejects even it
        raise _SplitFailed(f"empty commutant of a dim-{k} subspace at tol {tol:g}")
    if len(comm) == 1:
        return [basis]

    sym_parts = np.vstack([((M + M.T) / 2.0).reshape(-1) for M in comm])
    sym_basis = _orthonormal_rows(sym_parts, 1e-8)
    if sym_basis.shape[0] <= 1:
        # no symmetric commutant element beyond scalars: irreducible over
        # the reals with a complex or quaternionic endomorphism ring
        note = (f"accepted dim-{k} module with self-intertwiner dimension "
                f"{len(comm)} and scalar symmetric part (non-real type)")
        notes.append(note)
        log.info(note)
        return [basis]

    groups: list[np.ndarray] = []
    for _ in range(6):
        coeffs = rng.standard_normal(len(comm))
        sym = sum(c * (M + M.T) / 2.0 for c, M in zip(coeffs, comm))
        sym /= max(1.0, float(np.linalg.norm(sym)))
        groups = _eigengroups(sym, tol)
        if len(groups) > 1:
            break
    else:
        # deterministic fallback: split along a fixed non-scalar symmetric
        # commutant element
        for row in sym_basis:
            cand = row.reshape(k, k)
            cand = cand - (np.trace(cand) / k) * np.eye(k)
            if np.linalg.norm(cand) > 1e-6:
                groups = _eigengroups(cand / np.linalg.norm(cand), tol)
                if len(groups) > 1:
                    break
        if len(groups) <= 1:
            raise _SplitFailed(f"could not split a dim-{k} reducible subspace")

    out: list[np.ndarray] = []
    for block in groups:
        out.extend(_split_subspace(block.T @ basis, gens, rng, tol, notes, flags))
    return out


def _level_dims(basis: np.ndarray, ops: LocalOperators) -> tuple[int, ...]:
    dims = []
    for i in range(ops.ecc + 1):
        idx = list(ops.metric.sphere(i))
        block = basis[:, idx]
        # the level projector restricted to an invariant subspace is
        # idempotent, so singular values sit at 0 or 1
        sv = np.linalg.svd(block, compute_uv=False)
        dims.append(int((sv > 0.5).sum()))
    return tuple(dims)


def _instance(ops: LocalOperators) -> str:
    return f"{to_graph6(ops.graph)} base {ops.graph.labels[ops.base]}"


def decompose(ops: LocalOperators, seed: int = 42, tol: float = 1e-9,
              max_retries: int = 4) -> DecompositionReport:
    """Split the vertex space into verified irreducible invariant
    subspaces and summarize endpoints, level dimensions, thinness and
    isomorphism classes.
    """
    gens = generator_matrices(ops)
    n = ops.graph.n
    residual_bound = 1e3 * tol
    worst: list[float] = []
    # an irreducible standard module needs no Kronecker solve and no split
    irreducible, irreducible_flag = scalar_commutant(gens[0], ops.metric.dist, tol)

    for attempt in range(max_retries):
        rng = np.random.default_rng([seed, attempt])
        notes: list[str] = []
        flags: list[bool] = [irreducible_flag] if irreducible else []
        try:
            bases = ([np.eye(n)] if irreducible else
                     _split_subspace(np.eye(n), gens, rng, tol, notes, flags))
        except _SplitFailed as exc:
            log.info("%s attempt %d: %s", _instance(ops), attempt, exc)
            continue

        modules = _verify_and_summarize(bases, gens, ops, tol, residual_bound, worst)
        if modules is None:
            continue

        endpoint0 = [i for i, m in enumerate(modules) if m.endpoint == 0]
        if len(endpoint0) != 1:
            worst.append(float("nan"))
            continue
        e1 = [m for m in modules if m.endpoint == 1]
        report = DecompositionReport(
            modules=tuple(modules),
            trivial_index=endpoint0[0],
            trivial_thin=modules[endpoint0[0]].thin,
            endpoint1_count=len(e1),
            endpoint1_iso_classes=len({m.iso_class for m in e1}),
            endpoint1_all_thin=all(m.thin for m in e1),
            total_dim=sum(m.dim for m in modules),
            n=n,
            seed=seed,
            tol=tol,
            rank_flag=any(flags),
            notes=tuple(notes),
        )
        if report.total_dim != n:
            continue
        return report

    raise DecompositionError(
        f"{_instance(ops)}: no verified decomposition after {max_retries} "
        f"attempts", worst)


def _verify_and_summarize(bases, gens, ops, tol, residual_bound, worst):
    modules_raw = []
    for basis in bases:
        proj = basis.T @ basis
        residual = 0.0
        for G in gens:
            gp = G @ proj
            defect = np.linalg.norm(gp - proj @ gp)
            residual = max(residual, float(defect / max(1.0, np.linalg.norm(G))))
        if residual > residual_bound:
            worst.append(residual)
            return None
        dims = _level_dims(basis, ops)
        nz = [i for i, dim in enumerate(dims) if dim > 0]
        if nz != list(range(nz[0], nz[-1] + 1)) or sum(dims) != basis.shape[0]:
            worst.append(residual)
            return None
        modules_raw.append((basis, dims, nz[0], len(nz) - 1, residual))

    order = sorted(range(len(modules_raw)),
                   key=lambda idx: (modules_raw[idx][2], modules_raw[idx][0].shape[0],
                                    modules_raw[idx][1], idx))
    iso_ids: list[int] = [-1] * len(modules_raw)
    next_id = 0
    reps: list[tuple[int, int]] = []  # (module index, iso id)
    for pos in order:
        basis, dims, endpoint, diameter, _ = modules_raw[pos]
        assigned = None
        for rep_idx, rep_id in reps:
            rb, rd, re, rdiam, _ = modules_raw[rep_idx]
            if (re, rdiam, rd) != (endpoint, diameter, dims):
                continue
            h, _ = _hom_dimension_flagged(rb, basis, gens, tol)
            if h > 0:
                assigned = rep_id
                break
        if assigned is None:
            assigned = next_id
            reps.append((pos, assigned))
            next_id += 1
        iso_ids[pos] = assigned

    modules = []
    for pos in order:
        basis, dims, endpoint, diameter, residual = modules_raw[pos]
        modules.append(ModuleSummary(
            subspace=Subspace(basis),
            endpoint=endpoint,
            diameter=diameter,
            level_dims=dims,
            thin=all(dim <= 1 for dim in dims),
            iso_class=iso_ids[pos],
            residual=residual,
        ))
    return modules


def algebraic_verdict(report: DecompositionReport) -> AlgebraicVerdict:
    """PASS when the endpoint-one modules exist, form a single isomorphism
    class and are all thin; VACUOUS when none exist; FAIL otherwise.
    Requires a thin trivial module to be meaningful."""
    if not report.trivial_thin:
        return AlgebraicVerdict(NOT_APPLICABLE, "trivial module not thin")
    if report.endpoint1_count == 0:
        return AlgebraicVerdict(VACUOUS)
    reasons = []
    if report.endpoint1_iso_classes > 1:
        reasons.append("multiple iso classes")
    if not report.endpoint1_all_thin:
        reasons.append("non-thin")
    if reasons:
        return AlgebraicVerdict(FAIL, " + ".join(reasons))
    return AlgebraicVerdict(PASS)


# ---------------------------------------------------------------------------
# Dimension of the restricted operator blocks (diagnostic)
# ---------------------------------------------------------------------------

def dual_block_dims(rep: DecompositionReport) -> tuple[int, ...]:
    """Per level i = 1..ecc, the dimension of E*_i T E*_1, the operator
    algebra compressed to the (level i) x (level 1) block; index i-1 holds
    level i.

    The algebra is semisimple, so it is the direct sum of End(W) over the
    isomorphism classes W of irreducible modules, and the block has
    dimension sum_W dim(E*_i W) * dim(E*_1 W), read off one module per
    class. This assumes every class is of real type (endomorphism ring
    the reals); a non-real-type class would show up as a note in the
    report.
    """
    per_class = {m.iso_class: m.level_dims for m in rep.modules}
    ecc = len(rep.modules[0].level_dims) - 1
    return tuple(sum(dims[i] * dims[1] for dims in per_class.values())
                 for i in range(1, ecc + 1))
