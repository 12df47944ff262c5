"""Numeric decomposition of the vertex space into irreducible invariant
subspaces of the local operator algebra.

The algebra is generated by the adjacency matrix and the level projectors
of a base vertex. The standard module is irreducible exactly when it
equals the primary module T e_x, the closure of the base indicator under
the generators. When the level partition is equitable, the level
indicators span a submodule holding e_x, so dim T e_x is at most ecc + 1
and V is reducible once some level has two vertices: a certificate read
off A and the levels alone, in small integers (_equitable). Otherwise the
closure is computed exactly, modulo a prime, one level at a time
(_primary_dimension), and reads no tolerance. Short of n, by either
route, one solve gives the commutant End_T(V), a Kronecker system with
n^2 unknowns, which spans every intertwiner; V is still irreducible when
it is the scalars (a closure that under-counted). Each attempt draws one
random symmetric element of it, splits V into its eigenspaces and checks
every piece U: dim End_T(U) = dim Hom_T(U, U), read off End_T(V) as a
trace that is an integer (_hom_dimension), is 1, or is larger with no
symmetric element beyond scalars (an irreducible of non-real type); its
invariance residual is within the bound; and it is graded on contiguous
levels. Whether two accepted modules are isomorphic is the same trace,
dim Hom_T(U, W), with no further solve and no tolerance; a trace more
than 0.25 from an integer, or other than one module of endpoint 0, also
rejects the attempt. A rejected attempt is logged with its reason and
the next one draws again; as every accepted module passed every check,
the randomness never affects the correctness of accepted output, only
whether a retry is needed. The level dimensions of a module are read off
the traces of the level projectors on it.

Eigenvalues are irrational in general, so the split works in floating
point; the combinatorial fits elsewhere stay exact.

A small instance is mostly fixed cost: at n = 6 a call takes about
0.45 ms (median over the 33 thin rooted classes at a base of degree at
least 2, each decomposed repeatedly; two cores, numpy 2.4), of which
LAPACK's SVD of R takes 0.08 to 0.15 ms and its QR and eigh about 0.04
ms more. 31 of the 33 have an equitable level partition, so the closure
runs on 2. The rest works on whole arrays: the residual products of all
of an attempt's pieces are one stack, every piece's level traces one
bincount, the closure reads level slices of one reordered copy of A, and
the QR's workspace query is made once per shape. Each
stacked step gives the floats of the same step taken one array at a
time, so every LAPACK call gets the same bytes and every output keeps
them.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.linalg import lapack_lite

from .exact import LocalOperators, describe
from .graphs import Graph
# the verdict and the error, numpy-free, are read here too
from .verdict import (FAIL, NOT_APPLICABLE, PASS, VACUOUS,  # noqa: F401
                      AlgebraicVerdict, DecompositionError, algebraic_verdict)

log = logging.getLogger(__name__)

# Largest dense array decompose may build, in bytes: an n x n array, 8 n^2
# bytes, checked before any is built, and the Kronecker stack of the one
# commutant solve, 8 (ecc + 2) n^4 bytes. The limit bounds the stack, not
# the peak. LAPACK factors the stack in place and it is freed before the
# SVD, so the peak, beyond the interpreter, is the larger of two: the
# stack with one n^2 x n^2 block beside it (a temporary of the build, or
# R), and the SVD of R, whose R, U, VT and workspace take about seven such
# blocks. The stack holds ecc + 2 blocks, so it sets the peak when ecc is
# large; for a star (ecc = 1) the SVD does (check star:40 --vertex 0
# --decompose: 171 MiB for a 65 MiB stack; star:60: 679 MiB for 317 MiB;
# two cores, numpy 2.4), so a star's stack at the limit may peak near
# 2.2 GiB. The level projectors are never formed (commutant_basis takes
# their diagonals), so other arrays are n x n, like the closure's copy of A
# in bytes, or, like the commutant basis, no larger than one n^2 x n^2
# block of the stack, except the verification's: the generator products
# and the defects of all p <= n pieces of an attempt are two stacks
# (_residuals), at most 2 p (ecc + 2) n^2 floats, which is at most 2 / n of
# the Kronecker stack (under 2 MB for Q5 at a vertex).
MAX_DENSE_BYTES = 1 << 30

# Attempts before decompose gives up. Attempt k makes one random draw, the
# first of default_rng([seed, k]), and a rejected attempt logs its reason
MAX_ATTEMPTS = 4

# Modulus of the exact closure of the base indicator: below 2^31, so a
# product of two residues stays below 2^62 in int64
PRIME = 2_147_483_629


class _Rejected(Exception):
    """A rejected attempt: its reason, and the invariance residual of the
    module that failed, when one was measured."""

    def __init__(self, reason: str, residual: Optional[float] = None):
        super().__init__(reason)
        self.residual = residual


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
    seed: int
    tol: float
    rank_flag: bool
    notes: tuple[str, ...]

    def endpoint1_modules(self) -> tuple[ModuleSummary, ...]:
        return tuple(m for m in self.modules if m.endpoint == 1)


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Adjacency matrix as a 0/1 float array."""
    n = g.n
    adjacency = np.zeros(n * n)
    adjacency[[u * n + v for u, nbrs in enumerate(g.adj) for v in nbrs]] = 1.0
    return adjacency.reshape(n, n)


# ---------------------------------------------------------------------------
# Rank and orthonormalization helpers
# ---------------------------------------------------------------------------

def _nullspace_rows(r: np.ndarray, tol: float) -> tuple[np.ndarray, bool]:
    """Orthonormal nullspace basis (rows) of a matrix and a rank-instability
    flag, from its SVD. commutant_basis hands it the R of its stack's QR,
    which has the stack's singular values and right factor, so the SVD
    never forms the stack's tall left factor (LAPACK's SVD would take the
    same QR step itself on the tall stack)."""
    _, s, vt = np.linalg.svd(r, full_matrices=False)
    cutoff, flag = _cutoff(s, tol)
    return vt[s <= cutoff], flag


def _cutoff(s: np.ndarray, tol: float) -> tuple[float, bool]:
    """Rank cutoff for descending singular values s, and whether any of
    them sits within a factor of ten of it (an unstable rank)."""
    cutoff = tol * max(1.0, float(s[0]) if s.size else 1.0)
    return cutoff, bool(((s > 0.1 * cutoff) & (s < 10.0 * cutoff)).any())


# dgeqrf's workspace by (rows, columns), as its workspace query sizes it:
# the query is made once per shape
_GEQRF_WORKSPACE: dict[tuple[int, int], int] = {}


def _geqrf(a: np.ndarray, tau: np.ndarray, work: np.ndarray, lwork: int) -> None:
    cols, rows = a.shape
    info = lapack_lite.dgeqrf(rows, cols, a, rows, tau, work, lwork, 0)["info"]
    if info:
        raise np.linalg.LinAlgError(f"dgeqrf returned info {info}")


def _qr_r_in_place(a: np.ndarray) -> np.ndarray:
    """R of the QR factorization of a matrix with at least as many rows as
    columns, held column-major in a, a C-ordered array of shape (columns,
    rows): LAPACK's dgeqrf factors a in place, with leading dimension rows,
    so the matrix is never copied. R is the upper triangle of the factored
    matrix's leading rows, which is the transposed lower triangle of a's
    leading columns (np.tril's), and comes out F-contiguous.

    The workspace is sized as np.linalg.qr sizes it, from LAPACK's
    workspace query: a smaller one takes LAPACK's unblocked path, which
    rounds differently, so R has the bytes of np.linalg.qr's R.
    """
    cols, rows = a.shape
    tau = np.empty(cols)
    shape = rows, cols
    lwork = _GEQRF_WORKSPACE.get(shape)
    if lwork is None:
        query = np.empty(1)
        _geqrf(a, tau, query, -1)
        lwork = _GEQRF_WORKSPACE[shape] = max(1, cols, int(query[0]))
    _geqrf(a, tau, np.empty(lwork), lwork)
    # np.tril(a[:, :cols]), as np.tril forms it. Its mask is built each
    # time: masks kept per shape (n^4 bytes, 1 MiB for Q5) stay on the heap
    # and raised a repeated check --decompose's peak RSS by about 4 MiB
    return np.where(np.tri(cols, dtype=bool), a[:, :cols], 0.0).T


def _commutant_stack(generators: Sequence[np.ndarray]) -> np.ndarray:
    """The Kronecker stack of M -> MG - GM over all generators G, acting on
    M flattened row-major, held column-major: a C-ordered array of shape
    (n^2, len(generators) n^2) whose row (j, q) holds column (j, q) of every
    generator's block. A 1-D generator stands for the diagonal matrix it
    lists.

    Each block holds the products np.kron forms, so the stack has the bytes
    of the np.kron build, signed zeros included; a dense generator's block
    is written with one block-sized temporary.
    """
    k = generators[0].shape[0]
    size = k * k
    eye = np.eye(k)
    columns = np.zeros((size, len(generators), size))
    # entry r of block g's diagonal is columns[r, g, r]
    step = len(generators) * size + 1
    for g, G in enumerate(generators):
        if G.ndim == 1:
            # kron(eye, diag(G)) - kron(diag(G), eye) is diagonal, with
            # G[p] - G[i] at row (i, p); for G >= 0, as the level indicators
            # are, these are the bytes of the np.kron build, zeros included.
            # The strided diagonal is viewed as k x k and written in place
            diagonal = columns.reshape(-1)[g * size::step].reshape(k, k)
            np.subtract(G, G[:, None], out=diagonal)
            continue
        # kron(eye, G.T) - kron(G, eye), as the products np.kron forms:
        # block[i, p, j, q] = eye[i, j] G[q, p] - G[i, j] eye[p, q], written
        # to columns[(j, q), g, (i, p)]; G.T made C-ordered, so that both
        # products come out in the layout of the rows they are written to.
        # The first product is written in place and the second subtracted
        block = columns[:, g].reshape(k, k, k, k)
        np.multiply(eye[:, None, :, None], G[None, :, None, :], out=block)
        block -= np.ascontiguousarray(G.T)[:, None, :, None] * eye[None, :, None, :]
    return columns.reshape(size, -1)


def commutant_basis(generators: Sequence[np.ndarray],
                    tol: float = 1e-9) -> tuple[np.ndarray, bool]:
    """Orthonormal basis of all matrices commuting with every generator,
    stacked as an array of shape (dim, n, n), and a rank-instability flag.
    A 1-D generator stands for the diagonal matrix it lists.

    Solved as the stacked nullspace of M -> MG - GM over all generators G,
    acting on M flattened row-major, with n^2 unknowns. The dimension
    equals the sum of squared multiplicities over the isomorphism classes
    appearing in the space the generators act on.

    The stack is built column-major (_commutant_stack) and QR-factored in
    place (_qr_r_in_place), so it is held once; the SVD reads R. No name
    holds the stack, so it is freed once R is copied out, before the SVD.
    """
    k = generators[0].shape[0]
    r = _qr_r_in_place(_commutant_stack(generators))
    null, flag = _nullspace_rows(r, tol)
    return null.reshape(-1, k, k), flag


# ---------------------------------------------------------------------------
# Full decomposition
# ---------------------------------------------------------------------------

def _eigengroups(sym: np.ndarray, tol: float) -> list[np.ndarray]:
    """Eigenvector column blocks of a symmetric matrix, grouped by
    eigenvalue with a gap threshold derived from tol."""
    vals, vecs = np.linalg.eigh(sym)
    values = vals.tolist()
    # ascending, so the largest magnitude is at an end
    gap = 1e3 * tol * max(1.0, abs(values[0]), abs(values[-1]))
    # a group ends where the next eigenvalue is more than the gap above
    bounds = [0, *[i for i in range(1, len(values)) if values[i] - values[i - 1] > gap],
              len(values)]
    return [vecs[:, start:stop] for start, stop in zip(bounds, bounds[1:])]


def _irreducible(basis: np.ndarray, image: np.ndarray, notes: list[str]) -> bool:
    """Whether an invariant subspace U with orthonormal row basis B is
    irreducible, given image = M_k B^T over the commutant basis M_k of
    End_T(V): End_T(U), spanned by the compressions B M_k B^T and of
    dimension dim Hom_T(U, U), is the scalars, or has no symmetric element
    beyond them whose projectors would split U (non-real type, which a note
    records)."""
    end_dim = _hom_dimension(image, basis)
    if end_dim == 1:
        return True
    if not end_dim:
        return False
    endomorphisms = np.matmul(basis, image)
    sym_parts = np.vstack([((M + M.T) / 2.0).reshape(-1) for M in endomorphisms])
    sym_sv = np.linalg.svd(sym_parts, compute_uv=False)
    if np.count_nonzero(sym_sv > 1e-8 * max(1.0, float(sym_sv[0]))) > 1:
        return False
    note = (f"accepted dim-{len(basis)} module with self-intertwiner "
            f"dimension {end_dim} and scalar symmetric part (non-real type)")
    notes.append(note)
    log.info(note)
    return True


def _split(comm: np.ndarray, rng: np.random.Generator, tol: float) -> list[np.ndarray]:
    """Orthonormal row bases of the eigenspaces of one random symmetric
    element of a reducible vertex space's commutant End_T(V), stacked as
    commutant_basis returns it; _Rejected when the draw has one eigenspace.
    """
    coeffs = rng.standard_normal(len(comm))
    # the terms c (M + M^T) / 2, formed in one array the size of comm, and
    # summed in order, as sum() adds them; its leading 0 + turned negative
    # zeros into 0.0, and so does + 0.0
    terms = comm + comm.transpose(0, 2, 1)
    terms *= coeffs[:, None, None]
    terms /= 2.0
    sym = terms.sum(0) + 0.0
    flat = sym.reshape(-1)
    # the Frobenius norm as np.linalg.norm forms it
    sym /= max(1.0, math.sqrt(flat.dot(flat)))
    groups = _eigengroups(sym, tol)
    if len(groups) == 1:
        raise _Rejected(f"could not split a dim-{comm.shape[1]} reducible subspace")
    # C-ordered, and with eigh's negative zeros printed as 0.0
    return [np.add(block.T, 0.0, order="C") for block in groups]


def _level_dims(bases: Sequence[np.ndarray],
                dist: np.ndarray) -> list[Optional[tuple[int, ...]]]:
    """Level dimensions of each subspace, read off the traces of the level
    projectors on it, or None for a subspace with a trace more than 0.25
    from an integer (one that is not graded). The squared column norms of
    every subspace are one reduceat, and their sums by level one bincount,
    each subspace over bins of its own."""
    width = int(dist.max()) + 1
    starts = [0]
    for basis in bases[:-1]:
        starts.append(starts[-1] + len(basis))
    stacked = np.concatenate(bases)
    weights = np.add.reduceat(stacked * stacked, starts, axis=0)
    bins = dist + np.arange(0, width * len(bases), width)[:, None]
    traces = np.bincount(bins.reshape(-1), weights=weights.reshape(-1)).tolist()
    out: list[Optional[tuple[int, ...]]] = []
    for start in range(0, len(traces), width):
        row = traces[start:start + width]
        dims = [round(trace) for trace in row]
        graded = all(abs(trace - dim) <= 0.25 for trace, dim in zip(row, dims))
        out.append(tuple(dims) if graded else None)
    return out


def _primary_dimension(adjacency: np.ndarray, levels: Sequence[np.ndarray]) -> int:
    """Dimension of the primary module T e_x modulo PRIME: the closure of
    the base indicator (levels[0] is the base alone) under the adjacency
    matrix and the level masks, given as 0/1 rows of any dtype.

    The closure keeps one echelon basis per level and a frontier of
    (level, vector) pairs, each vector given on its level. It reads A as a
    copy of 0/1 bytes, an eighth of A's size, with the vertices in level
    order, so that each level is a slice. A vector on level i is multiplied
    by the rows of levels i - 1, i and i + 1 of A's columns on level i in
    int64, exact for residues below 2^31 and n below 2^31; its parts on
    those levels that their level's basis does not span join it and the
    frontier. A rank modulo a prime never exceeds the rank over Q, so the
    result can only fall short of dim T e_x.
    """
    n = adjacency.shape[0]
    levels = np.asarray(levels, dtype=bool)
    # the vertices level by level: the columns of the masks' nonzeros
    order = levels.nonzero()[1]
    ordered = adjacency.astype(np.int8)[order][:, order]
    ends = levels.sum(1).cumsum().tolist()
    starts = [0, *ends[:-1]]
    last = len(ends) - 1
    # per level, (pivot, row) with row[pivot] = 1 and zeros at earlier pivots
    echelon: list[list[tuple[int, np.ndarray]]] = [[] for _ in ends]
    frontier = [(0, np.ones(1, dtype=np.int64))]
    echelon[0].append((0, frontier[0][1]))
    # the frontier keeps every basis vector, and the loop reaches each once
    for i, vector in frontier:
        if len(frontier) == n:
            break
        low, high = max(i - 1, 0), min(i + 1, last)
        top = starts[low]
        image = ordered[top:ends[high], starts[i]:ends[i]] @ vector % PRIME
        for j in range(low, high + 1):
            basis = echelon[j]
            if len(basis) == ends[j] - starts[j]:
                continue
            part = image[starts[j] - top:ends[j] - top]
            for pivot, row in basis:
                if part[pivot]:
                    part = (part - part[pivot] * row) % PRIME
            nonzero = part.nonzero()[0]
            if len(nonzero):
                pivot = int(nonzero[0])
                part = part * pow(int(part[pivot]), -1, PRIME) % PRIME
                basis.append((pivot, part))
                frontier.append((j, part))
    return len(frontier)


def _equitable(adjacency: np.ndarray, levels: np.ndarray, dist: np.ndarray) -> bool:
    """Whether the level partition is equitable: every vertex has as many
    neighbours on each level as its level's first vertex. levels holds the
    level indicators as 0/1 floats, a row per level, and dist each vertex's
    level; the neighbour counts are small integers, which the float product
    holds exactly.

    Then A maps the span of the level indicators into itself, and so does
    each level mask: the span is a T-invariant subspace holding e_x, and
    dim T e_x <= ecc + 1, with equality, since E*_i A^i e_x is a positive
    multiple of level i's indicator.
    """
    counts = adjacency @ levels.T
    return bool((counts == counts[levels.argmax(1)[dist]]).all())


def _check_size(ops: LocalOperators, what: str, nbytes: int) -> None:
    if nbytes > MAX_DENSE_BYTES:
        raise DecompositionError(
            f"{describe(ops)}: {what} needs {nbytes} bytes, above the limit "
            f"of {MAX_DENSE_BYTES}")


def decompose(ops: LocalOperators, seed: int = 42,
              tol: float = 1e-9) -> DecompositionReport:
    """Split the vertex space into verified irreducible invariant
    subspaces and summarize endpoints, level dimensions, thinness and
    isomorphism classes.
    """
    n = ops.graph.n
    _check_size(ops, f"a dense {n} x {n} array", 8 * n * n)
    residual_bound = 1e3 * tol
    adjacency = adjacency_matrix(ops.graph)
    dist = np.array(ops.metric.dist)
    # the level projectors' diagonals, a row per level, as 0/1 floats, for
    # the certificate's product, the stack's diagonal blocks and the
    # residuals' products, which take them faster than booleans
    levels = (dist == np.arange(ops.ecc + 1)[:, None]).astype(float)
    # an irreducible standard module is T e_x; it needs no Kronecker solve
    # and no split. An equitable level partition bounds dim T e_x by
    # ecc + 1 (_equitable), so V is reducible when n is larger, and the
    # closure, which can only fall short of dim T e_x, would say so too
    if n > ops.ecc + 1 and _equitable(adjacency, levels, dist):
        irreducible = False
    else:
        irreducible = _primary_dimension(adjacency, levels) == n
    comm, rank_flag = None, False
    if not irreducible:
        _check_size(ops, "the Kronecker commutant stack", 8 * (ops.ecc + 2) * n ** 4)
        # the one solve: no attempt and no piece solves again
        comm, rank_flag = commutant_basis([adjacency, *levels], tol)
        if not len(comm):
            # the identity always commutes; a cutoff below rounding noise
            # rejects even it, and no random draw can bring it back
            reason = f"empty commutant of a dim-{n} subspace at tol {tol:g}"
            log.info("%s: %s", describe(ops), reason)
            raise DecompositionError(f"{describe(ops)}: {reason}")
        # the closure can only under-count. An irreducible V is T e_x, and
        # phi in End_T(V) commutes with E*_0, so phi e_x = c e_x and phi =
        # c I on T e_x = V; a reducible V has the orthogonal projector onto
        # a submodule (T is closed under transpose), so dim End_T(V) >= 2
        irreducible = len(comm) == 1
    # the Frobenius norm of a 0/1 generator is the root of its number of ones
    scales = [max(1.0, math.sqrt(ones)) for ones in
              [2 * ops.graph.edge_count, *map(len, ops.metric.spheres)]]

    residuals: list[float] = []
    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt])
        try:
            # an irreducible V is one module and needs no iso test
            bases = [np.eye(n)] if irreducible else _split(comm, rng, tol)
            modules, notes = _verify_and_summarize(bases, comm, adjacency, levels,
                                                   scales, dist, residual_bound)
            endpoint0 = [i for i, m in enumerate(modules) if m.endpoint == 0]
            if len(endpoint0) != 1:
                raise _Rejected(f"{len(endpoint0)} modules of endpoint 0, not one",
                                float("nan"))
        except _Rejected as exc:
            log.info("%s attempt %d: %s", describe(ops), attempt, exc)
            if exc.residual is not None:
                residuals.append(exc.residual)
            continue
        e1 = [m for m in modules if m.endpoint == 1]
        return DecompositionReport(
            modules=tuple(modules),
            trivial_index=endpoint0[0],
            trivial_thin=modules[endpoint0[0]].thin,
            endpoint1_count=len(e1),
            endpoint1_iso_classes=len({m.iso_class for m in e1}),
            endpoint1_all_thin=all(m.thin for m in e1),
            # the bases are np.eye(n) or an n x n matrix's eigengroups
            total_dim=n,
            seed=seed,
            tol=tol,
            rank_flag=rank_flag,
            notes=tuple(notes),
        )

    raise DecompositionError(
        f"{describe(ops)}: no verified decomposition after {MAX_ATTEMPTS} "
        f"attempts", residuals)


def _hom_dimension(image: np.ndarray, basis: np.ndarray) -> Optional[int]:
    """dim Hom_T(U, W) for invariant subspaces U and W with orthonormal row
    bases B_U and B_W, given image = M_k B_U^T over an orthonormal basis
    M_k of the whole space's commutant End_T(V), and basis = B_W; None when
    the trace below is more than 0.25 from an integer.

    T is closed under transpose, so the projectors P_U and P_W lie in
    End_T(V), and M -> P_W M P_U is an orthogonal projection of End_T(V)
    onto the intertwiners from U to W, extended by zero off U. Its trace,
    sum_k ||B_W M_k B_U^T||_F^2, is their dimension. For irreducible
    modules a nonzero dimension means they are isomorphic.
    """
    trace = float(np.square(np.matmul(basis, image)).sum())
    dim = round(trace)
    return None if abs(trace - dim) > 0.25 else dim


def _residual_products(projs: np.ndarray, adjacency: np.ndarray,
                       levels: np.ndarray) -> np.ndarray:
    """The products G P of the generators with each module's projector P,
    stacked, a row of 2 + ecc per module: A P, then each E*_i P as P with
    the rows off level i zeroed."""
    products = np.empty((len(projs), len(levels) + 1, *projs.shape[1:]))
    np.matmul(adjacency, projs, out=products[:, 0])
    np.multiply(projs[:, None], levels[:, :, None], out=products[:, 1:])
    return products


def _residuals(bases: Sequence[np.ndarray], adjacency: np.ndarray,
               levels: np.ndarray, scales: Sequence[float]) -> list[float]:
    """The invariance residual of each subspace U with orthonormal row
    basis B, projector P = B^T B: the largest ||G P - P G P||_F / scale
    over the generators G, with their scales in order.

    Every subspace's projector, products and defects are one stack each. A
    stacked matmul makes the gemm call of each matrix's own product, so
    every float is the one a subspace taken alone would give."""
    n = adjacency.shape[0]
    projs = np.empty((len(bases), n, n))
    for proj, basis in zip(projs, bases):
        np.matmul(basis.T, basis, out=proj)
    products = _residual_products(projs, adjacency, levels)
    defects = np.matmul(projs[:, None], products)
    np.subtract(products, defects, out=defects)
    # each G P - P G P flat, as a row; its squared Frobenius norm as
    # np.linalg.norm forms it, BLAS's ddot of the row with itself, is also
    # numpy's matmul of the row by its transpose
    defects = defects.reshape(*products.shape[:2], 1, -1)
    squares = np.matmul(defects, defects.transpose(0, 1, 3, 2)).reshape(len(bases), -1)
    return [max(0.0, *[math.sqrt(square) / scale for square, scale in zip(row, scales)])
            for row in squares.tolist()]


def _verify_and_summarize(bases, comm, adjacency, levels, scales, dist,
                          residual_bound):
    """Summaries of an attempt's modules, ordered by shape, and the notes
    of its modules of non-real type; the first check that fails, piece by
    piece in the split's order, raises _Rejected."""
    n = adjacency.shape[0]
    levels = np.asarray(levels)
    notes: list[str] = []
    modules_raw = []
    # the whole space was decided irreducible before any split, and is
    # invariant: with its identity basis every product of its residual is
    # exact, so it would give 0.0 as well. Every piece of a split is smaller
    pieces = [basis for basis in bases if len(basis) < n]
    piece_residuals = iter(_residuals(pieces, adjacency, levels, scales) if pieces else ())
    for basis, dims in zip(bases, _level_dims(bases, dist)):
        k = basis.shape[0]
        residual = 0.0
        image = None  # comm @ B^T, read again for the iso classes
        if k < n:
            if k > 1:
                image = np.matmul(comm, basis.T)
                if not _irreducible(basis, image, notes):
                    raise _Rejected(f"a dim-{k} eigenspace is not irreducible")
            residual = next(piece_residuals)
        if residual > residual_bound:
            raise _Rejected(f"a dim-{k} module's invariance residual "
                            f"{residual:.3g} is above {residual_bound:g}", residual)
        nz = [i for i, dim in enumerate(dims or ()) if dim > 0]
        if not nz or nz != list(range(nz[0], nz[-1] + 1)) or sum(dims) != k:
            raise _Rejected(f"a dim-{k} module is not graded on contiguous levels",
                            residual)
        modules_raw.append((basis, dims, nz[0], len(nz) - 1, residual, image))

    # modules of one shape are adjacent in this order (sorted is stable),
    # and only they can be isomorphic
    shapes = [(endpoint, len(basis), dims)
              for basis, dims, endpoint, _, _, _ in modules_raw]
    order = sorted(range(len(modules_raw)), key=shapes.__getitem__)
    iso_ids = [-1] * len(modules_raw)
    next_id = 0
    for _, group in itertools.groupby(order, key=shapes.__getitem__):
        group = list(group)
        reps: list[tuple[int, np.ndarray]] = []  # (iso id, comm @ B_rep^T)
        for pos in group:
            basis, _, _, _, residual, image = modules_raw[pos]
            for rep_id, rep_image in reps:
                hom = _hom_dimension(rep_image, basis)
                if hom is None:
                    raise _Rejected(f"a hom trace between dim-{len(basis)} "
                                    "modules is not an integer", residual)
                if hom:
                    iso_ids[pos] = rep_id
                    break
            else:
                iso_ids[pos] = next_id
                next_id += 1
                # only a later module of the group reads the image; an
                # irreducible V, one module, has no commutant, and a
                # one-dimensional module had no irreducibility test
                if pos != group[-1]:
                    if image is None:
                        image = np.matmul(comm, basis.T)
                    reps.append((iso_ids[pos], image))

    modules = []
    for pos in order:
        basis, dims, endpoint, diameter, residual, _ = modules_raw[pos]
        modules.append(ModuleSummary(
            subspace=Subspace(basis),
            endpoint=endpoint,
            diameter=diameter,
            level_dims=dims,
            thin=all(dim <= 1 for dim in dims),
            iso_class=iso_ids[pos],
            residual=residual,
        ))
    return modules, notes


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
