"""Numeric test oracles that the package itself does not need.

* generator_matrices: the adjacency matrix and the level projectors as
  dense float arrays, from matrix_oracle's integer build; decompose never
  forms the projectors;
* trivial_module_basis: the closure of the base indicator under the
  generators, ungraded and in floating point; the float oracle of
  decompose's exact closure modulo a prime (_primary_dimension);
* no_endpoint1_modules: the endpoint-one existence test read off that
  closure;
* graded_module and graded_hom_dimension: the graded hom test, one SVD
  per level for a basis that follows the levels and one solve with
  sum_i d_i^2 unknowns for level dimensions d_i; decompose reads the same
  dimension off the whole space's commutant as a trace (_hom_dimension);
* intertwiner_stack and kron_hom_dimension: the Kronecker hom test, with
  n_a n_b unknowns and every generator, which the graded test replaced
  before the trace did; intertwiner_stack(gens, gens) is also the np.kron
  build of the stack commutant_basis fills column-major, entry for entry;
* qr_r and qr_nullspace_rows: R of np.linalg.qr, which copies the stack
  before LAPACK factors it, and the nullspace read off the SVD of that R;
  commutant_basis factors its stack in place and must get the same bytes;
* level_dims_by_svd: level dimensions counted by one SVD per level, where
  decompose reads them off the traces of the level projectors;
* subspace_distance between two row-basis subspaces.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from matrix_oracle import build_matrix_operators
from tkit.decompose import Subspace, _cutoff, _nullspace_rows
from tkit.exact import LocalOperators


def _rows(w: Subspace | np.ndarray) -> np.ndarray:
    return w.basis if isinstance(w, Subspace) else np.asarray(w, dtype=float)


def _orthonormal_rows(stack: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis (rows) of the row space, by SVD."""
    u, s, vt = np.linalg.svd(stack, full_matrices=False)
    if s.size == 0:
        return vt[:0]
    cutoff = tol * max(1.0, float(s[0]))
    return vt[s > cutoff]


def generator_matrices(ops: LocalOperators) -> list[np.ndarray]:
    """The adjacency matrix, then the level projectors E*_0..E*_ecc, as
    0/1 float arrays."""
    mops = build_matrix_operators(ops.graph, ops.base)
    return [np.array(m.entries, dtype=float)
            for m in (mops.adjacency, *mops.duals)]


def subspace_distance(a: Subspace | np.ndarray, b: Subspace | np.ndarray) -> float:
    """Spectral-norm distance between orthogonal projectors."""
    ba, bb = _rows(a), _rows(b)
    pa = ba.T @ ba
    pb = bb.T @ bb
    return float(np.linalg.norm(pa - pb, 2))


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


def no_endpoint1_modules(ops: LocalOperators, trivial_basis: np.ndarray,
                         tol: float = 1e-9) -> bool:
    """True when no irreducible module with endpoint one exists, decided by
    comparing the neighbor-level dimension of the trivial module with the
    base degree.

    trivial_basis holds orthonormal basis vectors as rows, indexed by
    vertex. With a thin trivial module this reduces to the base vertex
    having degree one.
    """
    degree = ops.graph.degree(ops.base)
    if degree == 0:
        return True
    sphere = ops.metric.sphere(1)
    block = np.asarray(trivial_basis, dtype=float)[:, list(sphere)]
    sv = np.linalg.svd(block, compute_uv=False)
    cutoff = tol * max(1.0, float(sv[0]) if sv.size else 1.0)
    rank = int((sv > cutoff).sum())
    return rank == degree


def intertwiner_stack(gens_a: Sequence[np.ndarray],
                      gens_b: Sequence[np.ndarray]) -> np.ndarray:
    """Stacked matrix of M -> M G_a - G_b M over the generator pairs, acting
    on M flattened row-major; its nullspace is the intertwiners from a to b.
    A 1-D generator stands for the diagonal matrix it lists, expanded with
    np.diag. Filled block by block into one preallocated array."""
    gens_a = [np.diag(ga) if ga.ndim == 1 else ga for ga in gens_a]
    gens_b = [np.diag(gb) if gb.ndim == 1 else gb for gb in gens_b]
    ka, kb = gens_a[0].shape[0], gens_b[0].shape[0]
    size = ka * kb
    stack = np.empty((len(gens_a) * size, size))
    for j, (ga, gb) in enumerate(zip(gens_a, gens_b)):
        block = stack[j * size:(j + 1) * size]
        block[:] = np.kron(np.eye(kb), ga.T)
        block -= np.kron(gb, np.eye(ka))
    return stack


def kron_hom_dimension(w: Subspace | np.ndarray, w_other: Subspace | np.ndarray,
                       generators: Sequence[np.ndarray], tol: float = 1e-9) -> int:
    """Dimension of the space of intertwining maps from w to w_other.

    For irreducible inputs a nonzero value means the modules are
    isomorphic and zero means they are not.
    """
    ba, bb = _rows(w), _rows(w_other)
    stack = intertwiner_stack([ba @ G @ ba.T for G in generators],
                              [bb @ G @ bb.T for G in generators])
    null, _ = qr_nullspace_rows(stack, tol)
    return null.shape[0]


def qr_r(stack: np.ndarray) -> np.ndarray:
    """R of np.linalg.qr's raw QR of a tall stack: the upper triangle of the
    leading rows of the factored array, which "raw" returns transposed."""
    return np.triu(np.linalg.qr(stack, mode="raw")[0].T[:stack.shape[1]])


def qr_nullspace_rows(stack: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, bool]:
    """Orthonormal nullspace basis (rows) of a tall stack and the rank flag,
    by the SVD of qr_r(stack): the route of commutant_basis, with a copying
    QR in place of the in-place one."""
    return _nullspace_rows(qr_r(stack), tol)


def graded_module(basis: np.ndarray, ops: LocalOperators, adjacency: np.ndarray,
                  dims: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency matrix of an invariant subspace with level dimensions dims
    in an orthonormal basis whose vectors each lie on one level, and the
    level of each of those vectors."""
    graded = np.zeros(basis.shape)
    start = 0
    for i, dim in enumerate(dims):
        if dim:
            idx = list(ops.metric.sphere(i))
            # the level projector restricted to an invariant subspace is
            # idempotent, so its dim nonzero singular values sit at 1
            _, _, vt = np.linalg.svd(basis[:, idx], full_matrices=False)
            graded[start:start + dim, idx] = vt[:dim]
            start += dim
    return (graded @ adjacency @ graded.T,
            np.repeat(np.arange(len(dims)), dims))


def graded_hom_dimension(adj_a: np.ndarray, level_a: Sequence[int],
                         adj_b: np.ndarray, level_b: Sequence[int],
                         tol: float = 1e-9) -> int:
    """Dimension of the space of intertwiners from module a to module b.

    Each module is given by its adjacency matrix in an orthonormal basis
    whose vectors each lie on one distance level, and by the level of each
    basis vector (graded_module). An intertwiner M commutes with the level
    projectors, so it is block-diagonal by level: the unknowns are its
    entries M[c, d] with c and d on one level, and (M A_a - A_b M)[p, q]
    can be nonzero only where the levels of p and q are at most one apart.
    For irreducible modules a nonzero dimension means they are isomorphic.
    """
    level_a, level_b = np.asarray(level_a), np.asarray(level_b)
    gap = level_b[:, None] - level_a[None, :]
    c, d = np.nonzero(gap == 0)
    p, q = np.nonzero(np.abs(gap) <= 1)
    p, q = p[:, None], q[:, None]
    # coefficient of M[c, d] in (M A_a)[p, q] is [p = c] A_a[d, q], in
    # (A_b M)[p, q] it is A_b[p, c] [d = q]
    system = (p == c) * adj_a[d, q] - adj_b[p, c] * (d == q)
    s = np.linalg.svd(system, compute_uv=False)
    cutoff, _ = _cutoff(s, tol)
    return c.size - int((s > cutoff).sum())


def level_dims_by_svd(basis: np.ndarray, ops: LocalOperators) -> tuple[int, ...]:
    """Level dimensions of an invariant subspace (orthonormal rows): per
    level, the singular values of the basis restricted to it above 0.5. The
    restricted level projector is idempotent, so they sit at 0 or 1."""
    return tuple(int((np.linalg.svd(basis[:, list(ops.metric.sphere(i))],
                                    compute_uv=False) > 0.5).sum())
                 for i in range(ops.ecc + 1))
