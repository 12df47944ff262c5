import collections
import gzip
import itertools
import json
import logging
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.linalg import lapack_lite

import golden
from block_closure import closure_block_dims
from corpus_oracle import connected_graphs, is_connected
from matrix_oracle import build_matrix_operators
from numeric_oracle import (generator_matrices, graded_hom_dimension,
                            graded_module, intertwiner_stack,
                            kron_hom_dimension, level_dims_by_svd, qr_r,
                            qr_nullspace_rows, subspace_distance,
                            trivial_module_basis)
from pdr_oracle import equitable_by_lists
from rooted import rooted_classes
import tkit.decompose as decompose_module
from tkit.cli import load_graph
from tkit.constructions import (apex_extension, complete_graph, cycle_graph,
                                empty_graph, example_graph, path_graph,
                                petersen_graph, rook_graph_3x3, star_graph)
from tkit.decompose import (FAIL, NOT_APPLICABLE, PASS, VACUOUS,
                            DecompositionError, _cutoff, _equitable,
                            _hom_dimension, _irreducible, _level_dims,
                            _primary_dimension, _Rejected, _split,
                            _verify_and_summarize,
                            adjacency_matrix, algebraic_verdict,
                            commutant_basis, decompose, dual_block_dims)
from tkit.exact import build_operators, describe, raising_powers
from tkit.graphs import make_graph, parse_edge_list, parse_graph6, rooted_key, to_graph6
from tkit.regularity import fit_pdr
from tkit.report import AGREE_PASS, analyze, report_to_json


class TestTrivialModuleBasis:
    def test_example_levels(self, example_ops):
        sub = trivial_module_basis(example_ops)
        assert sub.dim == 3
        # thin case: agrees with the span of the raised base indicators
        powers = raising_powers(example_ops, example_ops.base, example_ops.ecc)
        raised = []
        for p in powers:
            col = np.array(p, float)
            raised.append(col / np.linalg.norm(col))
        q, _ = np.linalg.qr(np.vstack(raised).T)
        assert subspace_distance(sub, q.T) < 1e-9

    def test_k2_whole_space(self):
        ops = build_operators(parse_edge_list("a b"), 0)
        assert trivial_module_basis(ops).dim == 2

    def test_petersen(self):
        ops = build_operators(petersen_graph(), 0)
        assert trivial_module_basis(ops).dim == 3


def test_adjacency_matrix_matches_dense_build():
    for n in (1, 2, 3, 4):
        for g in connected_graphs(n):
            want = build_matrix_operators(g, 0).adjacency.entries
            assert np.array_equal(adjacency_matrix(g), np.array(want, dtype=float))


def test_path_end_forms_no_level_projectors():
    # path:300 from an end has one vertex per level, and its standard module
    # is irreducible; the 301 dense level projectors alone would take 217 MB
    ops = build_operators(path_graph(300), 0)
    tracemalloc.start()
    try:
        rep = decompose(ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [m.level_dims for m in rep.modules] == [(1,) * 300]
    assert peak < 32 << 20


class TestCommutant:
    def test_k2_scalars_only(self):
        ops = build_operators(parse_edge_list("a b"), 0)
        basis, flag = commutant_basis(generator_matrices(ops))
        assert len(basis) == 1 and not flag

    def test_example_three_classes(self, example_ops):
        basis, _ = commutant_basis(generator_matrices(example_ops))
        assert len(basis) == 3

    def test_dimension_counts_squared_multiplicities(self):
        # sum of squared multiplicities over iso classes
        g, x = example_graph()
        ax = apex_extension(g, x, empty_graph(3))
        ops = build_operators(ax.graph, ax.apex)
        basis, _ = commutant_basis(generator_matrices(ops))
        rep = decompose(ops)
        mult = {}
        for m in rep.modules:
            mult[m.iso_class] = mult.get(m.iso_class, 0) + 1
        assert len(basis) == sum(v * v for v in mult.values())

    def test_elements_commute(self, example_ops):
        gens = generator_matrices(example_ops)
        basis, _ = commutant_basis(gens)
        for M in basis:
            for G in gens:
                assert np.linalg.norm(M @ G - G @ M) < 1e-8


def _connected_gnp(n, p, seed):
    """G(n, p) redrawn until connected, edges drawn in (u, v) order."""
    rng = random.Random(seed)
    while True:
        g = make_graph(n, [e for e in itertools.combinations(range(n), 2)
                           if rng.random() < p])
        if is_connected(g):
            return g


def _ladder():
    """The graphs and bases of the benchmark's check --decompose ladder: the
    random graph has the ladder's shape (G(24, 0.15) drawn from seed 2023)."""
    cube = make_graph(32, [(u, u | 1 << b) for u in range(32) for b in range(5)
                           if not u >> b & 1])
    apex = apex_extension(petersen_graph(), 0, complete_graph(2))
    return [(load_graph(name)[0], 0) for name in ("cycle:20", "path:20", "star:20")] + [
        (cube, 0), (apex.graph, apex.apex), (_connected_gnp(24, 0.15, 2023), 0)]


def _closure_dimension(ops):
    """_primary_dimension at the instance's base."""
    dist = np.asarray(ops.metric.dist)
    return _primary_dimension(adjacency_matrix(ops.graph),
                              [dist == i for i in range(ops.ecc + 1)])


def _scalars_only(ops):
    # decompose's irreducibility decision when the closure does not
    # under-count
    return _closure_dimension(ops) == ops.graph.n


# the np.linalg routines that solve, factor or decompose
_SOLVERS = ("svd", "qr", "eigh", "eigvalsh", "eig", "eigvals", "solve",
            "lstsq", "pinv", "inv", "matrix_rank")


def _no_solver(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"np.linalg.{name} called")
    return fail


def _during_verification(monkeypatch, **replacements):
    """Replace np.linalg functions by name while _verify_and_summarize runs,
    and only then."""
    verify = decompose_module._verify_and_summarize

    def patched(*args):
        with monkeypatch.context() as inner:
            for name, replacement in replacements.items():
                inner.setattr(np.linalg, name, replacement)
            return verify(*args)

    monkeypatch.setattr(decompose_module, "_verify_and_summarize", patched)


class TestScalarCommutant:
    def test_matches_kronecker_solve_small_graphs(self):
        # every base of the n <= 5 corpus and of every 8th n = 6 graph: the
        # commutant has more than the scalars exactly when the closure is
        # short of n, so no closure here under-counts. Both sides are
        # invariants of the rooted graph, checked once per rooted class
        graphs = itertools.chain(*map(connected_graphs, range(1, 6)),
                                 itertools.islice(connected_graphs(6), 0, None, 8))
        scalars = {}
        for g in graphs:
            for x in range(g.n):
                ops = build_operators(g, x)
                key = rooted_key(g, ops.metric)
                if key not in scalars:
                    scalars[key] = len(commutant_basis(generator_matrices(ops))[0]) == 1
                    assert _scalars_only(ops) == scalars[key], (to_graph6(g), x)
        # 73 classes with n <= 5 and 387 of the 407 with n = 6
        assert collections.Counter(scalars.values()) == {False: 334, True: 126}

    def test_closure_matches_float_closure_small_graphs(self):
        # every instance with n <= 5: the exact closure of e_x and the
        # float closure of the oracle have the same dimension
        dims = set()
        for n in range(1, 6):
            for g in connected_graphs(n):
                for x in range(n):
                    ops = build_operators(g, x)
                    dim = _closure_dimension(ops)
                    assert dim == trivial_module_basis(ops).dim, (to_graph6(g), x)
                    dims.add((dim == n, dim == ops.ecc + 1))
        assert dims == {(True, True), (True, False), (False, True), (False, False)}

    def test_matches_kronecker_solve_seeded_graphs(self):
        rng = random.Random(20261018)
        verdicts = []
        while len(verdicts) < 30:
            n = rng.randint(6, 14)
            g = _connected_gnp(n, rng.uniform(0.2, 0.7), rng.random())
            ops = build_operators(g, rng.randrange(n))
            want = len(commutant_basis(generator_matrices(ops))[0]) == 1
            assert _scalars_only(ops) == want, (to_graph6(g), ops.base)
            verdicts.append(want)
        assert len(set(verdicts)) == 2

    @pytest.mark.parametrize("name", ["path:20", "gnp-24"])
    def test_irreducible_standard_module_skips_kronecker_solve(self, monkeypatch, name):
        # at base 0: an end vertex of the path, the ladder's base of the G(n, p)
        g = (load_graph(name)[0] if name != "gnp-24"
             else _connected_gnp(24, 0.15, 2023))
        calls = []

        def counting(generators, tol=1e-9):
            calls.append(generators[0].shape[0])
            return commutant_basis(generators, tol)

        monkeypatch.setattr(decompose_module, "commutant_basis", counting)
        rep = decompose(build_operators(g, 0))
        assert [m.dim for m in rep.modules] == [g.n]
        assert np.array_equal(rep.modules[0].subspace.basis, np.eye(g.n))
        assert calls == []

    @pytest.mark.parametrize("name", ["path:20", "gnp-24"])
    def test_closure_undercount_confirmed_by_one_solve(self, monkeypatch, name):
        # a closure one short of n, as an under-count modulo the prime would
        # give: the one commutant solve finds only the scalars, so V is
        # still one module with the identity basis
        g = (load_graph(name)[0] if name != "gnp-24"
             else _connected_gnp(24, 0.15, 2023))
        monkeypatch.setattr(decompose_module,
                            "_primary_dimension",
                            lambda adjacency, levels: adjacency.shape[0] - 1)
        calls = _commutant_calls(monkeypatch)
        rep = decompose(build_operators(g, 0))
        assert [m.dim for m in rep.modules] == [g.n]
        assert np.array_equal(rep.modules[0].subspace.basis, np.eye(g.n))
        assert [gens[0].shape[0] for gens, _ in calls] == [g.n]

    def test_star_centre_assigns_classes_without_a_solve(self, monkeypatch):
        # the closure of e_x at the centre is 2-dimensional, so V is split.
        # The whole space's commutant is the only solve: the 2-dimensional
        # trivial piece is accepted by its trace, and the 19 one-dimensional
        # modules are compared by traces on the same commutant
        calls = _commutant_calls(monkeypatch)
        _during_verification(monkeypatch, **{name: _no_solver(name)
                                             for name in _SOLVERS})
        ops = build_operators(star_graph(20), 0)
        rep = decompose(ops)
        assert _closure_dimension(ops) == 2
        assert [gens[0].shape[0] for gens, _ in calls] == [ops.graph.n]
        assert sorted(m.dim for m in rep.modules) == [1] * 19 + [2]
        assert rep.endpoint1_count == 19 and rep.endpoint1_iso_classes == 1

    @pytest.mark.parametrize("name,products", [("path:20", 0), ("cycle:6", 2 * 5)])
    def test_whole_space_module_forms_no_residual_products(self, monkeypatch,
                                                           name, products):
        # the generator products of a module's residual, one n x n product
        # per generator: none for the identity basis of an irreducible V,
        # 2 + ecc for each of the two modules of cycle:6 at a vertex, formed
        # in one stack
        real_products = decompose_module._residual_products
        formed = []

        def counting(projs, adjacency, levels):
            stacked = real_products(projs, adjacency, levels)
            assert stacked.shape == (len(projs), len(levels) + 1, *adjacency.shape)
            assert projs.shape[1:] == adjacency.shape
            formed.extend(stacked.reshape(-1, *adjacency.shape))
            return stacked

        monkeypatch.setattr(decompose_module, "_residual_products", counting)
        rep = decompose(build_operators(load_graph(name)[0], 0))
        assert len(formed) == products
        if not products:
            assert [(m.dim, m.residual) for m in rep.modules] == [(20, 0.0)]


def _levels_and_certificate(ops):
    """The 0/1 float level rows decompose builds, and _equitable on them."""
    dist = np.asarray(ops.metric.dist)
    levels = (dist == np.arange(ops.ecc + 1)[:, None]).astype(float)
    return levels, _equitable(adjacency_matrix(ops.graph), levels, dist)


def _closure_calls(monkeypatch):
    """Record each _primary_dimension call's result."""
    real = decompose_module._primary_dimension
    calls = []

    def spy(adjacency, levels):
        calls.append(real(adjacency, levels))
        return calls[-1]

    monkeypatch.setattr(decompose_module, "_primary_dimension", spy)
    return calls


class TestEquitableCertificate:
    def test_bounds_the_closure_n5(self):
        # every base of the n <= 5 corpus: an equitable level partition
        # makes T e_x the span of the level indicators, so the closure is
        # ecc + 1, short of n unless every level is one vertex
        seen = collections.Counter()
        for n in range(1, 6):
            for g in connected_graphs(n):
                for x in range(n):
                    ops = build_operators(g, x)
                    levels, equitable = _levels_and_certificate(ops)
                    assert equitable == equitable_by_lists(ops), (to_graph6(g), x)
                    if equitable:
                        closure = _primary_dimension(adjacency_matrix(g), levels)
                        assert closure == ops.ecc + 1, (to_graph6(g), x)
                    seen[equitable, n > ops.ecc + 1] += 1
        assert seen == {(False, True): 2752, (True, False): 153, (True, True): 902}

    def test_closure_runs_where_not_equitable(self, monkeypatch):
        # E]Q? at vertex 2 (thin) and C{ at vertex 0 (not thin) are not
        # equitable; cycle:6 at a vertex is
        calls = _closure_calls(monkeypatch)
        for g, x, closure in [(parse_graph6("E]Q?"), 2, [3]), (parse_graph6("C{"), 0, [3]),
                              (cycle_graph(6), 0, [])]:
            ops = build_operators(g, x)
            assert _levels_and_certificate(ops)[1] == (not closure)
            calls.clear()
            decompose(ops)
            assert calls == closure, (to_graph6(g), x)

    def test_path_end_is_one_module_without_a_solve(self, monkeypatch):
        # path:20 at vertex 0 is equitable with one vertex a level, n =
        # ecc + 1: the certificate does not apply, and the closure finds V
        # irreducible
        closures = _closure_calls(monkeypatch)
        solves = _commutant_calls(monkeypatch)
        ops = build_operators(path_graph(20), 0)
        assert _levels_and_certificate(ops)[1] and ops.ecc + 1 == 20
        rep = decompose(ops)
        assert [m.dim for m in rep.modules] == [20]
        assert closures == [20] and solves == []


def _plain_nullspace(stack, tol=1e-9):
    _, s, vt = np.linalg.svd(stack, full_matrices=False)
    cutoff, flag = _cutoff(s, tol)
    return vt[s <= cutoff], flag


def _named_instances():
    for source in list(golden.BUILTINS) + golden.apex_graph6s():
        g = load_graph(source)[0] if source in golden.BUILTINS else parse_graph6(source)
        for x in range(g.n):
            yield g, x


def _decompose_generators(g, x):
    """The generators decompose hands commutant_basis: the adjacency matrix,
    then the level indicators as 1-D diagonals."""
    dist = np.asarray(build_operators(g, x).metric.dist)
    return [adjacency_matrix(g)] + [(dist == i).astype(float)
                                    for i in range(dist.max() + 1)]


def _seeded_generators():
    """Generator lists of sizes 1..6, with 1, 2 or 5 generators each, holding
    exact zeros of both signs, negative and non-symmetric entries."""
    rng = np.random.default_rng(20261018)
    return [[rng.integers(-2, 3, (k, k)) * rng.standard_normal((k, k))
             for _ in range(count)]
            for k in range(1, 7) for count in (1, 2, 5)]


def _r_at_the_svd(gens):
    """The R that commutant_basis(gens) hands the SVD, and the R of
    np.linalg.qr on the np.kron build of its stack."""
    svd, seen = np.linalg.svd, []
    np.linalg.svd = lambda a, **kwargs: seen.append(a) or svd(a, **kwargs)
    try:
        commutant_basis(gens)
    finally:
        np.linalg.svd = svd
    return seen[-1], qr_r(intertwiner_stack(gens, gens))


def _apex_k2_generators():
    apex = apex_extension(petersen_graph(), 0, complete_graph(2))
    return _decompose_generators(apex.graph, apex.apex)


class TestNullspaceQr:
    @pytest.mark.parametrize("instances", [_ladder, _named_instances])
    def test_same_as_plain_svd(self, instances):
        # the QR route never forms the tall left factor of the stack's SVD
        for g, x in instances():
            gens = generator_matrices(build_operators(g, x))
            null, flag = commutant_basis(gens)
            want, want_flag = _plain_nullspace(intertwiner_stack(gens, gens))
            assert len(null) == len(want) and flag == want_flag, (to_graph6(g), x)
            assert subspace_distance(null.reshape(len(null), -1), want) < 1e-9, \
                (to_graph6(g), x)

    def test_svd_reads_the_r_of_the_qr(self):
        # R, factored in place from the column-major stack, reaches the SVD
        # column-major and with the bytes of np.linalg.qr's R: on the seeded
        # generators, every rooted class with n <= 5, and cycle:20 and
        # star:20 as decompose builds them. Below LAPACK's crossover (128
        # columns, n <= 11) the QR is unblocked whatever the workspace;
        # cycle:20 and star:20 take the blocked path
        generator_lists = itertools.chain(
            _seeded_generators(),
            (generator_matrices(build_operators(g, x))
             for n in range(1, 6) for g, x in rooted_classes(n)),
            (_decompose_generators(load_graph(name)[0], 0)
             for name in ("cycle:20", "star:20")))
        for gens in generator_lists:
            r, want = _r_at_the_svd(gens)
            assert r.flags.f_contiguous
            assert r.tobytes() == want.tobytes(), [G.shape for G in gens]

    def test_apex_k2_r_at_one_blas_thread(self):
        # one BLAS thread changes apex-K2's module order; R still has the
        # bytes of np.linalg.qr's, which runs in the same process
        tests = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [tests, os.path.join(os.path.dirname(tests), "src")]))
        script = ("from test_decompose import _apex_k2_generators, _r_at_the_svd\n"
                  "r, want = _r_at_the_svd(_apex_k2_generators())\n"
                  "print(r.shape, r.flags.f_contiguous, r.tobytes() == want.tobytes())\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tests,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "(441, 441) True True\n"


class TestDecomposeExample:
    def test_module_structure(self, example_ops):
        rep = decompose(example_ops)
        assert len(rep.modules) == 3
        assert sorted(m.dim for m in rep.modules) == [1, 2, 3]
        assert rep.total_dim == 6
        assert rep.trivial_thin
        assert rep.endpoint1_count == 1
        assert algebraic_verdict(rep).status == PASS

    def test_endpoint1_span(self, example, example_ops):
        g, _ = example
        rep = decompose(example_ops)
        (mod,) = rep.endpoint1_modules()
        assert mod.thin and mod.diameter == 1
        assert mod.level_dims == (0, 1, 1)
        target = np.zeros((2, 6))
        target[0, g.index_of("3")] = 1 / np.sqrt(2)
        target[0, g.index_of("2")] = -1 / np.sqrt(2)
        target[1, g.index_of("6")] = 1 / np.sqrt(2)
        target[1, g.index_of("4")] = -1 / np.sqrt(2)
        assert subspace_distance(mod.subspace, target) <= 1e-6

    def test_trivial_matches_direct_closure(self, example_ops):
        rep = decompose(example_ops)
        triv = rep.modules[rep.trivial_index]
        assert triv.endpoint == 0
        assert subspace_distance(triv.subspace, trivial_module_basis(example_ops)) < 1e-6

    def test_determinism_same_seed(self, example_ops):
        a = decompose(example_ops, seed=7)
        b = decompose(example_ops, seed=7)
        assert len(a.modules) == len(b.modules)
        for ma, mb in zip(a.modules, b.modules):
            assert ma.level_dims == mb.level_dims
            assert ma.iso_class == mb.iso_class
            assert np.array_equal(ma.subspace.basis, mb.subspace.basis)

    def test_seed_independence_of_structure(self, example_ops):
        shapes = set()
        for seed in (1, 2, 3, 42):
            rep = decompose(example_ops, seed=seed)
            shapes.add(tuple((m.endpoint, m.dim, m.thin) for m in rep.modules))
        assert len(shapes) == 1


class TestKnownGraphVerdicts:
    @pytest.mark.parametrize("maker,base,expected", [
        (cycle_graph(6), 0, PASS),
        (cycle_graph(5), 0, PASS),
        (petersen_graph(), 0, PASS),
        (rook_graph_3x3(), 0, FAIL),
        (path_graph(3), 0, VACUOUS),
    ])
    def test_verdicts(self, maker, base, expected):
        rep = decompose(build_operators(maker, base))
        assert algebraic_verdict(rep).status == expected

    def test_star_center(self):
        rep = decompose(build_operators(star_graph(3), 0))
        assert rep.modules[rep.trivial_index].dim == 2
        assert rep.endpoint1_count == 2
        assert rep.endpoint1_iso_classes == 1
        assert all(m.dim == 1 for m in rep.endpoint1_modules())
        assert rep.total_dim == 4
        assert algebraic_verdict(rep).status == PASS

    def test_cycle6_structure(self):
        rep = decompose(build_operators(cycle_graph(6), 0))
        dims = sorted(m.dim for m in rep.modules)
        assert dims == [2, 4]
        assert rep.endpoint1_count == 1
        assert rep.endpoint1_all_thin

    def test_not_applicable_when_trivial_not_thin(self):
        for g in connected_graphs(5):
            for x in range(g.n):
                ops = build_operators(g, x)
                if g.degree(x) >= 2 and not fit_pdr(g, x).ok:
                    rep = decompose(ops)
                    assert not rep.trivial_thin
                    assert algebraic_verdict(rep).status == NOT_APPLICABLE
                    return
        pytest.fail("no instance with a non-thin trivial module found")


class TestDecomposeInvariants:
    def test_exhaustive_small_sweep(self):
        # completeness, orthogonality, invariance, unique endpoint-0 module,
        # contiguous level supports
        for g in connected_graphs(4):
            for x in range(g.n):
                ops = build_operators(g, x)
                rep = decompose(ops)
                assert rep.total_dim == g.n
                gens = generator_matrices(ops)
                endpoint0 = 0
                for m in rep.modules:
                    if m.endpoint == 0:
                        endpoint0 += 1
                    assert m.residual <= 1e-6
                    nz = [i for i, d in enumerate(m.level_dims) if d]
                    assert nz == list(range(m.endpoint, m.endpoint + m.diameter + 1))
                    assert m.thin == all(d <= 1 for d in m.level_dims)
                for i, ma in enumerate(rep.modules):
                    for mb in rep.modules[i + 1:]:
                        overlap = ma.subspace.basis @ mb.subspace.basis.T
                        assert np.abs(overlap).max() < 1e-6
                assert endpoint0 == 1


class TestHomDimension:
    def test_self_hom_of_irreducibles(self, example_ops):
        rep = decompose(example_ops)
        gens = generator_matrices(example_ops)
        for m in rep.modules:
            assert kron_hom_dimension(m.subspace, m.subspace, gens) == 1

    def test_different_endpoints_not_isomorphic(self, example_ops):
        rep = decompose(example_ops)
        gens = generator_matrices(example_ops)
        triv = rep.modules[rep.trivial_index]
        for m in rep.modules:
            if m.endpoint != 0:
                assert kron_hom_dimension(triv.subspace, m.subspace, gens) == 0

    def test_isomorphic_pair_in_apex_extension(self):
        g, x = example_graph()
        ax = apex_extension(g, x, empty_graph(3))
        ops = build_operators(ax.graph, ax.apex)
        rep = decompose(ops)
        e1 = rep.endpoint1_modules()
        assert len(e1) == 2
        gens = generator_matrices(ops)
        assert kron_hom_dimension(e1[0].subspace, e1[1].subspace, gens) == 1


@pytest.fixture
def split_commutants(monkeypatch):
    """Filled with the whole space's commutant of every split decompose
    runs, as _split reads it."""
    comms = []

    def recording(comm, *args):
        comms.append(comm)
        return _split(comm, *args)

    monkeypatch.setattr(decompose_module,
                        "_split", recording)
    return comms


def _hom_three_ways(ops, comms):
    """Between every pair of decomposed modules with the same level
    dimensions: the trace decompose reads off the commutant of its accepted
    split, the graded oracle and the Kronecker oracle, which must agree."""
    comms.clear()
    rep = decompose(ops)
    n = ops.graph.n
    # an irreducible V is not split, and its commutant is the scalars
    comm = comms[-1] if comms else np.eye(n)[None] / math.sqrt(n)
    gens = generator_matrices(ops)
    graded = [graded_module(m.subspace.basis, ops, gens[0], m.level_dims)
              for m in rep.modules]
    pairs = []
    for i, (ma, graded_a) in enumerate(zip(rep.modules, graded)):
        image = np.matmul(comm, ma.subspace.basis.T)
        for mb, graded_b in zip(rep.modules[i:], graded[i:]):
            if ma.level_dims == mb.level_dims:
                dim = _hom_dimension(image, mb.subspace.basis)
                assert dim == graded_hom_dimension(*graded_a, *graded_b) \
                    == kron_hom_dimension(ma.subspace, mb.subspace, gens), \
                    (to_graph6(ops.graph), ops.base, ma.level_dims)
                assert (dim > 0) == (ma.iso_class == mb.iso_class)
                pairs.append((ma is mb, dim))
    return pairs


class TestGradedHomDimension:
    def test_matches_kronecker_small_graphs(self, split_commutants):
        # every base of every connected graph with n <= 5, one per rooted
        # isomorphism class
        pairs = [pair for n in range(1, 6) for g, x in rooted_classes(n)
                 for pair in _hom_three_ways(build_operators(g, x),
                                             split_commutants)]
        assert {(False, 0), (False, 1), (True, 1)} <= set(pairs)

    @pytest.mark.parametrize("source", list(golden.BUILTINS) + golden.apex_graph6s())
    def test_matches_kronecker_named_graphs(self, split_commutants, source):
        g = load_graph(source)[0] if source in golden.BUILTINS else parse_graph6(source)
        for x in range(g.n):
            assert all(dim == 1 for same, dim in
                       _hom_three_ways(build_operators(g, x), split_commutants)
                       if same)

    def test_kronecker_stack_bit_identical(self, example_ops):
        # commutant_basis fills the stack the Kronecker hom oracle builds
        gens = generator_matrices(example_ops)
        basis, flag = commutant_basis(gens)
        null, want_flag = qr_nullspace_rows(intertwiner_stack(gens, gens))
        assert flag == want_flag
        assert np.array_equal(np.array(basis).reshape(len(basis), -1), null)


def _commutant_calls(monkeypatch):
    """[generators, stack] of every commutant_basis call made through the
    module, the stack as it reaches LAPACK's dgeqrf: the m x n matrix that
    dgeqrf reads column-major, with leading dimension lda, from the buffer
    it factors in place, copied before it is factored."""
    real_basis, real_geqrf = decompose_module.commutant_basis, lapack_lite.dgeqrf
    calls = []

    def basis(generators, tol=1e-9):
        calls.append([generators, None])
        return real_basis(generators, tol)

    def geqrf(m, n, a, lda, tau, work, lwork, info):
        if lwork != -1:  # not the workspace query
            calls[-1][1] = np.ndarray((m, n), buffer=a.copy(),
                                      strides=(a.itemsize, lda * a.itemsize))
        return real_geqrf(m, n, a, lda, tau, work, lwork, info)

    monkeypatch.setattr(decompose_module, "commutant_basis", basis)
    monkeypatch.setattr(lapack_lite, "dgeqrf", geqrf)
    return calls


class TestKroneckerStackInPlace:
    """commutant_basis writes the products np.kron forms into its stack, so
    the stack has the bytes of the np.kron build, signed zeros included,
    and the QR, SVD and random draw after it are unchanged. It builds the
    stack column-major, and LAPACK factors it in place, so the stack is
    held once."""

    def test_seeded_generators_with_negative_entries(self, monkeypatch):
        calls = _commutant_calls(monkeypatch)
        negative_zeros = 0
        for gens in _seeded_generators():
            decompose_module.commutant_basis(gens)
            stack = calls[-1][1]
            assert stack.flags.f_contiguous
            # its memory, read column-major, is the np.kron build's
            want = intertwiner_stack(gens, gens)
            assert stack.tobytes(order="A") == want.tobytes(order="F")
            negative_zeros += int((np.signbit(stack) & (stack == 0)).sum())
        assert len(calls) == 18 and negative_zeros > 0

    @pytest.mark.parametrize("instances", [
        pytest.param(lambda: [gx for n in range(1, 6) for gx in rooted_classes(n)],
                     id="rooted-classes-n5"),
        pytest.param(lambda: [(load_graph(name)[0], x) for name in ("cycle:20", "star:20")
                              for x in (0, 1)], id="cycle-20-star-20")])
    def test_decompose_stack_has_the_dense_bytes(self, monkeypatch, instances):
        # decompose hands commutant_basis the level projectors as their
        # diagonals, and the stack it solves has the bytes of the np.kron
        # build from the dense projectors of tests/matrix_oracle.py
        calls = _commutant_calls(monkeypatch)
        solved = 0
        for g, x in instances():
            ops = build_operators(g, x)
            decompose(ops)
            for gens, stack in calls:
                assert [G.ndim for G in gens] == [2] + [1] * (ops.ecc + 1)
                want = intertwiner_stack(generator_matrices(ops), generator_matrices(ops))
                assert stack.flags.f_contiguous
                assert stack.tobytes(order="A") == want.tobytes(order="F"), (to_graph6(g), x)
            solved += len(calls)
            calls.clear()
        # star:20 and cycle:20 are reducible at every base
        assert solved >= 4

    @pytest.mark.parametrize("name", ["cycle:20", "star:20"])
    def test_peak_holds_one_stack(self, name):
        # the stack is factored in place and freed before the SVD. A copy of
        # the stack crosses the bound on both graphs; star:20's stack has
        # only three n^2 x n^2 blocks, so two block-sized temporaries beside
        # it, or R, U and VT beside it during the SVD, cross it as well
        gens = _decompose_generators(load_graph(name)[0], 0)
        stack_bytes = 8 * len(gens) * len(gens[0]) ** 4
        tracemalloc.start()
        try:
            commutant_basis(gens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stack_bytes <= peak <= 1.5 * stack_bytes


class TestOneCommutantSolve:
    @pytest.mark.parametrize("instances", [
        pytest.param(lambda: [gx for n in range(1, 6) for gx in rooted_classes(n)],
                     id="rooted-classes-n5"),
        pytest.param(lambda: list(_named_instances()), id="named-graphs")])
    def test_solves_at_most_once(self, monkeypatch, instances):
        # one base per rooted class with n <= 5, every base of the named
        # graphs: a reducible space is solved once, on the whole space's
        # generators, and no piece is solved; an irreducible one not at all
        calls = _commutant_calls(monkeypatch)
        solved = 0
        for g, x in instances():
            ops = build_operators(g, x)
            decompose(ops)
            assert len(calls) == (_closure_dimension(ops) < g.n), (to_graph6(g), x)
            for gens, stack in calls:
                assert gens[0].shape[0] == g.n
                assert stack.tobytes() == intertwiner_stack(gens, gens).tobytes()
            solved += len(calls)
            calls.clear()
        assert solved > 10


def _golden_graphs():
    """The graphs of the golden check reports."""
    return ([load_graph(name)[0] for name in golden.BUILTINS]
            + [parse_graph6(g6) for g6 in golden.graph6_sources()])


class TestLevelDims:
    @pytest.mark.parametrize("instances", [
        pytest.param(lambda: [(g, x) for g in _golden_graphs() for x in range(g.n)],
                     id="golden-graphs"),
        pytest.param(lambda: [gx for n in range(1, 6) for gx in rooted_classes(n)],
                     id="rooted-classes-n5")])
    def test_traces_match_svd_count(self, instances):
        modules = 0
        for g, x in instances():
            ops = build_operators(g, x)
            for m in decompose(ops).modules:
                assert m.level_dims == level_dims_by_svd(m.subspace.basis, ops), \
                    (to_graph6(g), x)
                modules += 1
        assert modules > 100

    def test_random_subspace_not_graded(self, monkeypatch, example_ops):
        basis = np.linalg.qr(np.random.default_rng(7).standard_normal((6, 2)))[0].T
        dist = np.asarray(example_ops.metric.dist)
        assert _level_dims([basis], dist) == [None]
        self._assert_rejected(monkeypatch, example_ops, basis)

    def test_levels_not_contiguous(self, monkeypatch, example_ops):
        # the base and one vertex at distance 2: graded, with a gap at level 1
        dist = np.asarray(example_ops.metric.dist)
        basis = np.eye(6)[[example_ops.base, list(dist).index(2)]]
        assert _level_dims([basis], dist) == [(1, 0, 1)]
        self._assert_rejected(monkeypatch, example_ops, basis)

    @staticmethod
    def _assert_rejected(monkeypatch, ops, basis):
        # past the irreducibility test and the invariance check, which
        # would reject both on their own; the scalars stand in for the
        # commutant, whose image only the patched test reads
        monkeypatch.setattr(decompose_module,
                            "_irreducible", lambda *args: True)
        dist = np.asarray(ops.metric.dist)
        levels = [dist == i for i in range(ops.ecc + 1)]
        scalars = np.eye(ops.graph.n)[None]
        with pytest.raises(_Rejected, match="^a dim-2 module is not graded on "
                                            "contiguous levels$") as exc:
            _verify_and_summarize([basis], scalars, adjacency_matrix(ops.graph),
                                  levels, [1.0] * (len(levels) + 1), dist, np.inf)
        assert 0 < exc.value.residual < np.inf


def _residual_one_product_at_a_time(basis, ops):
    """A module's invariance residual with each generator product and its
    np.linalg.norm formed on its own: the reference for decompose's
    stacked products."""
    if len(basis) == ops.graph.n:
        return 0.0
    adjacency = adjacency_matrix(ops.graph)
    dist = np.asarray(ops.metric.dist)
    levels = [dist == i for i in range(ops.ecc + 1)]
    scales = [max(1.0, math.sqrt(ones))
              for ones in [2 * ops.graph.edge_count] + [int(m.sum()) for m in levels]]
    proj = basis.T @ basis
    residual = 0.0
    for gp, scale in zip([adjacency @ proj] + [proj * m[:, None] for m in levels], scales):
        residual = max(residual, float(np.linalg.norm(gp - proj @ gp) / scale))
    return residual


class TestStackedSteps:
    """Each step decompose takes on a stacked array gives the floats of the
    loop over its parts, bit for bit."""

    @pytest.mark.parametrize("instances,modules", [
        pytest.param(lambda: [gx for n in range(1, 6) for gx in rooted_classes(n)], 152,
                     id="rooted-classes-n5"),
        pytest.param(lambda: [(load_graph(name)[0], 0) for name in ("cycle:20", "star:20")],
                     2 + 20, id="cycle-20-star-20")])
    def test_residuals_match_the_norm_of_each_product(self, instances, modules):
        residuals = []
        for g, x in instances():
            ops = build_operators(g, x)
            for m in decompose(ops).modules:
                assert m.residual == _residual_one_product_at_a_time(
                    m.subspace.basis, ops), (to_graph6(g), x)
                residuals.append(m.residual)
        assert len(residuals) == modules and max(residuals) > 0

    def test_draw_matches_the_summed_terms(self, monkeypatch):
        # seeded commutant-like stacks with exact zeros of both signs, stacks
        # of negative zeros and the commutants of star:3 and the example at
        # their bases: the matrix the split hands eigh has the bytes of
        # sum() over the terms c (M + M^T) / 2, scaled by np.linalg.norm
        rng = np.random.default_rng(20261020)
        stacks = [rng.integers(-1, 2, (d, k, k)) * rng.standard_normal((d, k, k))
                  for d in (2, 3, 7) for k in (1, 4, 6)]
        stacks += [np.full((d, 2, 2), -0.0) for d in (1, 1, 2, 2)]
        for ops in (build_operators(star_graph(3), 0), build_operators(*example_graph())):
            stacks.append(commutant_basis(generator_matrices(ops))[0])
        drawn = []
        monkeypatch.setattr(decompose_module, "_eigengroups",
                            lambda sym, tol: drawn.append(sym.copy()) or [sym, sym])
        for seed, comm in enumerate(stacks):
            _split(comm, np.random.default_rng(seed), 1e-9)
            coeffs = np.random.default_rng(seed).standard_normal(len(comm))
            want = sum(c * (M + M.T) / 2.0 for c, M in zip(coeffs, comm))
            want /= max(1.0, float(np.linalg.norm(want)))
            assert drawn[-1].tobytes() == want.tobytes(), seed
        assert len(drawn) == len(stacks) == 15


def _golden_decomposition(label, base):
    """The decomposition in the golden `check LABEL --all-vertices
    --decompose` report at a base index."""
    text = gzip.decompress(golden.REPORTS_PATH.read_bytes()).decode("ascii")
    block = text.split(f"# check {label} --all-vertices --decompose\n")[1]
    return json.loads(block.splitlines()[base])["decomposition"]


class TestMultiplicityFreeSplit:
    def test_cycle6_one_kronecker_solve(self, monkeypatch):
        # two classes, each once: the commutant has dimension 2 and the
        # eigen-split has two pieces, each accepted by its trace
        calls = _commutant_calls(monkeypatch)
        rep = decompose(build_operators(cycle_graph(6), 0))
        assert [gens[0].shape[0] for gens, _ in calls] == [6]
        assert [m.level_dims for m in rep.modules] == [(1, 1, 1, 1), (0, 1, 1, 0)]

    def test_repeated_class_one_solve(self, monkeypatch):
        # Petersen at a vertex has two classes that occur twice: a commutant
        # of dimension 1 + 4 + 4 + 1 = 10 and more dimensions than
        # eigenspaces, yet every piece is accepted by its trace with no
        # solve of its own; the modules are those of the golden report
        calls = _commutant_calls(monkeypatch)
        report = analyze(petersen_graph(), 0, with_decomposition=True)
        assert [gens[0].shape[0] for gens, _ in calls] == [10]
        assert (json.loads(report_to_json(report))["decomposition"]
                == _golden_decomposition("petersen", 0))


_NON_REAL_NOTE = ("accepted dim-8 module with self-intertwiner dimension 2 "
                  "and scalar symmetric part (non-real type)")


def _complex_k4_minus_edge():
    """K4 minus an edge, levels {0, 1} and {2, 3}, with the flat edge {2, 3}
    weighted i, in the real 8 x 8 form [[Re, -Im], [Im, Re]]: the adjacency
    matrix and the level of each coordinate."""
    h = np.array([[0, 1, 1, 0], [1, 0, 1, 1], [1, 1, 0, 1j], [0, 1, -1j, 0]])
    adjacency = np.block([[h.real, -h.imag], [h.imag, h.real]])
    assert np.array_equal(adjacency, adjacency.T)
    return adjacency, np.array([0, 0, 1, 1] * 2)


class TestNonRealSplit:
    def test_complex_weighted_edge_accepted_whole(self):
        # the Hermitian matrix H and the level projectors generate all of
        # M_4(C). Their real forms are symmetric and act irreducibly on R^8,
        # with the commutant C: multiplication by i is antisymmetric, so the
        # symmetric part is the scalars and the space is accepted whole.
        # Its level 0 is 4-dimensional, so it is no standard module, which
        # is never of non-real type; it stands for a piece of one
        adjacency, dist = _complex_k4_minus_edge()
        comm, flag = commutant_basis([adjacency, np.diag(dist == 0) * 1.0,
                                      np.diag(dist == 1) * 1.0])
        notes = []
        assert _irreducible(np.eye(8), np.matmul(comm, np.eye(8)), notes)
        assert comm.shape == (2, 8, 8) and not flag
        assert notes == [_NON_REAL_NOTE]

    def test_two_copies_split_into_non_real_pieces(self, monkeypatch):
        # two copies of that module: the commutant is M_2(C), of dimension
        # 8, with symmetric elements beyond the scalars, so V is split. Each
        # of the two eigenspaces has the self-intertwiner trace 2 and a
        # scalar symmetric part, and is accepted with no solve of its own,
        # as one class: the hom trace between the copies is 2 as well
        adjacency, dist = _complex_k4_minus_edge()
        adjacency, dist = np.kron(np.eye(2), adjacency), np.tile(dist, 2)
        levels = [dist == 0, dist == 1]
        comm, flag = commutant_basis([adjacency] + [np.diag(level) * 1.0
                                                    for level in levels])
        monkeypatch.setattr(decompose_module,
                            "commutant_basis", _no_solver("commutant_basis"))
        pieces = _split(comm, np.random.default_rng(0), 1e-9)
        modules, notes = _verify_and_summarize(pieces, comm, adjacency, levels,
                                               [1.0] * 3, dist, 1e-6)
        assert [piece.shape for piece in pieces] == [(8, 16)] * 2
        assert comm.shape == (8, 16, 16) and not flag
        assert notes == [_NON_REAL_NOTE] * 2
        assert [(m.level_dims, m.iso_class) for m in modules] == [((4, 4), 0)] * 2
        assert all(m.residual < 1e-9 for m in modules)


class TestRejectedAttempts:
    """Every way decompose rejects an attempt and retries with a new draw,
    reached by patching: no split, no trivial module, an invariance
    residual above the bound, a piece that is not graded, a hom trace that
    is not an integer and an eigenspace that is not irreducible. Each
    rejected attempt logs one line with its reason. cycle:6 at a vertex
    splits into a trivial module and one of endpoint 1."""

    def _first_attempt(self, monkeypatch, rewrite, attempts=1):
        # rewrite replaces the modules of the first `attempts` attempts
        calls = []
        verify = _verify_and_summarize

        def patched(*args):
            modules, notes = verify(*args)
            calls.append(len(modules))
            return (rewrite(modules) if len(calls) <= attempts else modules), notes

        monkeypatch.setattr(decompose_module,
                            "_verify_and_summarize", patched)
        return calls

    @staticmethod
    def _messages(caplog):
        return [r.getMessage() for r in caplog.records]

    @pytest.fixture
    def ops(self):
        return build_operators(cycle_graph(6), 0)

    def test_no_split(self, monkeypatch, caplog, ops):
        # a draw with one eigenspace rejects its attempt, and the next
        # attempt draws once more
        real = decompose_module._eigengroups
        draws = []

        def one_group_first(sym, tol):
            draws.append(sym.shape)
            return [sym] if len(draws) == 1 else real(sym, tol)

        monkeypatch.setattr(decompose_module, "_eigengroups", one_group_first)
        with caplog.at_level(logging.INFO, logger="tkit.decompose"):
            rep = decompose(ops)
        assert draws == [(6, 6)] * 2
        assert [m.level_dims for m in rep.modules] == [(1, 1, 1, 1), (0, 1, 1, 0)]
        assert self._messages(caplog) == [
            f"{describe(ops)} attempt 0: could not split a dim-6 reducible subspace"]

    def test_no_trivial_module(self, monkeypatch, caplog, ops):
        def no_trivial(modules):
            return [replace(m, endpoint=1) for m in modules]

        calls = self._first_attempt(monkeypatch, no_trivial)
        with caplog.at_level(logging.INFO, logger="tkit.decompose"):
            rep = decompose(ops)
        assert calls == [2, 2]
        assert [(m.endpoint, m.level_dims) for m in rep.modules] == [
            (0, (1, 1, 1, 1)), (1, (0, 1, 1, 0))]
        self._first_attempt(monkeypatch, no_trivial, attempts=4)
        with caplog.at_level(logging.INFO, logger="tkit.decompose"):
            with pytest.raises(DecompositionError,
                               match="no verified decomposition after 4 attempts") as exc:
                decompose(ops)
        assert len(exc.value.residuals) == 4
        assert all(math.isnan(r) for r in exc.value.residuals)
        assert self._messages(caplog) == [
            f"{describe(ops)} attempt {k}: 0 modules of endpoint 0, not one"
            for k in (0, 0, 1, 2, 3)]

    def test_residual_above_bound(self, monkeypatch, caplog, ops):
        # the vertex indicators are not invariant: each attempt is rejected
        # at the first one, with its residual kept for the error
        calls = []

        def indicators(comm, *args):
            calls.append(comm.shape)
            return list(np.eye(6)[:, None, :])

        monkeypatch.setattr(decompose_module,
                            "_split", indicators)
        with caplog.at_level(logging.INFO, logger="tkit.decompose"):
            with pytest.raises(DecompositionError) as exc:
                decompose(ops)
        assert calls == [(2, 6, 6)] * 4 and len(exc.value.residuals) == 4
        assert all(r > 1e3 * 1e-9 for r in exc.value.residuals)
        assert self._messages(caplog) == [
            f"{describe(ops)} attempt {k}: a dim-1 module's invariance residual "
            f"{r:.3g} is above 1e-06" for k, r in enumerate(exc.value.residuals)]

    def test_not_graded(self, monkeypatch, caplog, ops):
        # level traces more than 0.25 from an integer reject the attempt,
        # with the residual of the piece kept for the error; the split's
        # first piece is the first checked
        read = []

        def not_graded(bases, dist):
            read.append(len(bases[0]))
            return [None] * len(bases)

        monkeypatch.setattr(decompose_module,
                            "_level_dims", not_graded)
        with caplog.at_level(logging.INFO, logger="tkit.decompose"):
            with pytest.raises(DecompositionError) as exc:
                decompose(ops)
        assert len(read) == 4 and set(read) == {2, 4}
        assert len(exc.value.residuals) == 4
        assert all(0 <= r < 1e-12 for r in exc.value.residuals)
        assert self._messages(caplog) == [
            f"{describe(ops)} attempt {k}: a dim-{dim} module is not graded on "
            "contiguous levels" for k, dim in enumerate(read)]

    @pytest.mark.parametrize("attempts", [1, 4])
    def test_hom_trace_not_integral(self, monkeypatch, caplog, attempts):
        # star:3 at its centre has two isomorphic modules of endpoint 1 and
        # dimension 1, so the trace between them is 1; the whole space's
        # commutant basis scaled by the root of 1/2 puts it at 1/2
        ops = build_operators(star_graph(3), 0)
        want = decompose(ops)
        splits = []

        def halved(bases, comm, *args):
            splits.append(len(bases))
            if len(splits) > attempts:
                return _verify_and_summarize(bases, comm, *args)
            # the pieces pass their irreducibility test on the true commutant
            with monkeypatch.context() as inner:
                inner.setattr(decompose_module, "_irreducible", lambda basis, _, notes:
                              _irreducible(basis, np.matmul(comm, basis.T), notes))
                return _verify_and_summarize(bases, comm * math.sqrt(0.5), *args)

        monkeypatch.setattr(decompose_module, "_verify_and_summarize", halved)
        with caplog.at_level(logging.INFO, logger="tkit.decompose"):
            if attempts == 4:
                with pytest.raises(DecompositionError) as exc:
                    decompose(ops)
                assert splits == [3] * 4 and len(exc.value.residuals) == 4
                assert all(0 <= r < 1e-12 for r in exc.value.residuals)
            else:
                rep = decompose(ops)
                assert splits == [3, 3]
                assert [(m.level_dims, m.iso_class) for m in rep.modules] == [
                    ((1, 1), 0), ((0, 1), 1), ((0, 1), 1)]
                assert [m.level_dims for m in want.modules] == [(1, 1), (0, 1), (0, 1)]
        assert self._messages(caplog) == [
            f"{describe(ops)} attempt {k}: a hom trace between dim-1 modules is "
            "not an integer" for k in range(attempts)]

    @pytest.mark.parametrize("attempts", [1, 4])
    def test_merged_eigenspaces_rejected(self, monkeypatch, caplog, attempts):
        # star:3 at its centre splits into its 2-dimensional trivial module
        # and two isomorphic modules of dimension 1. A draw that merges the
        # latter two eigenspaces gives a piece whose self-intertwiners are
        # M_2(R), of dimension 4, so its attempt is rejected and redrawn
        ops = build_operators(star_graph(3), 0)
        want = decompose(ops)
        real = decompose_module._eigengroups
        merged = []

        def merging(sym, tol):
            groups = real(sym, tol)
            if len(merged) < attempts:
                ones = [block for block in groups if block.shape[1] == 1]
                merged.append(len(ones))
                groups = [block for block in groups if block.shape[1] > 1] + [np.hstack(ones)]
            return groups

        monkeypatch.setattr(decompose_module, "_eigengroups", merging)
        calls = _commutant_calls(monkeypatch)
        with caplog.at_level(logging.INFO, logger="tkit.decompose"):
            if attempts == 4:
                with pytest.raises(DecompositionError) as exc:
                    decompose(ops)
                assert exc.value.residuals == ()
            else:
                rep = decompose(ops)
                # attempt 1 draws other bases of the two isomorphic modules
                assert _without_floats(rep) == _without_floats(want)
        assert merged == [2] * attempts and len(calls) == 1
        assert self._messages(caplog) == [
            f"{describe(ops)} attempt {k}: a dim-2 eigenspace is not irreducible"
            for k in range(attempts)]


def _without_floats(rep):
    """The report with its module bases and residuals blanked."""
    return replace(rep, modules=tuple(replace(m, subspace=None, residual=None)
                                      for m in rep.modules))


class TestDualBlockDims:
    def test_example(self, example_ops):
        assert dual_block_dims(decompose(example_ops)) == (2, 2)

    def test_k2(self):
        ops = build_operators(parse_edge_list("a b"), 0)
        assert dual_block_dims(decompose(ops)) == (1,)

    def test_matches_closure_small_graphs(self):
        # every base of every connected graph with n <= 5, one per rooted
        # isomorphism class: both sides are invariants of the rooted graph
        count = 0
        for n in range(1, 6):
            for g, x in rooted_classes(n):
                ops = build_operators(g, x)
                assert dual_block_dims(decompose(ops)) == closure_block_dims(ops), \
                    (to_graph6(g), x)
                count += 1
        assert count == 1 + 1 + 3 + 11 + 58

    @pytest.mark.parametrize("source", list(golden.BUILTINS) + golden.apex_graph6s())
    def test_matches_closure_named_graphs(self, source):
        g = load_graph(source)[0] if source in golden.BUILTINS else parse_graph6(source)
        for x in range(g.n):
            ops = build_operators(g, x)
            assert dual_block_dims(decompose(ops)) == closure_block_dims(ops), x

    def test_pass_fixes_the_block_dims(self):
        # the block-dimension lemma on a faster corpus than acceptance
        # criterion 8: on every agree-pass instance the block dims are 2 on
        # levels 1..d'+1 and 1 above; every agree-pass rooted class of the
        # n <= 5 corpus and of every 8th n = 6 graph
        graphs = itertools.chain(*map(connected_graphs, range(1, 6)),
                                 itertools.islice(connected_graphs(6), 0, None, 8))
        seen = set()
        passes = 0
        for g in graphs:
            for x in range(g.n):
                ops = build_operators(g, x)
                key = rooted_key(g, ops.metric)
                if g.degree(x) < 2 or not fit_pdr(g, x).ok or key in seen:
                    continue
                seen.add(key)
                report = analyze(g, x, with_decomposition=True)
                if report.agreement != AGREE_PASS:
                    continue
                rep = report.decomposition
                d_prime = max(m.diameter for m in rep.endpoint1_modules())
                assert dual_block_dims(rep) == (2,) * (d_prime + 1) + (1,) * (
                    ops.ecc - d_prime - 1), (to_graph6(g), x)
                passes += 1
        assert passes == 45

    def test_closure_undercounts_irreducible_standard_module(self):
        # base 0 is adjacent to all 7 other vertices and the whole space is
        # one irreducible module with level dims (1, 7), so the level-1
        # block is all of Hom(E*_1 V, E*_1 V), of dimension 7 * 7
        g = parse_graph6("Guqv}[")
        ops = build_operators(g, 0)
        rep = decompose(ops)
        assert [m.level_dims for m in rep.modules] == [(1, 7)]
        assert dual_block_dims(rep) == (len(ops.metric.sphere(1)) ** 2,) == (49,)
        assert closure_block_dims(ops) == (42,)


def test_subspace_distance_bounds():
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 1.0]])
    assert subspace_distance(a, a) < 1e-12
    assert abs(subspace_distance(a, b) - 1.0) < 1e-12
