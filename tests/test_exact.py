import ast
import random
from fractions import Fraction
from fractions import Fraction as F
from pathlib import Path

import pytest

import tkit

import endpoint1_oracle
from endpoint1_oracle import fit_endpoint1_stepped
from fraction_oracle import solve_linear_fraction
from matrix_oracle import IntMatrix, build_matrix_operators, walk_table
from rooted import rooted_classes
from tkit.exact import (GRAPH6_SHOWN, SHAPE_FAMILIES, build_operators,
                        describe, enumerate_walks, raising_powers,
                        shape_string, solve_linear, walk_counts_from)
from tkit.graphs import connected_graphs, local_metric, parse_edge_list, to_graph6
from tkit.constructions import complete_graph, cycle_graph, star_graph
from tkit.regularity import NotApplicable, fit_pdr
from walk_oracle import step, walk_column


class TestIntMatrix:
    def test_matmul_identity(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert m @ IntMatrix.identity(2) == m
        assert IntMatrix.identity(2) @ m == m

    def test_matmul_known(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert a @ b == IntMatrix.from_rows([[2, 1], [4, 3]])

    def test_transpose(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().entries == ((1, 4), (2, 5), (3, 6))

    def test_submatrix_order(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert m.submatrix([2, 0], [1]) == IntMatrix.from_rows([[8], [2]])

    def test_empty_restriction_rejected(self):
        m = IntMatrix.identity(2)
        with pytest.raises(ValueError):
            m.submatrix([], [0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            IntMatrix.identity(2) @ IntMatrix.identity(3)


class TestSolveLinear:
    def test_unique(self):
        sol = solve_linear([[1, 1], [1, -1]], [3, 1])
        assert sol.consistent
        assert sol.values == (Fraction(2), Fraction(1))

    def test_inconsistent_with_witness(self):
        sol = solve_linear([[1, 0], [1, 0], [0, 1]], [1, 2, 5])
        assert not sol.consistent
        assert sol.bad_row == 1

    def test_underdetermined_free_marked(self):
        sol = solve_linear([[1, 0]], [7])
        assert sol.consistent
        assert sol.values == (Fraction(7), None)
        assert sol.canonical() == (Fraction(7), Fraction(0))
        assert sol.pivots == (0,)

    def test_rational_entries(self):
        sol = solve_linear([[Fraction(1, 2), 0]], [Fraction(1, 3)])
        assert sol.values == (Fraction(2, 3), None)

    def test_no_equations_leave_both_free(self):
        sol = solve_linear([], [])
        assert sol.consistent and sol.values == (None, None) and sol.pivots == ()

    def test_zero_rows_consistent(self):
        sol = solve_linear([[0, 0]], [0])
        assert sol.consistent and sol.values == (None, None)

    @pytest.mark.parametrize("rows", [[[1, 0], [0, 1, 2]], [[1, 0], [1]]])
    def test_ragged_rows_rejected(self, rows):
        # a short row would leave an unknown without a coefficient, and a
        # long one would drop a term
        with pytest.raises(ValueError, match="row 1 has"):
            solve_linear(rows, [1, 2])

    @pytest.mark.parametrize("width", [1, 3])
    def test_two_unknowns_only(self, width):
        with pytest.raises(ValueError, match="row 0 has .* expected 2"):
            solve_linear([[1] * width], [1])

    def test_integer_system_builds_only_the_values(self, monkeypatch):
        # the shape of the endpoint-one system at the centre of star:80:
        # 6 400 equations in 2 unknowns; only the two returned values may
        # be Fractions, so the elimination itself stays in integers
        built = []

        class Counted(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(tkit.exact, "Fraction", Counted)
        rows = [(int(y == z), 1) for y in range(80) for z in range(80)]
        rhs = [3 * a + 5 * b for a, b in rows]
        sol = solve_linear(rows, rhs)
        assert sol.consistent and sol.values == (3, 5)
        assert len(built) <= 2


def _fields(sol):
    return sol.consistent, sol.values, sol.pivots, sol.bad_row


def _assert_matches_oracle(rows, rhs):
    got = solve_linear(rows, rhs)
    assert _fields(got) == _fields(solve_linear_fraction(rows, rhs))
    assert all(v is None or type(v) is Fraction for v in got.values)
    return got


def _random_system(rng):
    """1-10 equations in 2 unknowns: small ints, bigints up to 2^70 or
    Fractions, with zero rows, duplicated (scaled) rows and, for some,
    a right-hand side built from a known solution."""
    kind = rng.randrange(4)

    def entry():
        if kind == 0:
            return rng.randint(-3, 3)
        if kind == 1:
            return rng.randint(-2 ** 70, 2 ** 70) * rng.choice((0, 1, 1))
        if kind == 2:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.choice((0, 0, 1, -1, 2))

    nr, nc = rng.randint(1, 10), 2
    rows = [[entry() for _ in range(nc)] for _ in range(nr)]
    rhs = [entry() for _ in range(nr)]
    if nr and rng.random() < 0.3:
        rows[rng.randrange(nr)] = [0] * nc
    if nr > 1 and rng.random() < 0.3:
        a, b = rng.randrange(nr), rng.randrange(nr)
        m = rng.choice((1, 2, -3, Fraction(1, 2)))
        rows[a] = [m * e for e in rows[b]]
        if rng.random() < 0.5:
            rhs[a] = m * rhs[b]
    if rng.random() < 0.4:
        known = [rng.randint(-3, 3) for _ in range(nc)]
        rhs = [sum(e * v for e, v in zip(row, known)) for row in rows]
    return rows, rhs


class TestSolveLinearOracle:
    """The integer elimination agrees with Gauss-Jordan over Fraction
    (tests/fraction_oracle.py) on every field of the solution."""

    def test_random_systems(self):
        rng = random.Random(20261018)
        inconsistent = 0
        for _ in range(4000):
            rows, rhs = _random_system(rng)
            inconsistent += not _assert_matches_oracle(rows, rhs).consistent
        assert 1000 < inconsistent < 3000

    @pytest.mark.parametrize("rows, rhs, expected", [
        pytest.param([(0, 0), (0, 0)], [0, 0], (True, (None, None), (), None),
                     id="rank-0"),
        pytest.param([(0, 0), (0, 0), (0, 0)], [0, 3, 1],
                     (False, (None, None), (), 1), id="rank-0-inconsistent"),
        pytest.param([(2, 4), (1, 2), (3, 6)], [2, 1, 3],
                     (True, (1, None), (0,), None), id="rank-1"),
        pytest.param([(2, 4), (1, 2), (3, 6)], [2, 1, 4],
                     (False, (None, None), (0,), 2), id="rank-1-inconsistent"),
        pytest.param([(1, 1), (1, -1), (2, 0)], [3, 1, 4],
                     (True, (2, 1), (0, 1), None), id="rank-2"),
        pytest.param([(0, 0), (0, 2), (0, 1)], [0, 4, 2],
                     (True, (None, 2), (1,), None), id="zero-first-column"),
        pytest.param([(0, 0), (0, 2), (0, 1)], [0, 4, 3],
                     (False, (None, None), (1,), 2),
                     id="zero-first-column-inconsistent"),
        # the pivot row 2 swaps with row 0, so row 1 is checked first
        pytest.param([(0, 0), (0, 0), (1, 0)], [1, 2, 5],
                     (False, (None, None), (0,), 1),
                     id="inconsistent-before-swapped-pivot"),
        pytest.param([(0, 1), (1, 0), (0, 0)], [2, 3, 1],
                     (False, (None, None), (0, 1), 2),
                     id="inconsistent-after-swapped-pivot"),
        # column 1's pivot row 3 swaps with row 1, so row 2 is checked first
        pytest.param([(1, 0), (2, 0), (0, 0), (1, 1)], [1, 3, 1, 2],
                     (False, (None, None), (0, 1), 2),
                     id="second-pivot-swapped"),
        pytest.param([(F(1, 2), F(1, 3)), (F(-1, 4), 2), (1, F(7, 5))],
                     [F(1, 2), F(-7, 2), F(-1, 10)],
                     (True, (2, F(-3, 2)), (0, 1), None), id="fractions"),
        pytest.param([(F(1, 2), F(1, 3)), (F(-1, 2), F(-1, 3)), (1, F(2, 3))],
                     [F(1, 6), F(-1, 6), F(1, 2)],
                     (False, (None, None), (0,), 2), id="fractions-inconsistent"),
    ])
    def test_two_unknown_systems(self, rows, rhs, expected):
        assert _fields(_assert_matches_oracle(rows, rhs)) == expected

    @staticmethod
    def _check_endpoint1_systems(monkeypatch, instances):
        # the systems of the stepped endpoint-one fit, which solves every
        # level row by row
        systems = []

        def solve(rows, rhs):
            systems.append(len(rows))
            return _assert_matches_oracle(rows, rhs)

        monkeypatch.setattr(endpoint1_oracle, "solve_linear", solve)
        for g, x in instances:
            ops = build_operators(g, x)
            try:
                fit_endpoint1_stepped(ops, fit_pdr(g, x))
            except NotApplicable:
                pass
        return systems

    def test_endpoint1_systems_small_graphs(self, monkeypatch):
        # both systems of every endpoint-one level, at one base per rooted
        # class of every connected graph with n <= 5
        instances = [pair for n in range(1, 6) for pair in rooted_classes(n)]
        systems = self._check_endpoint1_systems(monkeypatch, instances)
        assert len(systems) == 76  # 22 fitted instances, 38 levels

    def test_endpoint1_systems_star_centre(self, monkeypatch):
        systems = self._check_endpoint1_systems(monkeypatch,
                                                [(star_graph(80), 0)])
        assert systems == [6400, 6400]


class TestBuildOperators:
    """Self-consistency of the dense operator build in the matrix oracle."""

    def test_example_dual_one(self, example):
        g, x = example
        duals = build_matrix_operators(g, x).duals
        diag = [duals[1][v, v] for v in range(g.n)]
        assert [g.labels[v] for v in range(g.n) if diag[v]] == ["2", "3"]

    def test_defining_identities_exhaustive(self):
        for n in (2, 3, 4):
            for g in connected_graphs(n):
                for x in range(g.n):
                    ops = build_matrix_operators(g, x)
                    a, d = ops.adjacency, ops.ecc
                    assert ops.lowering + ops.flat + ops.raising == a
                    assert ops.raising == ops.lowering.transpose()
                    assert ops.flat == ops.flat.transpose()
                    # dual idempotents: disjoint 0/1 diagonals summing to I
                    total = ops.duals[0]
                    for e in ops.duals[1:]:
                        total = total + e
                    assert total == IntMatrix.identity(g.n)
                    for i, ei in enumerate(ops.duals):
                        assert ei @ ei == ei
                        for j in range(i + 1, d + 1):
                            assert (ei @ ops.duals[j]).is_zero()
                    # the level-split parts agree with the projected sums
                    low = IntMatrix.zeros(g.n, g.n)
                    flat = IntMatrix.zeros(g.n, g.n)
                    for i in range(d + 1):
                        if i >= 1:
                            low = low + ops.duals[i - 1] @ a @ ops.duals[i]
                        flat = flat + ops.duals[i] @ a @ ops.duals[i]
                    assert low == ops.lowering
                    assert flat == ops.flat

    def test_k2_parts(self):
        g = parse_edge_list("a b")
        ops = build_matrix_operators(g, 0)
        assert ops.lowering.entries == ((0, 1), (0, 0))
        assert ops.raising.entries == ((0, 0), (1, 0))
        assert ops.flat.is_zero()


class TestStep:
    def test_k2_parts(self):
        ops = build_operators(parse_edge_list("a b"), 0)
        assert step(ops, [1, 0], 0, "r") == [0, 1]
        assert step(ops, [0, 1], 1, "l") == [1, 0]
        assert step(ops, [5, 0], 0, "f") == [0, 0]
        assert step(ops, [0, 7], 1, "f") == [0, 0]
        # lowering at the base and raising past the last level leave no walk
        assert step(ops, [1, 0], 0, "l") == [0, 0]
        assert step(ops, [0, 1], 1, "r") == [0, 0]

    def test_example_counts(self, example, example_ops):
        g, x = example
        label = lambda vec: {g.labels[v]: c for v, c in enumerate(vec) if c}
        powers = raising_powers(example_ops, x, 3)
        assert [label(p) for p in powers] == [
            {"1": 1}, {"2": 1, "3": 1}, {"4": 1, "5": 2, "6": 1}, {}]
        assert label(step(example_ops, powers[1], 1, "f")) == {"2": 1, "3": 1}
        assert label(step(example_ops, powers[2], 2, "l")) == {"2": 3, "3": 3}

    def test_matches_matrix_products_exhaustive(self):
        # one step by each letter equals the matching dense operator
        # applied to every single-level column R^m e_y, on every connected
        # graph with n <= 4; this lowers e_x at the base and raises e_y on
        # the last level, and m runs one past it, so the zero column past
        # ecc is stepped too
        for n in (2, 3, 4):
            for g in connected_graphs(n):
                for x in range(g.n):
                    ops = build_operators(g, x)
                    mops = build_matrix_operators(g, x)
                    mats = {"r": mops.raising, "f": mops.flat, "l": mops.lowering}
                    for y in range(g.n):
                        for m, col in enumerate(raising_powers(ops, y, ops.ecc + 1)):
                            level = ops.metric.dist[y] + m
                            for letter, mat in mats.items():
                                want = [sum(mat[z, w] * col[w] for w in range(g.n))
                                        for z in range(g.n)]
                                assert step(ops, col, level, letter) == want


class TestWalkTables:
    def test_r0_is_identity(self, example_ops):
        assert [walk_column(example_ops, "", y) for y in range(6)] == \
            [list(row) for row in IntMatrix.identity(6).entries]

    def test_example_entries(self, example, example_ops):
        g, x = example
        i1, i2, i3 = g.index_of("1"), g.index_of("2"), g.index_of("3")
        assert walk_column(example_ops, "rl", i1)[i1] == 2  # 1-2-1 and 1-3-1
        assert walk_column(example_ops, "rl", i2)[i3] == 1  # 2-5-3

    def test_two_raises_from_level_one_vanish(self, example, example_ops):
        g, _ = example
        y = g.index_of("2")
        assert walk_column(example_ops, "rr", y) == [0] * g.n

    def test_bad_family(self, example):
        with pytest.raises(ValueError):
            walk_table(build_matrix_operators(*example), "ff", 1)

    def test_oracle_equivalence_exhaustive(self):
        # level-stepped vectors, matrix products and enumeration agree
        for n in (2, 3, 4):
            for g in connected_graphs(n):
                for x in range(g.n):
                    ops = build_operators(g, x)
                    mops = build_matrix_operators(g, x)
                    metric = ops.metric
                    for family in SHAPE_FAMILIES:
                        for m in range(metric.ecc + 2):
                            table = walk_table(mops, family, m)
                            shape = shape_string(family, m)
                            for y in range(g.n):
                                byend = walk_counts_from(g, x, shape, y, metric)
                                column = walk_column(ops, shape, y)
                                for z in range(g.n):
                                    assert table[z, y] == byend.get(z, 0) == column[z]

    def test_restricted_block_positivity(self):
        # the one-step-down block over (level i) x (level 1) has all
        # positive entries, and the pure-raising block is positive exactly
        # where the two vertices sit at distance i-1
        for n in (3, 4, 5):
            count = 0
            for g in connected_graphs(n):
                count += 1
                if count > 40:
                    break
                for x in range(g.n):
                    if g.degree(x) < 1:
                        continue
                    ops = build_operators(g, x)
                    sph1 = list(ops.metric.sphere(1))
                    dist = {y: local_metric(g, y).dist for y in sph1}
                    from_x = raising_powers(ops, x, ops.ecc)
                    for y in sph1:
                        from_y = raising_powers(ops, y, ops.ecc)
                        for i in range(ops.ecc + 1):
                            sphi = ops.metric.sphere(i)
                            # column y of R^i L is R^i e_x
                            down = walk_column(ops, "l" + "r" * i, y)
                            assert down == from_x[i]
                            assert all(down[z] > 0 for z in sphi)
                            if i == 0:
                                continue
                            up = from_y[i - 1]
                            for z in sphi:
                                assert (up[z] > 0) == (dist[y][z] == i - 1)


class TestEnumerateWalks:
    def test_empty_shape(self, example):
        g, x = example
        assert enumerate_walks(g, x, "", 1, 1) == 1
        assert enumerate_walks(g, x, "", 1, 2) == 0

    def test_hand_counted(self, example):
        g, x = example
        assert enumerate_walks(g, x, "rl", g.index_of("2"), g.index_of("3")) == 1

    def test_ecc_bound(self, example):
        g, x = example
        assert enumerate_walks(g, x, "rr", g.index_of("2"), g.index_of("4")) == 0

    def test_bad_letter(self, example):
        g, x = example
        with pytest.raises(ValueError):
            enumerate_walks(g, x, "rq", 0, 0)


class TestRestrictHelpers:
    def test_identity_block(self, example, example_ops):
        sph1 = list(example_ops.metric.sphere(1))
        block = walk_table(build_matrix_operators(*example), "r", 0).submatrix(sph1, sph1)
        assert block == IntMatrix.identity(2)


def test_walk_counts_grow_without_overflow():
    # dense graph, long walks: counts exceed 64-bit range and must stay exact
    g = complete_graph(9)
    ops = build_operators(g, 0)
    counts = walk_column(ops, "f" * 26, 1)
    assert max(counts) > 2 ** 64
    # level 1 is a K8, so closed flat walks follow (7^k + 7 (-1)^k) / 8
    assert counts[1] == (7 ** 26 + 7) // 8


def test_describe_cuts_graph6():
    # the graph6 string of cycle:200 has 3 321 characters; the description
    # shows its first 40, with n, m and the base
    g = cycle_graph(200)
    assert len(to_graph6(g)) == 3321 and GRAPH6_SHOWN == 40
    assert describe(build_operators(g, 0)) == (
        to_graph6(g)[:40] + "... (n=200, m=200) base 0")


@pytest.mark.parametrize("module", ["exact", "regularity", "graphs"])
def test_exact_side_imports_no_numpy(module):
    # the exact side decides with zero tolerance, so it has no float arrays
    tree = ast.parse((Path(tkit.__file__).parent / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert not [name for name in imported if name.split(".")[0] == "numpy"]
