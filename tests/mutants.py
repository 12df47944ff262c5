"""Mutation runner: does a named test subset notice a broken route?

Each mutant is one literal replacement in one file of src/tkit, together
with the test subset that should fail on it. The runner copies src/ and
tests/ into a temporary directory (tests/conftest.py puts the sibling
src/ first on sys.path, so the copy tests the copied package), applies the
mutant there, runs its subset with `pytest -x -q` and reports the mutant
killed when the subset fails, survived when it passes. The checkout is
never modified. Before the mutants, the union of their subsets runs on an
unmutated copy and must pass.

With --acceptance the table gains a column: whether acceptance criteria 6
and 7 alone (the exhaustive cross-validation and the walk-count oracle,
run together) kill the mutant. A cross-route mutant should be killed by
the claim it breaks, not only by the test written next to the code.
Mutants of inputs, resource limits, report keys and what the package
imports, and those that change only the bytes, layout or memory of the
commutant solve or which instances take it, are listed as unit-level,
and the criteria are not run on them.

A replacement whose text does not occur exactly once in its file is an
error, reported before anything runs.

    python tests/mutants.py            # every mutant, one at a time
    python tests/mutants.py NAME ...   # the named mutants
    python tests/mutants.py --list     # names, routes and subsets
    python tests/mutants.py --acceptance [NAME ...]  # and criteria 6 and 7 alone

Exit status 0 when every selected mutant is killed by its subset, 1 when
one survives and 2 on an error; the acceptance column does not change it.
Standard library only; pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 1800
CROSS_VALIDATION = ("tests/test_acceptance.py::"
                    "test_criterion_06_exhaustive_cross_validation")
ACCEPTANCE = (CROSS_VALIDATION,
              "tests/test_acceptance.py::test_criterion_07_walk_count_oracle")
# routes of mutants that break an input, a resource limit, a report key
# (the residuals among them) or what the package imports, which no
# cross-validation reads, or only the bytes, layout and memory of the
# commutant solve or which instances take it, which no output shows
UNIT_LEVEL_ROUTES = frozenset({
    "edge-list vertex order", "graph6 decoder", "apex distances",
    "resource limits", "scan process protocol",
    "endpoint-one report keys", "structure report", "scan structure suite",
    "Kronecker stack", "decomposition residuals", "numpy on demand",
    "closure shortcut"})


@dataclass(frozen=True)
class Mutant:
    name: str
    route: str   # the claim or route pair the mutant breaks
    path: str    # relative to src/tkit
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments, relative to the repo root


MUTANTS = (
    # matrix products vs walk enumeration
    Mutant("step-overwrites", "matrix vs enumeration", "exact.py",
           "                    out[w] += below[u]\n",
           "                    out[w] = below[u]\n",
           ("tests/test_exact.py",)),
    Mutant("enumeration-lowers-as-raise", "matrix vs enumeration", "exact.py",
           "        want = dist[v] + steps[k]\n",
           "        want = dist[v] + abs(steps[k])\n",
           ("tests/test_exact.py",)),
    # the oracle subcommand reads the counts of the endpoint-one fit's
    # sweep, which criterion 7 compares with enumeration on 500 graphs
    Mutant("oracle-reads-wrong-lane", "sweep vs enumeration", "regularity.py",
           '"rl": (down, m)', '"rl": (up, m)',
           ("tests/test_cli.py::TestOracle",
            "tests/test_acceptance.py::test_criterion_07_walk_count_oracle")),
    # unified vs clause-wise endpoint-one fit
    # (the packed sweep's flat sums are all zero, so the flat system
    # always holds)
    Mutant("unified-ignores-flat-system", "unified vs clause-wise", "regularity.py",
           "                    f += up[w]\n", "                    f += 0\n",
           ("tests/test_regularity.py::TestClausewiseEquivalence",)),
    Mutant("unified-shifts-kappa", "unified vs clause-wise", "regularity.py",
           "(Fraction(n0, det), Fraction(n1, det) if q else None)",
           "(Fraction(n0 + det, det), Fraction(n1, det) if q else None)",
           ("tests/test_regularity.py::TestClausewiseEquivalence",)),
    # packed fit vs the stepped, row-by-row fit (tests/endpoint1_oracle.py)
    Mutant("packed-width-from-paths-alone", "packed vs stepped", "regularity.py",
           "    width = (3 * p_max * p_max * m_max).bit_length()\n",
           "    width = p_max.bit_length() + 1\n",
           ("tests/test_regularity.py::TestSteppedOracle",)),
    # the packed check names no failing row, so the witness has none
    Mutant("packed-fallback-skipped", "packed vs stepped", "regularity.py",
           "        if witness is None and not consistent:\n",
           "        if False:\n",
           ("tests/test_golden.py",)),
    # exact fit vs numeric verdict, on the exhaustive n <= 6 scans
    Mutant("exact-ignores-flat-system", "exact vs numeric", "regularity.py",
           "                    f += up[w]\n", "                    f += 0\n",
           (CROSS_VALIDATION,)),
    Mutant("verdict-allows-two-classes", "exact vs numeric", "verdict.py",
           "    if report.endpoint1_iso_classes > 1:\n",
           "    if report.endpoint1_iso_classes > 2:\n",
           (CROSS_VALIDATION,)),
    # the scan never decomposes a base whose ratio fit fails, and no FAIL
    # of the n <= 6 scans rests on a non-thin endpoint-one module alone; a
    # non-thin base catches it, and so does the dodecahedron, whose every
    # vertex fails on that ground
    Mutant("numeric-thin-up-to-two", "exact vs numeric", "decompose.py",
           "            thin=all(dim <= 1 for dim in dims),\n",
           "            thin=all(dim <= 2 for dim in dims),\n",
           ("tests/test_report.py::TestAgreementMismatch", CROSS_VALIDATION)),
    # cache replay vs analysis
    Mutant("cache-key-too-coarse", "cache replay vs analysis", "scan.py",
           "        key = rooted_key(g, ops.metric)\n",
           "        key = (g.edge_count, ops.ecc)\n",
           ("tests/test_scan.py",)),
    Mutant("scan-self-check-off", "cache replay vs analysis", "scan.py",
           "        if stored is None or seed_x % SELF_CHECK_EVERY == 0:\n",
           "        if stored is None:\n",
           ("tests/test_scan.py",)),
    # the corpus generator vs tests/corpus_oracle.py
    Mutant("generator-group-unreversed", "generator vs oracle", "graphs.py",
           'int(f"{b & 63:06b}"[::-1], 2)', 'int(f"{b & 63:06b}", 2)',
           ("tests/test_graphs.py::TestConnectedGraphs",)),
    Mutant("generator-meets-one-component", "generator vs oracle", "graphs.py",
           "        joins = [all(hi & c for c in part) for part in parts]\n",
           "        joins = [any(hi & c for c in part) for part in parts]\n",
           ("tests/test_graphs.py::TestConnectedGraphs",)),
    # the ratio fit reads the whole search: a level's down sums are over
    # the neighbours one level up, and after the first witness only each
    # later level's first vertex is read
    Mutant("pdr-checks-level-early", "ratio fit vs full fit", "regularity.py",
           "                    if d > i:\n",
           "                    if d >= i:\n",
           ("tests/test_regularity.py::TestFitPdr::test_matches_full_fit",
            CROSS_VALIDATION)),
    Mutant("pdr-checks-past-witness", "ratio fit vs full fit", "regularity.py",
           "            for z in sphere if witness is None else (first,):\n",
           "            for z in sphere:\n",
           ("tests/test_regularity.py::TestFitPdr::"
            "test_search_stops_after_the_witness_level",)),
    # a record parsed on its own without a base of degree >= 2 has no fit
    # to search it whole
    Mutant("scan-connectivity-unproven", "disconnected records", "scan.py",
           "            local_metric(g, 0)\n",
           "            pass\n",
           ("tests/test_cli.py::TestScan::test_disconnected_record_rejected",)),
    # the batch thinness pass vs the ratio fit: a disconnected record goes
    # to the per-record path, which raises; the flat sums are compared as
    # the fit compares them; the reference is a vertex of the level (the
    # least, as in the fit; argmin finds one off it)
    Mutant("batch-connectivity-assumed", "disconnected records", "regularity.py",
           "seen[:, 0].all(axis=1)", "seen[:, 0].any(axis=1)",
           ("tests/test_regularity.py::TestThinBases",)),
    Mutant("batch-flat-unchecked", "batch pass vs ratio fit", "regularity.py",
           "                           | (sums * first_paths != sums.take(least) * paths))\n",
           "                           | False)\n",
           ("tests/test_regularity.py::TestThinBases",)),
    Mutant("batch-reference-off-level", "batch pass vs ratio fit", "regularity.py",
           "level.argmax(axis=2)", "level.argmin(axis=2)",
           ("tests/test_regularity.py::TestThinBases",)),
    # the sampled records are the only second route on a base the batch
    # pass calls not thin
    Mutant("scan-thin-sample-off", "batch pass vs ratio fit", "scan.py",
           "confirm_all=record % SELF_CHECK_EVERY == 0", "confirm_all=False",
           ("tests/test_scan.py::test_a_refuted_thin_flag_is_a_mismatch",)),
    # single checks, each with a test of its own
    Mutant("pdr-beta-unchecked", "ratio fit", "regularity.py",
           "                elif flat * count0 != flat0 * paths[z]:\n",
           "                elif False:\n",
           ("tests/test_regularity.py::TestFitPdr",)),
    Mutant("rho-forced-zero-unread", "endpoint-one report keys", "regularity.py",
           "        forced_zero = sol_tr.consistent and sol_tr.values[1] == 0\n",
           "        forced_zero = sol_tr.consistent\n",
           ("tests/test_regularity.py::TestFitEndpoint1",)),
    Mutant("packed-rank-one-pins-mu-rho", "endpoint-one report keys", "regularity.py",
           "Fraction(n1, det) if q else None", "Fraction(n1, det)",
           ("tests/test_regularity.py::TestFitEndpoint1",)),
    # a closure that under-counts modulo the prime is overruled by the
    # commutant; without that, V is split and no draw splits the scalars
    Mutant("undercount-not-overruled", "irreducibility decision", "decompose.py",
           "        irreducible = len(comm) == 1\n",
           "        irreducible = len(comm) == 0\n",
           ("tests/test_decompose.py::TestScalarCommutant",)),
    # every check of a piece is made in verification, which rejects the
    # attempt and keeps the residual it measured for the error
    Mutant("piece-irreducibility-off", "numeric rejection path", "decompose.py",
           "                if not _irreducible(basis, image, notes):\n",
           "                if False:\n",
           ("tests/test_decompose.py::TestRejectedAttempts",)),
    Mutant("rejected-residual-dropped", "numeric rejection path", "decompose.py",
           "                residuals.append(exc.residual)\n",
           "                pass\n",
           ("tests/test_decompose.py::TestRejectedAttempts",)),
    Mutant("dense-square-unchecked", "resource limits", "decompose.py",
           'f"a dense {n} x {n} array", 8 * n * n)', 'f"a dense {n} x {n} array", 0)',
           ("tests/test_cli.py::TestCheck::test_dense_array_above_limit_exits_2",)),
    Mutant("edge-list-ties-by-hash", "edge-list vertex order", "graphs.py",
           "key=lambda t: (int(t), t)", "key=int",
           ("tests/test_graphs.py::TestParseEdgeList",)),
    # apex_extension no longer checks its distances at build time
    Mutant("apex-joins-one-vertex", "apex distances", "constructions.py",
           "        edges.append((x * s.n + si, apex))\n",
           "        edges.append((x * s.n, apex))\n",
           ("tests/test_constructions.py::TestApexExtension",)),
    Mutant("hom-trace-not-integral", "numeric iso classes", "decompose.py",
           "    return None if abs(trace - dim) > 0.25 else dim\n",
           "    return dim\n",
           ("tests/test_decompose.py",)),
    Mutant("down-cells-forced", "structure report", "graphs.py",
           "    down_ok = all(m == full for m in cells.down[1:])\n",
           "    down_ok = True\n",
           ("tests/test_graphs.py::TestStructureReport",)),
    Mutant("up-blocks-mid-forced", "structure report", "graphs.py",
           "    up_blocks = not any(cells.mid[1:last_up + 1])\n",
           "    up_blocks = True\n",
           ("tests/test_graphs.py::TestStructureReport",)),
    Mutant("mid-runs-contiguous-false", "structure report", "graphs.py",
           "        mid_runs_contiguous=True,\n",
           "        mid_runs_contiguous=False,\n",
           ("tests/test_graphs.py::TestStructureReport",)),
    # the graph6 decoder keeps the string to_graph6 writes and checks the
    # padding itself
    Mutant("graph6-kept-raw", "graph6 decoder", "graphs.py",
           'vars(g)["graph6"] = (_graph6_header(n) + body).decode("ascii")',
           'vars(g)["graph6"] = data.decode("ascii")',
           ("tests/test_graphs.py::TestGraph6",)),
    Mutant("graph6-padding-unchecked", "graph6 decoder", "graphs.py",
           "    if bits.find(1, nbits) >= 0:\n", "    if False:\n",
           ("tests/test_graphs.py::TestGraph6",)),
    # a level projector's diagonal block: the sign flip keeps the
    # nullspace, but not the bytes the QR and SVD see
    Mutant("diagonal-block-sign", "Kronecker stack", "decompose.py",
           "np.subtract(G, G[:, None], out=diagonal)",
           "np.subtract(G[:, None], G, out=diagonal)",
           ("tests/test_decompose.py::TestKroneckerStackInPlace",)),
    # the stack is built column-major, the layout LAPACK factors in place;
    # a row-major one gives the same R after a transposing copy, and holds
    # the stack three times on the way
    Mutant("stack-row-major", "Kronecker stack", "decompose.py",
           "    return columns.reshape(size, -1)\n",
           "    return np.ascontiguousarray(np.ascontiguousarray("
           "columns.reshape(size, -1).T).T)\n",
           ("tests/test_decompose.py::TestKroneckerStackInPlace",)),
    # R reaches the SVD column-major, the transpose of the lower triangle
    # of the factored buffer's leading columns
    Mutant("r-row-major", "Kronecker stack", "decompose.py",
           "    return np.where(np.tri(cols, dtype=bool), a[:, :cols], 0.0).T\n",
           "    return np.ascontiguousarray("
           "np.where(np.tri(cols, dtype=bool), a[:, :cols], 0.0).T)\n",
           ("tests/test_decompose.py::TestNullspaceQr::test_svd_reads_the_r_of_the_qr",)),
    # without the workspace query dgeqrf takes its unblocked path, whose R
    # rounds differently from np.linalg.qr's
    Mutant("qr-workspace-unqueried", "Kronecker stack", "decompose.py",
           "        lwork = _GEQRF_WORKSPACE[shape] = max(1, cols, int(query[0]))\n",
           "        lwork = _GEQRF_WORKSPACE[shape] = cols\n",
           ("tests/test_decompose.py::TestNullspaceQr::test_svd_reads_the_r_of_the_qr",)),
    # the workspace query is made once per shape; a memo that ignores the
    # shape hands a larger stack the first stack's workspace, too small for
    # it (LAPACK's own query gives 32 per column whatever the rows, so a
    # memo keyed on the columns alone is equivalent and no mutant)
    Mutant("qr-workspace-memo-shape-blind", "Kronecker stack", "decompose.py",
           "    shape = rows, cols\n", "    shape = None\n",
           ("tests/test_decompose.py::TestNullspaceQr::test_svd_reads_the_r_of_the_qr",)),
    # a name that holds the stack keeps it alive through the SVD
    Mutant("stack-outlives-qr", "Kronecker stack", "decompose.py",
           "    r = _qr_r_in_place(_commutant_stack(generators))\n",
           "    r = _qr_r_in_place(stack := _commutant_stack(generators))\n",
           ("tests/test_decompose.py::TestKroneckerStackInPlace::test_peak_holds_one_stack",)),
    # a module's invariance residual is the largest over all 2 + ecc
    # generator products; the golden reports hold the residuals
    Mutant("residual-skips-last-level", "decomposition residuals", "decompose.py",
           "for square, scale in zip(row, scales)",
           "for square, scale in zip(row[:-1], scales)",
           ("tests/test_golden.py",)),
    # every piece's residual comes off one stack, a row per piece in the
    # split's order
    Mutant("stacked-residual-misaligned", "decomposition residuals", "decompose.py",
           "            for row in squares.tolist()]\n",
           "            for row in np.roll(squares, -1, axis=0).tolist()]\n",
           ("tests/test_decompose.py::TestStackedSteps::"
            "test_residuals_match_the_norm_of_each_product",)),
    # one bincount reads every piece's level traces, each over bins of its own
    Mutant("level-bins-shared", "numeric level dimensions", "decompose.py",
           "    bins = dist + np.arange(0, width * len(bases), width)[:, None]\n",
           "    bins = dist + np.zeros((len(bases), 1), dtype=np.int64)\n",
           ("tests/test_decompose.py::TestLevelDims",)),
    # the closure of e_x reads levels i - 1, i and i + 1 of a vector on
    # level i; one level fewer under-counts, and the commutant solve it
    # then runs overrules it, so only the solve count shows
    Mutant("closure-skips-level-above", "closure shortcut", "decompose.py",
           "        low, high = max(i - 1, 0), min(i + 1, last)\n",
           "        low, high = max(i - 1, 0), min(i, last)\n",
           ("tests/test_decompose.py::TestScalarCommutant",)),
    # an equitable level partition certifies a reducible V in place of the
    # closure, but only when some level has two vertices, and only when
    # every level's neighbour counts agree; a wrong certificate sends an
    # irreducible V to the solve, which overrules it, so only the closure
    # and solve counts show
    Mutant("certificate-ignores-single-vertex-levels", "closure shortcut",
           "decompose.py",
           "    if n > ops.ecc + 1 and _equitable(adjacency, levels, dist):\n",
           "    if _equitable(adjacency, levels, dist):\n",
           ("tests/test_decompose.py::TestEquitableCertificate",)),
    Mutant("certificate-reads-one-level", "closure shortcut", "decompose.py",
           "    counts = adjacency @ levels.T\n",
           "    counts = adjacency @ levels[:1].T\n",
           ("tests/test_decompose.py::TestEquitableCertificate",)),
    # an analysis without decomposition never imports numpy
    Mutant("report-imports-numpy", "numpy on demand", "report.py",
           "from .exact import LocalOperators\n",
           "from .exact import LocalOperators\nfrom . import decompose as _numeric\n",
           ("tests/test_cli.py::TestCheck::test_check_without_decompose_loads_no_numpy",)),
    # check names the graph's size when memory runs out, with no traceback
    Mutant("memory-error-traceback", "resource limits", "cli.py",
           "    except MemoryError:\n", "    except ZeroDivisionError:\n",
           ("tests/test_cli.py::TestCheck::test_out_of_memory_exits_2",)),
    # the scan's processes: a worker reads its next batch before it sends
    # a result, the merge follows input order, and a worker's error is
    # raised in the parent
    Mutant("worker-sends-before-next-batch", "scan process protocol", "scan.py",
           "            following = conn.recv()\n            conn.send(result)\n",
           "            conn.send(result)\n            following = conn.recv()\n",
           ("tests/test_scan.py::test_big_messages_do_not_deadlock",)),
    Mutant("scan-merge-out-of-order", "scan process protocol", "scan.py",
           "        worker, batch = pending.popleft()\n",
           "        worker, batch = pending.pop()\n",
           ("tests/test_scan.py::test_merge_keeps_input_order",)),
    Mutant("worker-error-dropped", "scan process protocol", "scan.py",
           "                result = exc\n", "                result = []\n",
           ("tests/test_scan.py::test_bad_record_named",)),
    # the scan's structure suite records a failed predicate
    Mutant("structure-problem-dropped", "scan structure suite", "scan.py",
           "    if not s.up_blocks_mid:\n", "    if False:\n",
           ("tests/test_scan.py",)),
)


def check_replacements(mutants) -> list[str]:
    """One message per mutant whose old text does not occur exactly once."""
    errors = []
    for m in mutants:
        count = (ROOT / "src" / "tkit" / m.path).read_text().count(m.old)
        if count != 1:
            errors.append(f"{m.name}: {m.path} holds its text {count} times, "
                          f"expected once")
    return errors


def run_subset(tests, mutant=None) -> tuple[bool, float]:
    """Run a test subset on a fresh copy of src/ and tests/, with mutant
    applied when given; (passed, seconds)."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="tkit-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part, ignore=ignore)
        if mutant is not None:
            target = Path(tmp) / "src" / "tkit" / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 *tests],
                cwd=tmp, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S)
            passed = proc.returncode == 0
        except subprocess.TimeoutExpired:
            passed = False
        return passed, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants")
    parser.add_argument("--acceptance", action="store_true",
                        help="also run criteria 6 and 7 alone on each mutant "
                             "that is not unit-level")
    args = parser.parse_args(argv)

    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        print(f"error: unknown mutants {unknown}", file=sys.stderr)
        return 2
    chosen = [known[name] for name in args.names] or list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.name}\t{m.route}\t{m.path}\t{' '.join(m.tests)}")
        return 0
    errors = check_replacements(chosen)
    if errors:
        print("\n".join(f"error: {e}" for e in errors), file=sys.stderr)
        return 2

    subsets = list(dict.fromkeys(t for m in chosen for t in m.tests))
    if args.acceptance:
        subsets = list(dict.fromkeys(subsets + list(ACCEPTANCE)))
    passed, seconds = run_subset(subsets)
    if not passed:
        print(f"error: the subsets fail on unmutated code ({seconds:.0f} s)",
              file=sys.stderr)
        return 2
    print(f"unmutated subsets pass ({seconds:.0f} s)")
    columns = ["mutant", "route", "file", "subset", "result"]
    columns += ["acceptance alone"] * args.acceptance + ["s"]
    print("| " + " | ".join(columns) + " |")
    print("|---" * len(columns) + "|")
    survivors, ran, missed = 0, 0, []
    for m in chosen:
        passed, seconds = run_subset(m.tests, m)
        survivors += passed
        row = [m.name, m.route, m.path, " ".join(m.tests),
               "SURVIVED" if passed else "killed"]
        if args.acceptance and m.route in UNIT_LEVEL_ROUTES:
            row.append("unit-level")
        elif args.acceptance:
            missed_here, more = run_subset(ACCEPTANCE, m)
            seconds += more
            ran += 1
            missed += [m.name] * missed_here
            row.append("SURVIVED" if missed_here else "killed")
        print("| " + " | ".join(row + [f"{seconds:.0f}"]) + " |", flush=True)
    if args.acceptance:
        print(f"criteria 6 and 7 alone miss {len(missed)} of the {ran} mutants "
              f"they ran on" + (f": {' '.join(missed)}" if missed else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
