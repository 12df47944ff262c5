"""Mutation runner: does a named test subset notice a broken route?

Each mutant is one literal replacement in one file of src/tkit, together
with the test subset that should fail on it. The runner copies src/ and
tests/ into a temporary directory (tests/conftest.py puts the sibling
src/ first on sys.path, so the copy tests the copied package), applies the
mutant there, runs its subset with `pytest -x -q` and reports the mutant
killed when the subset fails, survived when it passes. The checkout is
never modified. Before the mutants, the union of their subsets runs on an
unmutated copy and must pass.

A replacement whose text does not occur exactly once in its file is an
error, reported before anything runs.

    python tests/mutants.py            # every mutant, one at a time
    python tests/mutants.py NAME ...   # the named mutants
    python tests/mutants.py --list     # names, routes and subsets

Exit status 0 when every selected mutant is killed, 1 when one survives
and 2 on an error. Standard library only; pytest does not collect this
file.
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
           "                    out[w] += c\n", "                    out[w] = c\n",
           ("tests/test_exact.py",)),
    Mutant("enumeration-lowers-as-raise", "matrix vs enumeration", "exact.py",
           "        want = dist[v] + steps[k]\n",
           "        want = dist[v] + abs(steps[k])\n",
           ("tests/test_exact.py",)),
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
    Mutant("verdict-allows-two-classes", "exact vs numeric", "decompose.py",
           "    if report.endpoint1_iso_classes > 1:\n",
           "    if report.endpoint1_iso_classes > 2:\n",
           (CROSS_VALIDATION,)),
    # the scan never decomposes a base whose ratio fit fails, and no FAIL
    # of the n <= 6 scans rests on a non-thin endpoint-one module alone, so
    # the cross-validation misses this one; a non-thin base catches it
    Mutant("numeric-thin-up-to-two", "exact vs numeric", "decompose.py",
           "            thin=all(dim <= 1 for dim in dims),\n",
           "            thin=all(dim <= 2 for dim in dims),\n",
           ("tests/test_report.py::TestAgreementMismatch",)),
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
           "            if k > 1 and not _irreducible(basis, comm, notes):\n",
           "            if False:\n",
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
           "(G[None, :] - G[:, None])", "(G[:, None] - G[None, :])",
           ("tests/test_decompose.py::TestKroneckerStackInPlace",)),
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
    passed, seconds = run_subset(subsets)
    if not passed:
        print(f"error: the subsets fail on unmutated code ({seconds:.0f} s)",
              file=sys.stderr)
        return 2
    print(f"unmutated subsets pass ({seconds:.0f} s)")
    print("| mutant | route | file | subset | result | s |")
    print("|---|---|---|---|---|---|")
    survivors = 0
    for m in chosen:
        passed, seconds = run_subset(m.tests, m)
        survivors += passed
        print(f"| {m.name} | {m.route} | {m.path} | {' '.join(m.tests)} | "
              f"{'SURVIVED' if passed else 'killed'} | {seconds:.0f} |", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
