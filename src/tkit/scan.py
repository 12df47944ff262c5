"""Corpus cross-validation: exact endpoint-one fit versus numeric verdict.

Every (graph, base vertex) instance with base degree at least 2 and a thin
trivial module is analyzed on both sides; any disagreement is a MISMATCH
and carries a full report. Instances that pass both sides also get one
suite of structural cell predicates checked (_structure_problems). A check
whose outcome a passing instance already fixes is not made; each proof is
a comment at its site:
- the restricted-block dimensions dim E*_i T E*_1 are at most 2 on levels
  1..d'+1 and 1 above, read off a PASS decomposition (_outcome). The
  summary key dim_bound_violations stays, always 0, until the next schema
  change;
- every downward cell is nonempty, since the ratio fit holds
  (_structure_problems);
- the nonempty mid cells above a neighbour's threshold are contiguous
  (graphs.structure_report);
- a tree's thresholds equal its eccentricity (_structure_problems).

Most bases are not thin: of the 138 384 bases of degree at least 2 in
the n = 6 corpus, 96.1 % are not. So the thinness of every base of a
batch is decided at once (_batch_bases): the batch's records of each
size n <= BATCH_MAX_N are decoded into one (B, n, n) integer array, and
regularity.thin_bases runs every base's search and ratio test as integer
array products: about 5 us a record at n = 6 in batches of 64, against
about 29 us for parse_graph6 and fit_pdr at every base (two cores,
Python 3.11). Only a thin base runs fit_pdr, which must find it thin too,
or the instance is a MISMATCH, and only a record with a thin base is
parsed into a Graph. Every SELF_CHECK_EVERY-th record, by its number in
the corpus, runs fit_pdr on every base, so the bases the pass calls not
thin keep a second route, whatever the job count. A record the pass does
not decide, with n > BATCH_MAX_N or another header, a bad byte or nonzero
padding, or a disconnected graph, and every record of a group whose
cross-products could overflow int64, takes the per-record path:
parse_graph6 raises its message, and the fit runs at every base of
degree at least 2 after that base's breadth-first search
(regularity.PdrProfile), whose operators a thin base's analysis reads.
The first such search proves the graph connected, or raises; a graph
without a base of degree at least 2 is searched from vertex 0 alone.

What an instance yields depends only on its rooted graph, so each rooted
isomorphism class is analyzed once per scan process and scan_corpus call.
A class cache, keyed by graphs.rooted_key, keeps the outcome of the first
agreeing instance of each class: its agreement, its structure problems
and its varying-threshold flag. Later instances of the class replay it,
each record carrying their own graph6 and base label. A MISMATCH is never
stored, so every instance of a mismatching class is analyzed and reported
as `check` reports it. About 1 % of the hits, those whose instance seed is
divisible by SELF_CHECK_EVERY, are analyzed again and compared with the
stored outcome; a difference is a MISMATCH that names the cache. A scan
runs in N processes, the parent and N - 1 forked workers, and each of the
N holds one class cache for the call, with one entry per distinct thin
rooted class that process meets. The key costs one refinement per node
of its search, a median of 50 to 70 us an instance at n = 6 against about
0.56 ms for the analysis of a thin n = 6 class (median over the 33
classes, each analysed repeatedly; two cores, Python 3.11); symmetric
graphs without twins explore more leaves (see graphs.rooted_key). The
cache lives for one call, so a short corpus pays for the analysis of
every class it meets: in a chunk of 128 n = 6 graphs, the decompositions
of about 14 classes take about 61 % of the scan's time.

The corpus of `scan --generate n`, generate_connected_graph6(n), builds
no graph: records come off edge masks, and connectivity off a table of
2^((n-1)(n-2)/2) component partitions, 2^15 at n = 7, where the
1 866 256 records take about 1 s in the parent process, against about
40 s for building and searching every graph (two cores, Python 3.11).
The CLI stops at n = 7, since n = 8 has 2^28 masks.
"""
from __future__ import annotations

import multiprocessing
import os
import zlib
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import compress, islice
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, Sequence

# generate_connected_graph6 is re-exported for callers that import the
# corpus with the scan
from .graphs import (GraphError, StructureReport, generate_connected_graph6,
                     local_metric, parse_graph6, rooted_key)
from .regularity import fit_pdr, thin_bases
from .report import (AGREE_FAIL, AGREE_PASS, MISMATCH, AnalysisReport,
                     analyze_fitted, numeric, report_to_dict)

CATEGORY_KEYS = ("agree-pass", "agree-fail", "skipped-not-thin", "vacuous")

# A cache hit whose instance seed is divisible by this is analyzed again
SELF_CHECK_EVERY = 100
CACHE_MISMATCH = "outcome differs from the cached outcome of its rooted class"
THIN_MISMATCH = "ratio fit and batch thinness test disagree"

# Graphs between two progress calls of scan_corpus
PROGRESS_EVERY = 2000

# Records per batch dealt to a scan process
BATCH_RECORDS = 64

# The batch thinness pass takes records of at most this many vertices. Each
# level of its search is a dense (B, n, n) product, so for a sparse graph
# it gains less as n grows than the graph's own searches: for 64 copies of
# one graph, parse_graph6 and fit_pdr at every base of degree >= 2 take
# 11 to 17 ms against 5.9 ms for the pass at path:16, 16.5 against 14 ms
# at path:20 and 39 against 66 ms at path:32 (medians; two cores, Python
# 3.11)
BATCH_MAX_N = 16

# Workers are forked, so they start with the parent's modules loaded (a
# spawned worker would import the package afresh). multiprocessing's
# connection module is imported on the first fork, not here
_FORK = multiprocessing.get_context("fork")

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

    import numpy as np

    # A scan worker: the parent's end of its pipe, and its process
    Worker = tuple[Connection, BaseProcess]


@dataclass
class ScanSummary:
    graphs: int = 0
    instances: int = 0
    counts: dict[str, int] = field(
        default_factory=lambda: {key: 0 for key in CATEGORY_KEYS})
    mismatches: list[dict[str, Any]] = field(default_factory=list)
    structure_violations: list[dict[str, Any]] = field(default_factory=list)
    # passing instances whose per-neighbor threshold is not constant; an
    # open question is probed here, so these are collected, never asserted
    varying_thresholds: list[dict[str, Any]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.mismatches or self.structure_violations)

    def to_dict(self) -> dict[str, Any]:
        return {
            "graphs": self.graphs,
            "instances": self.instances,
            "counts": dict(self.counts),
            "mismatch_count": len(self.mismatches),
            # always 0: the bounds are not checked (see _outcome)
            "dim_bound_violations": 0,
            "structure_violations": len(self.structure_violations),
            "varying_threshold_count": len(self.varying_thresholds),
        }


@dataclass(frozen=True)
class Outcome:
    """What an agreeing instance yields, apart from its graph6 and base
    label: a property of its rooted class, kept in the class cache."""

    agreement: str
    problems: tuple[str, ...]
    varying: bool


# rooted_key of a class -> the Outcome of its first agreeing instance
ClassCache = dict[tuple[int, ...], Outcome]


def instance_seed(base_seed: int, graph6: str, vertex: int) -> int:
    """Stable per-instance seed so scans are reproducible at any job count."""
    return (base_seed << 32) ^ zlib.crc32(f"{graph6}:{vertex}".encode())


def _structure_problems(s: StructureReport) -> tuple[list[str], bool]:
    # every downward cell is nonempty once the ratio fit holds: if the first
    # vertex of a level i < ecc had no neighbour one level up, the fit
    # would give every vertex of level i none, and level i + 1 would be
    # empty. So from every neighbour y = z_1 a path z_1, ..., z_i climbs to
    # each level 1 <= i <= ecc, and d(y, z_i) = i - 1 puts z_i in y's
    # downward cell on level i
    problems = []
    if not s.up_blocks_mid:
        problems.append("nonempty upward cell coexists with a mid cell below it")
    if not s.thresholds_defined:
        problems.append("threshold pattern undefined for some neighbor")
    # a tree's thresholds all equal its eccentricity on a passing instance:
    # its trivial module is thin, so with one geodesic to each vertex the
    # ratio fit gives every vertex of a level the same number of children
    # and every branch reaches the eccentricity. A tree has no mid cell,
    # and with deg(x) >= 2 every neighbour's up cells on levels 1..ecc hold
    # the other branches, so every threshold is ecc
    if any(rec.mid_nonempty[1] for rec in s.per_neighbor if len(rec.mid_nonempty) > 1):
        if any(rec.threshold != 0 for rec in s.per_neighbor):
            problems.append("nonempty level-1 mid cell but nonzero threshold")
    return problems, s.threshold_constant is False


def scan_graph(graph6: str, seed: int = 42, tol: float = 1e-9,
               cache: Optional[ClassCache] = None,
               bases: Optional[tuple[Sequence[int], Sequence[bool]]] = None,
               confirm_all: bool = False) -> dict[str, Any]:
    """Cross-validate every base vertex of one graph6-encoded graph.

    cache maps the rooted_key of each class analyzed before to its
    Outcome, and gains the classes analyzed here; without one, a cache
    serves this graph only.

    bases, when given, is the degree and the thin flag of each base of a
    connected record that parse_graph6 writes back unchanged, from the
    batch pass (_batch_bases). The record is then parsed only to fit its
    thin bases, or every base of degree at least 2 when confirm_all, and
    a base whose ratio fit disagrees with its flag is a MISMATCH. Without
    bases, every base of degree at least 2 is fitted, and the graph's
    connectivity is proven here.
    """
    g = None
    if bases is None:
        g = parse_graph6(graph6)
        graph6, degrees, thin = g.graph6, list(map(len, g.adj)), None
        # the first base of degree >= 2 runs local_metric, which raises on
        # a disconnected graph; only a graph without one needs a search here
        if max(degrees) < 2:
            local_metric(g, 0)
    else:
        degrees, thin = bases
    if cache is None:
        cache = {}
    counts = {key: 0 for key in CATEGORY_KEYS}
    out: dict[str, Any] = {
        "graph6": graph6,
        "counts": counts,
        "instances": len(degrees),
        "mismatches": [],
        # always empty (see _outcome); perfbench/make_expected.py reads it
        "dim_bound_violations": [],
        "structure_violations": [],
        "varying_thresholds": [],
    }
    for x, degree in enumerate(degrees):
        if degree < 2:
            counts["vacuous"] += 1
            continue
        if thin is not None and not (thin[x] or confirm_all):
            counts["skipped-not-thin"] += 1
            continue
        if g is None:
            g = parse_graph6(graph6)
        pdr = fit_pdr(g, x)
        seed_x = instance_seed(seed, graph6, x)
        if thin is not None and pdr.ok != thin[x]:
            report = analyze_fitted(pdr.ops, pdr, seed=seed_x, tol=tol)
            out["mismatches"].append(report_to_dict(replace(
                report, agreement=MISMATCH, agreement_reason=THIN_MISMATCH)))
            continue
        if not pdr.ok:
            counts["skipped-not-thin"] += 1
            continue
        ops = pdr.ops
        key = rooted_key(g, ops.metric)
        stored = cache.get(key)
        if stored is None or seed_x % SELF_CHECK_EVERY == 0:
            report = analyze_fitted(ops, pdr, with_decomposition=True,
                                    seed=seed_x, tol=tol)
            if report.agreement not in (AGREE_PASS, AGREE_FAIL):
                out["mismatches"].append(report_to_dict(report))
                continue
            outcome = _outcome(report)
            if stored is None:
                cache[key] = outcome
            elif outcome != stored:
                out["mismatches"].append(report_to_dict(replace(
                    report, agreement=MISMATCH, agreement_reason=CACHE_MISMATCH)))
                continue
        else:
            outcome = stored
        counts[outcome.agreement] += 1
        _emit(outcome, out, g.labels[x])
    return out


def _outcome(report: AnalysisReport) -> Outcome:
    """An agreeing report's outcome; a passing one also gets the structure
    predicates checked."""
    if report.agreement != AGREE_PASS:
        return Outcome(report.agreement, (), False)
    # no bound is checked on dim E*_i T E*_1 = sum_W dim(E*_i W) dim(E*_1 W)
    # over the iso classes W, since a PASS fixes it: decompose keeps one
    # endpoint-0 module, which is thin; the endpoint-one modules form one
    # thin class on the contiguous levels 1..1+d'; every other class has
    # dim(E*_1 W) = 0. So the sum is at most 1 + [i <= d' + 1]
    problems, varying = _structure_problems(report.structure)
    return Outcome(AGREE_PASS, tuple(problems), varying)


def _emit(outcome: Outcome, out: dict[str, Any], base: str) -> None:
    """An outcome's records, for the instance at this base of out's graph."""
    for problem in outcome.problems:
        out["structure_violations"].append({
            "graph6": out["graph6"], "base": base, "problem": problem,
        })
    if outcome.varying:
        out["varying_thresholds"].append({"graph6": out["graph6"], "base": base})


def _scan_batch(first: int, lines: list[str], seed: int, tol: float,
                cache: ClassCache) -> list[dict[str, Any]]:
    """The results of a batch of records numbered from first. Every
    SELF_CHECK_EVERY-th record fits all its bases, the batch pass's
    second route on the bases it finds not thin."""
    out = []
    for record, (graph6, bases) in enumerate(zip(lines, _batch_bases(lines)),
                                             start=first):
        try:
            out.append(scan_graph(graph6, seed=seed, tol=tol, cache=cache, bases=bases,
                                  confirm_all=record % SELF_CHECK_EVERY == 0))
        except GraphError as exc:
            raise GraphError(f"record {record} ({graph6}): {exc}") from None
    return out


def _batch_bases(lines: list[str]) -> list[Optional[tuple[list[int], list[bool]]]]:
    """The degree and the thin flag of each base of each record, from one
    pass of regularity.thin_bases over the records of each vertex count,
    or None for a record left to parse_graph6: one that is not ASCII, has
    n > BATCH_MAX_N or another header, a bad length, a bad byte or nonzero
    padding, or is disconnected, and every record of a group whose
    products could overflow."""
    bases: list[Optional[tuple[list[int], list[bool]]]] = [None] * len(lines)
    groups: dict[int, list[int]] = {}
    for k, record in enumerate(lines):
        n = ord(record[0]) - 63 if record else 0
        if (1 <= n <= BATCH_MAX_N and len(record) == 1 + (n * (n - 1) // 2 + 5) // 6
                and record.isascii()):
            groups.setdefault(n, []).append(k)
    for n, members in groups.items():
        valid, stack = _graph6_stack([lines[k] for k in members], n)
        found = thin_bases(stack) if len(stack) else None
        if found is None:
            continue
        degrees, thin, connected = (a.tolist() for a in found)
        for k, degree_row, thin_row, whole in zip(compress(members, valid.tolist()),
                                                  degrees, thin, connected):
            if whole:
                bases[k] = degree_row, thin_row
    return bases


def _graph6_stack(records: list[str], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(valid, stack) of ASCII graph6 records, each a one-byte header of
    1 <= n <= 62 vertices and a body of the length it sets: valid flags
    the records whose body bytes are in range and whose padding bits are
    zero, those parse_graph6 accepts and writes back unchanged, and stack
    holds their (valid.sum(), n, n) 0/1 int64 adjacency matrices."""
    import numpy as np
    raw = np.frombuffer("".join(records).encode("ascii"), dtype=np.uint8)
    digits = raw.reshape(len(records), -1)[:, 1:] - np.uint8(63)
    # each digit's six bits, high first, are the low six of its byte
    bits = np.unpackbits(digits[..., None], axis=2)[..., 2:].reshape(
        len(records), 6 * digits.shape[1])
    nbits = n * (n - 1) // 2
    valid = (digits < 64).all(axis=1) & ~bits[:, nbits:].any(axis=1)
    # the body lists the pairs row < col column by column, the pairs
    # col > row of the lower triangle row by row
    cols, rows = np.tril_indices(n, -1)
    stack = np.zeros((int(valid.sum()), n, n), dtype=np.int64)
    stack[:, rows, cols] = stack[:, cols, rows] = bits[valid, :nbits]
    return valid, stack


def _batches(graph6_lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """(first record number, records) of each run of BATCH_RECORDS records."""
    lines = iter(graph6_lines)
    first = 1
    while batch := list(islice(lines, BATCH_RECORDS)):
        yield first, batch
        first += len(batch)


def _scan_worker(conn: Connection, inherited: tuple[Connection, ...],
                 seed: int, tol: float) -> None:
    """A forked worker: scan each batch dealt on conn with a class cache of
    its own, and send back its results, or the exception it raised, once
    the next batch or the end marker None has arrived."""
    # the parent's ends: once the parent is gone, conn reads EOF
    for end in inherited:
        end.close()
    cache: ClassCache = {}
    try:
        batch = conn.recv()
        while batch is not None:
            try:
                result: Any = _scan_batch(*batch, seed, tol, cache)
            except Exception as exc:
                result = exc
            following = conn.recv()
            conn.send(result)
            batch = following
    except (EOFError, OSError, KeyboardInterrupt):
        pass   # the parent is gone or interrupted


def resolve_jobs(jobs: Optional[int]) -> int:
    """Scan process count: jobs when positive, else a positive integer
    TK_JOBS, else every core; never more than os.cpu_count()."""
    cores = os.cpu_count() or 1
    if jobs is None or jobs <= 0:
        try:
            jobs = int(os.environ.get("TK_JOBS", ""))
        except ValueError:
            jobs = 0
    return min(jobs, cores) if jobs > 0 else cores


def scan_corpus(graph6_lines: Iterable[str], *, jobs: Optional[int] = None,
                seed: int = 42, tol: float = 1e-9,
                progress: Optional[Any] = None) -> ScanSummary:
    """Scan a stream of graph6 records in N = resolve_jobs(jobs) processes,
    the parent and N - 1 forked workers, merged in input order, so the
    summary is independent of the job count. Each of the N processes holds
    one class cache for this call. progress, when given, is called with the
    number of graphs merged every PROGRESS_EVERY graphs. A malformed or
    disconnected record raises GraphError naming its 1-based record number;
    of several, the first in input order. A worker that dies raises
    RuntimeError. Whatever is raised, every worker is stopped and joined
    before it propagates."""
    jobs = resolve_jobs(jobs)
    summary = ScanSummary()
    workers: list[Worker] = []
    if jobs > 1:
        # the workers decompose too; forked with the numeric side loaded,
        # they do not each import numpy
        numeric()
    try:
        for _ in range(jobs - 1):
            ours, theirs = _FORK.Pipe()
            inherited = tuple(conn for conn, _ in workers) + (ours,)
            proc = _FORK.Process(target=_scan_worker, daemon=True,
                                 args=(theirs, inherited, seed, tol))
            proc.start()
            workers.append((ours, proc))
            theirs.close()
        _merge(summary, _results(_batches(graph6_lines), workers, seed, tol),
               progress)
    except BaseException:
        for _, proc in workers:
            proc.terminate()
        raise
    finally:
        for conn, proc in workers:
            conn.close()
            proc.join()
    return summary


def _results(batches: Iterator[tuple[int, list[str]]],
             workers: list[Worker], seed: int,
             tol: float) -> Iterator[dict[str, Any]]:
    """The per-graph results of the batches, in input order.

    Batch k goes to process k mod N, the parent first, which scans its
    batches itself when the merge reaches them. The parent deals each
    worker two items, batches or the end marker, at the start, and one
    more right after each result it receives from it. So a worker holds
    its next item before it sends a result, and neither side blocks in a
    send while the other does, whatever the message sizes."""
    cache: ClassCache = {}
    # (its worker, None for the parent; batch) of each batch dealt and not
    # yet merged, in input order
    pending: deque[tuple[Optional[Worker], tuple[int, list[str]]]] = deque()
    ended: set[Worker] = set()    # the workers sent the end marker

    def deal(worker: Optional[Worker]) -> None:
        batch = next(batches, None)
        if batch is not None:
            pending.append((worker, batch))
        if worker is not None and worker not in ended:
            try:
                worker[0].send(batch)
            except OSError:
                raise _died(worker) from None
            if batch is None:
                ended.add(worker)

    for _ in range(2):
        for worker in [None, *workers]:
            deal(worker)
    while pending:
        worker, batch = pending.popleft()
        if worker is None:
            results = _scan_batch(*batch, seed, tol, cache)
        else:
            try:
                results = worker[0].recv()
            except (EOFError, OSError):
                raise _died(worker) from None
            if isinstance(results, Exception):
                raise results
        deal(worker)
        yield from results


def _died(worker: Worker) -> RuntimeError:
    proc = worker[1]
    return RuntimeError(f"scan worker {proc.name} (pid {proc.pid}) died")


def _merge(summary: ScanSummary, results: Iterator[dict[str, Any]],
           progress: Optional[Any]) -> None:
    for res in results:
        summary.graphs += 1
        summary.instances += res["instances"]
        for key in CATEGORY_KEYS:
            summary.counts[key] += res["counts"][key]
        summary.mismatches.extend(res["mismatches"])
        summary.structure_violations.extend(res["structure_violations"])
        summary.varying_thresholds.extend(res["varying_thresholds"])
        if progress is not None and summary.graphs % PROGRESS_EVERY == 0:
            progress(summary.graphs)
