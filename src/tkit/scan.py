"""Corpus cross-validation: exact endpoint-one fit versus numeric verdict.

Every (graph, base vertex) instance with base degree at least 2 and a thin
trivial module is analyzed on both sides; any disagreement is a MISMATCH
and carries a full report. Instances that pass both sides also get the
structural cell predicates and the restricted-block dimension bounds
checked, so a clean scan certifies the whole property suite on the corpus.
"""
from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Any, Iterable, Iterator, Optional

from .decompose import dual_block_dims
from .exact import build_operators
from .graphs import (GraphError, StructureReport, connected_graphs,
                     parse_graph6, to_graph6)
from .regularity import fit_pdr
from .report import (AGREE_FAIL, AGREE_PASS, AnalysisReport, analyze_fitted,
                     report_to_dict)

CATEGORY_KEYS = ("agree-pass", "agree-fail", "skipped-not-thin", "vacuous")


@dataclass
class ScanSummary:
    graphs: int = 0
    instances: int = 0
    counts: dict[str, int] = field(
        default_factory=lambda: {key: 0 for key in CATEGORY_KEYS})
    mismatches: list[dict[str, Any]] = field(default_factory=list)
    dim_bound_violations: list[dict[str, Any]] = field(default_factory=list)
    structure_violations: list[dict[str, Any]] = field(default_factory=list)
    # passing instances whose per-neighbor threshold is not constant; an
    # open question is probed here, so these are collected, never asserted
    varying_thresholds: list[dict[str, Any]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.mismatches or self.dim_bound_violations
                    or self.structure_violations)

    def to_dict(self) -> dict[str, Any]:
        return {
            "graphs": self.graphs,
            "instances": self.instances,
            "counts": dict(self.counts),
            "mismatch_count": len(self.mismatches),
            "dim_bound_violations": len(self.dim_bound_violations),
            "structure_violations": len(self.structure_violations),
            "varying_threshold_count": len(self.varying_thresholds),
        }


def instance_seed(base_seed: int, graph6: str, vertex: int) -> int:
    """Stable per-instance seed so scans are reproducible at any job count."""
    return (base_seed << 32) ^ zlib.crc32(f"{graph6}:{vertex}".encode())


def _structure_problems(s: StructureReport) -> tuple[list[str], bool]:
    problems = []
    if not s.down_cells_all_nonempty:
        problems.append("empty downward cell")
    if not s.up_blocks_mid:
        problems.append("nonempty upward cell coexists with a mid cell below it")
    if not s.thresholds_defined:
        problems.append("threshold pattern undefined for some neighbor")
    if not s.mid_runs_contiguous:
        problems.append("mid cells not contiguous above the threshold")
    if s.is_tree and any(rec.threshold != s.ecc for rec in s.per_neighbor):
        problems.append("tree threshold differs from eccentricity")
    if any(rec.mid_nonempty[1] for rec in s.per_neighbor if len(rec.mid_nonempty) > 1):
        if any(rec.threshold != 0 for rec in s.per_neighbor):
            problems.append("nonempty level-1 mid cell but nonzero threshold")
    return problems, s.threshold_constant is False


def scan_graph(graph6: str, seed: int = 42, tol: float = 1e-9) -> dict[str, Any]:
    """Cross-validate every base vertex of one graph6-encoded graph."""
    g = parse_graph6(graph6)
    if not g.is_connected():
        raise GraphError("graph is disconnected")
    out: dict[str, Any] = {
        "graph6": to_graph6(g),
        "counts": {key: 0 for key in CATEGORY_KEYS},
        "instances": 0,
        "mismatches": [],
        "dim_bound_violations": [],
        "structure_violations": [],
        "varying_thresholds": [],
    }
    for x in range(g.n):
        out["instances"] += 1
        if g.degree(x) < 2:
            out["counts"]["vacuous"] += 1
            continue
        ops = build_operators(g, x)
        pdr = fit_pdr(ops)
        if not pdr.ok:
            out["counts"]["skipped-not-thin"] += 1
            continue
        report = analyze_fitted(ops, pdr, with_decomposition=True,
                                seed=instance_seed(seed, out["graph6"], x), tol=tol)
        if report.agreement == AGREE_PASS:
            out["counts"]["agree-pass"] += 1
            _deep_checks(report, out)
        elif report.agreement == AGREE_FAIL:
            out["counts"]["agree-fail"] += 1
        else:
            out["mismatches"].append(report_to_dict(report))
    return out


def _deep_checks(report: AnalysisReport, out: dict[str, Any]) -> None:
    rep = report.decomposition
    base = report.graph.labels[report.base]
    d_prime = max(m.diameter for m in rep.endpoint1_modules())
    for i, dim in enumerate(dual_block_dims(rep), start=1):
        bound = 2 if i <= d_prime + 1 else 1
        if dim > bound:
            out["dim_bound_violations"].append({
                "graph6": out["graph6"], "base": base, "level": i,
                "dim": dim, "bound": bound,
            })
    problems, varying = _structure_problems(report.structure)
    for problem in problems:
        out["structure_violations"].append({
            "graph6": out["graph6"], "base": base, "problem": problem,
        })
    if varying:
        out["varying_thresholds"].append({"graph6": out["graph6"], "base": base})


def _worker(args: tuple[int, str, int, float]) -> dict[str, Any]:
    record, graph6, seed, tol = args
    try:
        return scan_graph(graph6, seed=seed, tol=tol)
    except GraphError as exc:
        raise GraphError(f"record {record} ({graph6}): {exc}") from None


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker process count: jobs when positive, else a positive integer
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
    """Scan a stream of graph6 records. Work is distributed over processes
    but merged in input order, so the summary is independent of the job
    count. A malformed or disconnected record raises GraphError naming its
    1-based record number."""
    jobs = resolve_jobs(jobs)
    summary = ScanSummary()
    work = ((record, line, seed, tol)
            for record, line in enumerate(graph6_lines, start=1))
    if jobs == 1:
        results: Iterator[dict[str, Any]] = map(_worker, work)
        _merge(summary, results, progress)
    else:
        with Pool(jobs) as pool:
            results = pool.imap(_worker, work, chunksize=64)
            _merge(summary, results, progress)
    return summary


def _merge(summary: ScanSummary, results: Iterator[dict[str, Any]],
           progress: Optional[Any]) -> None:
    for res in results:
        summary.graphs += 1
        summary.instances += res["instances"]
        for key in CATEGORY_KEYS:
            summary.counts[key] += res["counts"][key]
        summary.mismatches.extend(res["mismatches"])
        summary.dim_bound_violations.extend(res["dim_bound_violations"])
        summary.structure_violations.extend(res["structure_violations"])
        summary.varying_thresholds.extend(res["varying_thresholds"])
        if progress is not None and summary.graphs % 2000 == 0:
            progress(summary.graphs)


def generate_connected_graph6(n: int) -> Iterator[str]:
    """graph6 records of every connected labeled graph on n vertices."""
    for g in connected_graphs(n):
        yield to_graph6(g)
