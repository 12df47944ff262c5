"""One-stop analysis of a (graph, base vertex) instance and its JSON form.

The report carries both sides of the story: the exact walk-count fits and,
when requested, the numeric module decomposition, together with an
agreement verdict. A MISMATCH agreement means both sides ran and disagree,
which should never happen and fails any scan.
"""
from __future__ import annotations

import importlib
import json
from dataclasses import dataclass
from fractions import Fraction
from types import ModuleType
from typing import TYPE_CHECKING, Any, Optional

from .exact import LocalOperators
from .graphs import Graph, StructureReport, structure_report
from .regularity import (REASON_NOT_THIN, Endpoint1Profile, NotApplicable,
                         PdrProfile, fit_endpoint1, fit_pdr)
from .verdict import FAIL, PASS, VACUOUS, AlgebraicVerdict, algebraic_verdict

if TYPE_CHECKING:
    from .decompose import DecompositionReport

SCHEMA_ID = "tkit-analysis-report/1"

AGREE_PASS = "agree-pass"
AGREE_FAIL = "agree-fail"
AGREE_VACUOUS = "vacuous"
AGREE_NA = "not-applicable"
MISMATCH = "MISMATCH"


@dataclass(frozen=True)
class AnalysisReport:
    graph: Graph
    base: int
    seed: int
    tol: float
    pdr: PdrProfile
    endpoint1: Optional[Endpoint1Profile]
    endpoint1_reason: Optional[str]
    decomposition: Optional[DecompositionReport]
    verdict: Optional[AlgebraicVerdict]
    structure: StructureReport
    agreement: str
    agreement_reason: Optional[str]


def numeric() -> ModuleType:
    """The module tkit.decompose, imported, and numpy with it, on first
    use: an analysis without decomposition never loads numpy."""
    return importlib.import_module(".decompose", __package__)


def decompose(ops: LocalOperators, seed: int = 42,
              tol: float = 1e-9) -> DecompositionReport:
    """tkit.decompose.decompose, called through its module's attribute,
    where a wrapper installed on the module sees it."""
    return numeric().decompose(ops, seed=seed, tol=tol)


def analyze(g: Graph, x: int, *, with_decomposition: bool = False,
            seed: int = 42, tol: float = 1e-9) -> AnalysisReport:
    """Run the full pipeline at one base vertex."""
    return analyze_fitted(fit_pdr(g, x), with_decomposition=with_decomposition,
                          seed=seed, tol=tol)


def analyze_fitted(pdr: PdrProfile, *, with_decomposition: bool = False,
                   seed: int = 42, tol: float = 1e-9) -> AnalysisReport:
    """The pipeline after the ratio fit pdr, on its operators pdr.ops."""
    ops = pdr.ops
    g, x = ops.graph, ops.base
    structure = structure_report(g, x, ops.cells)

    endpoint1: Optional[Endpoint1Profile] = None
    endpoint1_reason: Optional[str] = None
    try:
        endpoint1 = fit_endpoint1(pdr)
    except NotApplicable as exc:
        endpoint1_reason = exc.reason

    decomposition: Optional[DecompositionReport] = None
    verdict: Optional[AlgebraicVerdict] = None
    if with_decomposition:
        decomposition = decompose(ops, seed=seed, tol=tol)
        verdict = algebraic_verdict(decomposition)

    agreement, reason = _agreement(pdr, endpoint1, decomposition, verdict)
    return AnalysisReport(
        graph=g, base=x, seed=seed, tol=tol,
        pdr=pdr, endpoint1=endpoint1, endpoint1_reason=endpoint1_reason,
        decomposition=decomposition, verdict=verdict,
        structure=structure, agreement=agreement, agreement_reason=reason,
    )


def _agreement(pdr: PdrProfile, endpoint1: Optional[Endpoint1Profile],
               decomposition: Optional[DecompositionReport],
               verdict: Optional[AlgebraicVerdict]) -> tuple[str, Optional[str]]:
    degree = pdr.ops.graph.degree(pdr.ops.base)
    if not pdr.ok:
        if decomposition is not None and decomposition.trivial_thin:
            return MISMATCH, "exact fit and decomposition disagree on thinness"
        return AGREE_NA, REASON_NOT_THIN
    if degree < 2:
        if verdict is not None and verdict.status != VACUOUS:
            return MISMATCH, "leaf base must have no endpoint-one modules"
        return AGREE_VACUOUS, None
    # fit_endpoint1 raises only in the cases above; verdict comes with decomposition
    if decomposition is None:
        return AGREE_NA, "decomposition not run"
    if not decomposition.trivial_thin:
        return MISMATCH, "exact fit and decomposition disagree on thinness"
    if verdict.status == PASS and endpoint1.ok:
        return AGREE_PASS, None
    if verdict.status == FAIL and not endpoint1.ok:
        return AGREE_FAIL, verdict.reason
    if verdict.status == VACUOUS:
        return MISMATCH, "no endpoint-one modules at a base of degree >= 2"
    return MISMATCH, (f"combinatorial ok={endpoint1.ok} vs "
                      f"algebraic {verdict.status}")


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _frac(v: Optional[Fraction]) -> Optional[str]:
    return None if v is None else str(v)


def _pdr_dict(p: PdrProfile) -> dict[str, Any]:
    return {
        "ok": p.ok,
        "alpha": [_frac(a) for a in p.alpha],
        "beta": [_frac(b) for b in p.beta],
        "witness": None if p.witness is None else {
            "level": p.witness.level,
            "vertex": p.witness.vertex,
            "equation": p.witness.equation,
        },
    }


def _endpoint1_dict(profile: Optional[Endpoint1Profile],
                    reason: Optional[str]) -> dict[str, Any]:
    if profile is None:
        return {"applicable": False, "reason": reason}
    return {
        "applicable": True,
        "ok": profile.ok,
        "levels": [{
            "level": lv.level,
            "kappa": _frac(lv.kappa),
            "mu": _frac(lv.mu),
            "theta": _frac(lv.theta),
            "rho": _frac(lv.rho),
            "consistent": lv.consistent,
            "up_cell_nonempty": lv.up_cell_nonempty,
            "rho_forced_zero": lv.rho_forced_zero,
        } for lv in profile.levels],
        "witness": None if profile.witness is None else {
            "level": profile.witness.level,
            "y": profile.witness.y,
            "z": profile.witness.z,
            "equation": profile.witness.equation,
        },
    }


def _decomposition_dict(rep: Optional[DecompositionReport],
                        verdict: Optional[AlgebraicVerdict],
                        include_bases: bool) -> Optional[dict[str, Any]]:
    if rep is None:
        return None
    modules = []
    for m in rep.modules:
        entry: dict[str, Any] = {
            "endpoint": m.endpoint,
            "diameter": m.diameter,
            "dim": m.dim,
            "level_dims": list(m.level_dims),
            "thin": m.thin,
            "iso_class": m.iso_class,
            "residual": m.residual,
        }
        if include_bases:
            entry["basis"] = [[float(v) for v in row] for row in m.subspace.basis]
        modules.append(entry)
    return {
        "modules": modules,
        "trivial_index": rep.trivial_index,
        "trivial_thin": rep.trivial_thin,
        "endpoint1_count": rep.endpoint1_count,
        "endpoint1_iso_classes": rep.endpoint1_iso_classes,
        "endpoint1_all_thin": rep.endpoint1_all_thin,
        "total_dim": rep.total_dim,
        "seed": rep.seed,
        "tol": rep.tol,
        "rank_flag": rep.rank_flag,
        "notes": list(rep.notes),
        "verdict": None if verdict is None else {
            "status": verdict.status,
            "reason": verdict.reason,
        },
    }


def _structure_dict(s: StructureReport, g: Graph) -> dict[str, Any]:
    return {
        "vacuous": s.vacuous,
        "ecc": s.ecc,
        "is_tree": s.is_tree,
        "per_neighbor": [{
            "y": g.labels[rec.y],
            "threshold": rec.threshold,
            "up_nonempty": list(rec.up_nonempty),
            "mid_nonempty": list(rec.mid_nonempty),
            "down_nonempty": list(rec.down_nonempty),
        } for rec in s.per_neighbor],
        "down_cells_all_nonempty": s.down_cells_all_nonempty,
        "up_blocks_mid": s.up_blocks_mid,
        "mid_runs_contiguous": s.mid_runs_contiguous,
        "thresholds_defined": s.thresholds_defined,
        "threshold_constant": s.threshold_constant,
    }


def report_to_dict(r: AnalysisReport, include_bases: bool = False) -> dict[str, Any]:
    g = r.graph
    return {
        "schema": SCHEMA_ID,
        "graph": {"n": g.n, "m": g.edge_count, "graph6": g.graph6},
        "base": {
            "label": g.labels[r.base],
            "index": r.base,
            "degree": g.degree(r.base),
        },
        "seed": r.seed,
        "tol": r.tol,
        "pdr": _pdr_dict(r.pdr),
        "endpoint1": _endpoint1_dict(r.endpoint1, r.endpoint1_reason),
        "decomposition": _decomposition_dict(r.decomposition, r.verdict, include_bases),
        "structure": _structure_dict(r.structure, g),
        "agreement": r.agreement,
        "agreement_reason": r.agreement_reason,
    }


# report_to_dict builds a fresh tree in which no container is shared, so
# the encoder skips the check for circular references
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            check_circular=False)


def report_to_json(r: AnalysisReport, include_bases: bool = False) -> str:
    """Canonical single-line JSON: sorted keys, no whitespace. Identical
    inputs and seed yield byte-identical output."""
    return _ENCODER.encode(report_to_dict(r, include_bases))
