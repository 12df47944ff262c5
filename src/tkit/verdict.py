"""The numeric side's verdict and its error, without numpy.

decompose.py reaches its verdict with numpy; this module holds what the
rest of the package reads of it: the verdict constants, AlgebraicVerdict,
algebraic_verdict on a finished report and DecompositionError. So the
exact side, the reports and the command line import numpy only when a
decomposition is run.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from .decompose import DecompositionReport

PASS = "PASS"
FAIL = "FAIL"
VACUOUS = "VACUOUS"
NOT_APPLICABLE = "NOT_APPLICABLE"


class DecompositionError(RuntimeError):
    """Splitting or verification kept failing across reseeded attempts, the
    commutant solve kept no element at the cutoff, or the Kronecker stack
    would exceed MAX_DENSE_BYTES."""

    def __init__(self, message: str, residuals: Sequence[float] = ()):
        super().__init__(message)
        self.residuals = tuple(residuals)


@dataclass(frozen=True)
class AlgebraicVerdict:
    status: str
    reason: Optional[str] = None


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
