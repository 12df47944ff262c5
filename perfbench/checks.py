"""Output checks for the benchmark's CLI calls.

A scan chunk's stdout must equal, byte for byte, the summary line built
from `expected/scan_n6.tsv`, which lists every connected labelled 6-vertex
graph that has agree-pass or agree-fail instances or a varying threshold.
Every other graph of the corpus contributes only vacuous and
skipped-not-thin instances, and the whole corpus has no mismatch and no
violation, so the expected summary of any sample follows. The check
therefore holds for every workload seed, at any job count.

A check call's stdout must have no MISMATCH, every module residual must
be within the program's own bound 1e3 * tol, and repeated calls on the
same input must print the same report. For the seed whose outputs are
stored in `expected/`, the report must also equal the stored one. Module
residuals are compared against the bound only, not byte by byte: their
last digits depend on the BLAS thread count.
"""
from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Optional

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
SCAN_ORACLE = EXPECTED_DIR / "scan_n6.tsv"
_RESIDUAL = re.compile(r'"residual":([^,}]+)')


def graph6_degrees(record: str) -> list[int]:
    """Vertex degrees of a graph6 record with n <= 62."""
    n = ord(record[0]) - 63
    bits = [(ord(c) - 63) >> k & 1 for c in record[1:] for k in range(5, -1, -1)]
    degrees = [0] * n
    pos = 0
    for col in range(1, n):
        for row in range(col):
            if bits[pos]:
                degrees[row] += 1
                degrees[col] += 1
            pos += 1
    return degrees


def load_scan_oracle() -> dict[str, tuple[int, int, int]]:
    """graph6 -> (agree-pass, agree-fail, varying thresholds)."""
    oracle = {}
    with open(SCAN_ORACLE) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            g6, passed, failed, varying = line.split()
            oracle[g6] = (int(passed), int(failed), int(varying))
    return oracle


def expected_scan_stdout(records: list[str], oracle: dict[str, tuple[int, int, int]]) -> str:
    """The exact stdout of `tkit scan` on these records (NDJSON format)."""
    counts = {"agree-pass": 0, "agree-fail": 0, "skipped-not-thin": 0, "vacuous": 0}
    instances = varying = 0
    for record in records:
        degrees = graph6_degrees(record)
        passed, failed, vary = oracle.get(record, (0, 0, 0))
        vacuous = sum(d < 2 for d in degrees)
        instances += len(degrees)
        varying += vary
        counts["vacuous"] += vacuous
        counts["agree-pass"] += passed
        counts["agree-fail"] += failed
        counts["skipped-not-thin"] += len(degrees) - vacuous - passed - failed
    summary = {"graphs": len(records), "instances": instances, "counts": counts,
               "mismatch_count": 0, "dim_bound_violations": 0,
               "structure_violations": 0, "varying_threshold_count": varying}
    return json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n"


def normalize_report_stdout(stdout: str) -> tuple[Optional[str], Optional[str]]:
    """Replace each module residual by a placeholder after checking it
    against 1e3 * tol. Returns (normalized stdout, None) or (None, problem)."""
    if "MISMATCH" in stdout:
        return None, "MISMATCH in output"
    out = []
    for line in stdout.splitlines():
        try:
            tol = json.loads(line)["tol"]
        except (ValueError, KeyError, TypeError):
            return None, f"not a report line: {line[:80]!r}"
        for value in _RESIDUAL.findall(line):
            if not float(value) <= 1e3 * tol:
                return None, f"residual {value} above bound {1e3 * tol:g}"
        out.append(_RESIDUAL.sub('"residual":"checked"', line))
    if not out:
        return None, "no report printed"
    return "\n".join(out) + "\n", None
