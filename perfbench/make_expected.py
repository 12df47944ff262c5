#!/usr/bin/env python3
"""Regenerate the benchmark's stored expected outputs from the current code:

    python3 perfbench/make_expected.py

* `expected/scan_n6.tsv`: one line per connected labelled 6-vertex graph
  with agree-pass or agree-fail instances or a varying threshold (see
  checks.py). Fails if any graph has a mismatch or a violation.
* `expected/<check workload>[-smoke].seed<DEFAULT_SEED>.json`: the stdout of
  every ladder call, by key.

Run it only when the program's output is meant to change, and review the diff.
"""
from __future__ import annotations

import json
import sys
from multiprocessing import Pool

import run
from checks import SCAN_ORACLE


def write_scan_oracle() -> None:
    from tkit.scan import generate_connected_graph6, scan_graph
    lines = ["# graph6 agree-pass agree-fail varying-thresholds\n"]
    with Pool(2) as pool:
        for res in pool.imap(scan_graph, generate_connected_graph6(6), chunksize=64):
            if res["mismatches"] or res["dim_bound_violations"] or res["structure_violations"]:
                raise SystemExit(f"{res['graph6']}: not clean, no oracle written")
            row = (res["counts"]["agree-pass"], res["counts"]["agree-fail"],
                   len(res["varying_thresholds"]))
            if any(row):
                lines.append(f"{res['graph6']} {row[0]} {row[1]} {row[2]}\n")
    SCAN_ORACLE.write_text("".join(lines))


def write_check_outputs(name: str, smoke: bool) -> None:
    outputs = {}
    for call in run.build_workload(name, run.DEFAULT_SEED, smoke).calls:
        rc, stdout = run.cli(call.argv)
        if rc != 0 or "MISMATCH" in stdout:
            raise SystemExit(f"{name} {call.key}: exit {rc}, no expected output written")
        outputs[call.key] = stdout
    run.expected_path(name, smoke).write_text(json.dumps(outputs, indent=1) + "\n")


def main() -> int:
    run.import_tkit()
    for name in ("check-decompose", "check-exact"):
        for smoke in (True, False):
            write_check_outputs(name, smoke)
    write_scan_oracle()
    return 0


if __name__ == "__main__":
    sys.exit(main())
