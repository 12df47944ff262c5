#!/usr/bin/env python3
"""Run one workload once per seed, in sequence, and report each end-to-end
metric's median and quartile spread, (Q3 - Q1) / median, next to its bound
from BENCHMARK.json. Run from the repository root:

    python3 perfbench/spread.py --workload scan-n6 --seeds 1-10

A benchmark is steady when every spread except setup_s's stays below a
third of the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, last = (int(x) for x in args.seeds.split("-"))

    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        cmd = [*config["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(config["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for entry in config["end_to_end"]:
        vals = values[entry["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if entry["name"] == "setup_s" or spread < entry["bound"] / 3 else "  WIDE"
        print(f"{entry['name']:14s} median {med:.5g}  spread {spread:.4f}  "
              f"bound {entry['bound']}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
