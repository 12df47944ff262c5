"""One md5 over what `tkit check` prints without --decompose, for a
byte-identity check of the report path.

The instances are every base of every connected labelled graph with at
most 5 vertices, and every vertex of the graphs of the benchmark's
check-exact ladder at its default seed: cycle:48, Q6, star:80, the 8x8
grid and the ladder's G(24, 0.15), each read as `check` reads it (the
builtins by name, the others as edge lists). Each instance is analysed at
the default seed and tolerance, and the digest reads its graph6 record and
base, its report_to_json line and its table rendering (the lines `check
--format table` prints for it).

A change to the exact side, the structure report or the JSON encoding that
claims to keep every output byte can run this at the parent commit and at
the change; equal md5s show it did on these instances. Run from the
repository root:

    python tests/report_digest.py
    python tests/report_digest.py --expect MD5   # exit 1 on another md5

Standard library only; pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from tkit.cli import _print_check_table, load_graph  # noqa: E402
from tkit.graphs import (generate_connected_graph6,  # noqa: E402
                         parse_edge_list, parse_graph6)
from tkit.report import analyze, report_to_dict, report_to_json  # noqa: E402

from run import (DEFAULT_SEED, GNP_SEED, connected_gnp, grid,  # noqa: E402
                 hypercube, relabelled)


def edge_list(edges):
    """The graph as check reads the ladder's edge-list files."""
    return parse_edge_list("".join(f"{u} {v}\n" for u, v in edges))


def graphs():
    """Every connected graph with n <= 5, then the check-exact ladder's."""
    for n in range(1, 6):
        for record in generate_connected_graph6(n):
            yield parse_graph6(record)
    edges, _ = relabelled(connected_gnp(24, 0.15, random.Random(GNP_SEED)), 24,
                          random.Random(DEFAULT_SEED))
    yield load_graph("cycle:48")[0]
    yield edge_list(hypercube(6))
    yield load_graph("star:80")[0]
    yield edge_list(grid(8, 8))
    yield edge_list(edges)


def digest_lines(g, x):
    rep = analyze(g, x)
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        _print_check_table(report_to_dict(rep))
    yield f"{g.graph6} {x}"
    yield report_to_json(rep)
    yield table.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--expect", metavar="MD5",
                        help="exit 1 when the digest is not this md5")
    args = parser.parse_args(argv)
    md5 = hashlib.md5()
    count = 0
    for g in graphs():
        for x in range(g.n):
            count += 1
            for line in digest_lines(g, x):
                md5.update(line.encode() + b"\n")
    print(f"{md5.hexdigest()}  {count} instances")
    if args.expect is not None and md5.hexdigest() != args.expect:
        print(f"expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
