"""One md5 over everything decompose returns, for a bit-exactness check.

The instances are every thin base (ratio fit ok) of every connected
labelled graph with at most 6 vertices; every base of degree at least 1
whose ratio fit fails, of every connected labelled graph with at most 5
vertices (decompose runs the exact closure of e_x on these, as their level
partition is not equitable); and the graphs of the benchmark's
check-decompose ladder at its default seed: cycle:20, path:20 and star:20
at vertex 0, Q5 at vertex 0, the apex extension of the Petersen graph by
K2 at its apex, and the ladder's G(24, 0.15) at its relabelled vertex 0.
Each is decomposed at the default seed and tolerance. The digest reads,
per instance, the graph6 record and base, then either the error message or
the report: every module's basis bytes (with dtype and shape), residual
repr, endpoint, diameter, level dimensions, thinness and iso class, and
the report's trivial index, endpoint-one counts, total dimension,
rank_flag and notes.

A refactor of the numeric side that claims to keep every output byte can
run this at the parent commit and at the change; equal md5s show it did,
on this corpus and at this machine's BLAS. Run from the repository root:

    python tests/decompose_digest.py
    python tests/decompose_digest.py --expect MD5   # exit 1 on another md5

Standard library and numpy only; pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from tkit.constructions import (apex_extension, complete_graph,  # noqa: E402
                                cycle_graph, path_graph, petersen_graph,
                                star_graph)
from tkit.decompose import DecompositionError, decompose  # noqa: E402
from tkit.exact import build_operators  # noqa: E402
from tkit.graphs import (generate_connected_graph6,  # noqa: E402
                         parse_edge_list, parse_graph6)
from tkit.regularity import fit_pdr  # noqa: E402

from run import (DEFAULT_SEED, GNP_SEED, connected_gnp,  # noqa: E402
                 hypercube, relabelled)


def corpus_instances():
    """(graph, base, ops) for every thin base of the n <= 6 corpus."""
    for n in range(1, 7):
        for record in generate_connected_graph6(n):
            g = parse_graph6(record)
            for x in range(g.n):
                pdr = fit_pdr(g, x)
                if pdr.ok:
                    yield g, x, pdr.ops


def not_thin_instances():
    """(graph, base, ops) for every base of degree >= 1 of the n <= 5
    corpus whose ratio fit fails."""
    for n in range(2, 6):
        for record in generate_connected_graph6(n):
            g = parse_graph6(record)
            for x in range(g.n):
                pdr = fit_pdr(g, x)
                if not pdr.ok and g.degree(x) >= 1:
                    yield g, x, pdr.ops


def edge_list(edges, labels=None):
    """The graph as check reads the ladder's edge-list files."""
    label = labels.__getitem__ if labels else str
    return parse_edge_list("".join(f"{label(u)} {label(v)}\n" for u, v in edges))


def ladder_instances():
    """(graph, base, ops) for the check-decompose ladder's graphs."""
    edges, perm = relabelled(connected_gnp(24, 0.15, random.Random(GNP_SEED)), 24,
                             random.Random(DEFAULT_SEED))
    apex = apex_extension(petersen_graph(), 0, complete_graph(2)).graph
    ladder = [(cycle_graph(20), "0"), (path_graph(20), "0"), (star_graph(20), "0"),
              (edge_list(hypercube(5)), "0"),
              (edge_list(apex.edges(), apex.labels), "w"),
              (edge_list(edges), str(perm[0]))]
    for g, label in ladder:
        x = g.index_of(label)
        yield g, x, build_operators(g, x)


def digest_lines(g, x, ops):
    yield f"{g.graph6} {x}"
    try:
        rep = decompose(ops)
    except DecompositionError as exc:
        yield f"error {exc} {exc.residuals!r}"
        return
    for m in rep.modules:
        basis = m.subspace.basis
        yield f"module {basis.dtype} {basis.shape}"
        yield basis.tobytes()
        yield (f"{m.residual!r} {m.endpoint} {m.diameter} {m.level_dims} "
               f"{m.thin} {m.iso_class}")
    yield (f"{rep.trivial_index} {rep.trivial_thin} {rep.endpoint1_count} "
           f"{rep.endpoint1_iso_classes} {rep.endpoint1_all_thin} "
           f"{rep.total_dim} {rep.seed} {rep.tol!r} {rep.rank_flag} {rep.notes!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--expect", metavar="MD5",
                        help="exit 1 when the digest is not this md5")
    args = parser.parse_args(argv)
    md5 = hashlib.md5()
    count = 0
    for source in (corpus_instances(), not_thin_instances(), ladder_instances()):
        for g, x, ops in source:
            count += 1
            for line in digest_lines(g, x, ops):
                md5.update(line if isinstance(line, bytes) else line.encode() + b"\n")
    print(f"{md5.hexdigest()}  {count} instances")
    if args.expect is not None and md5.hexdigest() != args.expect:
        print(f"expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
