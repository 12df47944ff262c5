"""Golden `tkit check` reports and endpoint-one witnesses.

The reports pin every field of the NDJSON output, including the ratio-fit
and endpoint-one witnesses and their first-violation order, which scan
summaries never show. The small-graph reports pin `check --all-vertices
--decompose` on every connected labelled graph with at most five vertices,
so every decomposition path those graphs reach (irreducible standard
module, multiplicity-free and repeated-class splits) keeps its residuals,
module order and iso classes. The witness table pins what
verify_condition_values returns for the canonical scalars and for
perturbed ones.

Regenerate the stored files (only when a report change is intended) with

    PYTHONPATH=src python tests/golden.py --write
"""
from __future__ import annotations

import contextlib
import gzip
import io
import itertools
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from clausewise import verify_condition_values
from tkit.cli import load_graph, main
from tkit.constructions import (apex_extension, complete_graph, empty_graph,
                                example_graph)
from tkit.exact import build_operators
from tkit.graphs import connected_graphs, make_graph, parse_graph6, to_graph6
from tkit.regularity import NotApplicable, fit_endpoint1, fit_pdr

DATA = Path(__file__).resolve().parent / "data"
REPORTS_PATH = DATA / "golden_check.ndjson.gz"
SMALL_REPORTS_PATH = DATA / "golden_small_decompose.ndjson.gz"
WITNESSES_PATH = DATA / "golden_witnesses.ndjson"

BUILTINS = ("example", "petersen", "rook3x3", "cycle:9", "star:5")
SMALL_MAX_N = 5
RANDOM_SEED = 20261018
RANDOM_COUNT = 20


def random_graph6s() -> list[str]:
    """Seeded connected graphs with 4 to 10 vertices."""
    rng = random.Random(RANDOM_SEED)
    out: list[str] = []
    while len(out) < RANDOM_COUNT:
        n = rng.randint(4, 10)
        p = rng.uniform(0.25, 0.8)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < p]
        g = make_graph(n, edges)
        if g.is_connected():
            out.append(to_graph6(g))
    return out


def apex_graph6s() -> list[str]:
    g, x = example_graph()
    return [to_graph6(apex_extension(g, x, maker(2)).graph)
            for maker in (empty_graph, complete_graph)]


def graph6_sources() -> list[str]:
    return apex_graph6s() + random_graph6s()


def _run_check(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"tkit {' '.join(argv)} exited {code}")
    return buf.getvalue()


def render_reports() -> str:
    """`tkit check --all-vertices` output, with and without --decompose, for
    every source, each block headed by a comment naming the source."""
    parts: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        sources = [(name, name) for name in BUILTINS]
        for k, g6 in enumerate(graph6_sources()):
            path = Path(tmp) / f"g{k}.g6"
            path.write_text(g6 + "\n")
            sources.append((g6, str(path)))
        for label, source in sources:
            for extra in ([], ["--decompose"]):
                argv = ["check", source, "--all-vertices"] + extra
                parts.append(f"# check {label} --all-vertices"
                             f"{' --decompose' if extra else ''}\n")
                parts.append(_run_check(argv))
    return "".join(parts)


def render_small_reports() -> str:
    """`tkit check --all-vertices --decompose` output for every connected
    labelled graph with at most SMALL_MAX_N vertices, in connected_graphs
    order, each block headed by a comment naming the graph."""
    parts: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.g6"
        for n in range(1, SMALL_MAX_N + 1):
            for g in connected_graphs(n):
                g6 = to_graph6(g)
                path.write_text(g6 + "\n")
                parts.append(f"# check {g6} --all-vertices --decompose\n")
                parts.append(_run_check(["check", str(path), "--all-vertices",
                                         "--decompose"]))
    return "".join(parts)


def _witness(w) -> dict | None:
    if w is None:
        return None
    return {"level": w.level, "y": w.y, "z": w.z, "equation": w.equation}


def render_witnesses() -> str:
    """One line per (graph, base vertex) with an endpoint-one fit: the
    verify_condition_values witness for the canonical scalars, for each
    scalar sequence raised by one, and for all four raised by one."""
    graphs = [(name, load_graph(name)[0]) for name in BUILTINS]
    graphs += [(g6, parse_graph6(g6)) for g6 in graph6_sources()]
    lines: list[str] = []
    names = ("kappa", "mu", "theta", "rho")
    one = Fraction(1)
    for label, g in graphs:
        for x in range(g.n):
            ops = build_operators(g, x)
            try:
                prof = fit_endpoint1(ops, fit_pdr(g, x))
            except NotApplicable:
                continue
            canonical = prof.canonical()
            entry = {"graph": label, "base": x,
                     "canonical": _witness(verify_condition_values(ops, *canonical))}
            for k, name in enumerate(names):
                bumped = [list(seq) for seq in canonical]
                bumped[k] = [v + one for v in bumped[k]]
                entry[f"{name}+1"] = _witness(verify_condition_values(ops, *bumped))
            entry["all+1"] = _witness(verify_condition_values(
                ops, *[[v + one for v in seq] for seq in canonical]))
            lines.append(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def write() -> None:
    DATA.mkdir(exist_ok=True)
    REPORTS_PATH.write_bytes(gzip.compress(render_reports().encode(), mtime=0))
    SMALL_REPORTS_PATH.write_bytes(gzip.compress(render_small_reports().encode(),
                                                 mtime=0))
    WITNESSES_PATH.write_text(render_witnesses())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write()
