"""Command-line interface.

Subcommands:
  check      analyze one graph at one or all base vertices (NDJSON or table)
  construct  build an apex extension over a product and print the graph
  scan       cross-validate a graph6 corpus or an exhaustive enumeration
  oracle     compare one walk count, stepped level by level as an integer
             vector, with explicit walk enumeration (dense matrix
             products are kept only as a test oracle)
  partition  dump the distance partition cells of one edge

Exit codes: 0 success, 2 bad input, 3 cross-validation mismatch,
4 oracle disagreement.
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys
import time
from typing import Callable, Iterable, Optional, Sequence

from .constructions import (apex_extension, complete_graph, cycle_graph,
                            empty_graph, example_graph, path_graph,
                            petersen_graph, rook_graph_3x3, star_graph)
from .decompose import DecompositionError
from .exact import (SHAPE_FAMILIES, build_operators, enumerate_walks, shape_string,
                    walk_column)
from .graphs import CONNECTED_GRAPH_COUNTS, Graph, GraphError, distance_partition, \
    generate_connected_graph6, parse_edge_list, parse_graph6, to_graph6
from .report import MISMATCH, analyze, report_to_dict, report_to_json
from .scan import PROGRESS_EVERY, scan_corpus

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Graph sources
# ---------------------------------------------------------------------------

# Parametric builtins kind:N, also the fibres of construct. N is the vertex
# count (star:N has N leaves) and at most BUILTIN_MAX_N, and so is the
# number of vertices construct builds. At the limit, complete:1000 builds
# its 499 500 edges in 0.6 s and 135 MiB, and `check complete:1000
# --vertex 0` takes 1.7-1.8 s and 136 MiB as a whole process on a shared
# 2-core host (Python 3.11).
BUILTIN_MAX_N = 1000
_FAMILIES = {"cycle": cycle_graph, "path": path_graph, "complete": complete_graph,
             "star": star_graph, "empty": empty_graph}


def _family_graph(kind: str, n: int) -> Graph:
    if n > BUILTIN_MAX_N:
        raise GraphError(f"{kind}:{n} is above the builtin size limit "
                         f"N <= {BUILTIN_MAX_N}")
    return _FAMILIES[kind](n)


def _builtin(name: str) -> Optional[tuple[Graph, Optional[int]]]:
    if name == "example":
        g, base = example_graph()
        return g, base
    if name == "petersen":
        return petersen_graph(), None
    if name == "rook3x3":
        return rook_graph_3x3(), None
    if ":" in name:
        kind, _, arg = name.partition(":")
        try:
            n = int(arg)
        except ValueError:
            return None
        if kind in _FAMILIES:
            return _family_graph(kind, n), None
    return None


def load_graph(source: str, input_format: str = "auto") -> tuple[Graph, Optional[int]]:
    """Resolve a builtin name, '-', or a file path into a Graph plus an
    optional distinguished base vertex."""
    built = _builtin(source)
    if built is not None:
        return built
    return _parse_text(_read_source(source), input_format), None


def _read_source(source: str) -> str:
    """The text of a file, which must be ASCII, or of stdin for '-'."""
    try:
        if source == "-":
            return sys.stdin.read()
        with open(source, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise GraphError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise GraphError(f"cannot decode {source}: {exc}") from exc


def _parse_text(text: str, input_format: str) -> Graph:
    if input_format == "edgelist":
        return parse_edge_list(text)
    if input_format == "graph6":
        return _parse_graph6_text(text)
    # a graph6 record has no whitespace and no '#' (its bytes are 63-126),
    # so a comment or a line of two or more tokens makes the text an edge
    # list, and its parser names any bad line
    if "#" in text or any(len(ln.split()) >= 2 for ln in text.splitlines()):
        return parse_edge_list(text)
    return _parse_graph6_text(text)


def _parse_graph6_text(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 1:
        raise GraphError("expected a single graph6 record")
    return parse_graph6(lines[0])


def _resolve_base(g: Graph, args, default: Optional[int]) -> list[int]:
    if args.all_vertices:
        return list(range(g.n))
    if args.vertex is not None:
        return [g.index_of(args.vertex)]
    if default is not None:
        return [default]
    raise GraphError("no base vertex: pass --vertex LABEL or --all-vertices")


# ---------------------------------------------------------------------------
# Table rendering
# ---------------------------------------------------------------------------

def _render_table(title: str, header: Sequence[str],
                  rows: Sequence[tuple[str, Sequence[str]]]) -> str:
    width = max([len(name) for name, _ in rows] + [1])
    cell = max([len(str(v)) for _, vals in rows for v in vals]
               + [len(str(h)) for h in header] + [1])
    out = [title]
    out.append("  ".join(["i".ljust(width)] + [str(h).rjust(cell) for h in header]))
    for name, vals in rows:
        out.append("  ".join([name.ljust(width)] + [str(v).rjust(cell) for v in vals]))
    return "\n".join(out)


def _print_check_table(rep_dict) -> None:
    pdr = rep_dict["pdr"]
    levels = list(range(len(pdr["alpha"])))
    print(_render_table(
        f"ratio fit (ok={pdr['ok']})", [str(i) for i in levels],
        [("alpha", pdr["alpha"]), ("beta", pdr["beta"])]))
    e1 = rep_dict["endpoint1"]
    if not e1["applicable"]:
        print(f"endpoint-1 fit: not applicable ({e1['reason']})")
    else:
        lv = e1["levels"]
        print(_render_table(
            f"endpoint-1 fit (ok={e1['ok']})",
            [str(entry["level"]) for entry in lv],
            [(name, [entry[name] if entry[name] is not None else "free"
                     for entry in lv])
             for name in ("kappa", "mu", "theta", "rho")]))
    dec = rep_dict["decomposition"]
    if dec is not None:
        print(f"decomposition: {len(dec['modules'])} modules, "
              f"verdict {dec['verdict']['status']}"
              + (f" ({dec['verdict']['reason']})" if dec['verdict']['reason'] else ""))
        for m in dec["modules"]:
            print(f"  endpoint {m['endpoint']} dim {m['dim']} "
                  f"levels {m['level_dims']} thin={m['thin']} class {m['iso_class']}")
    print(f"agreement: {rep_dict['agreement']}"
          + (f" ({rep_dict['agreement_reason']})" if rep_dict["agreement_reason"] else ""))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    g, default_base = load_graph(args.source, args.input)
    if not g.is_connected():
        raise GraphError("analysis needs a connected graph")
    bases = _resolve_base(g, args, default_base)
    worst = 0
    for x in bases:
        rep = analyze(g, x, with_decomposition=args.decompose,
                      seed=args.seed, tol=args.tol)
        if args.format == "table":
            print(f"== base vertex {g.labels[x]} ==")
            _print_check_table(report_to_dict(rep))
        else:
            print(report_to_json(rep, include_bases=args.include_bases))
        if rep.agreement == MISMATCH:
            worst = 3
    return worst


def cmd_construct(args) -> int:
    g, _ = load_graph(args.gamma, "auto")
    x = g.index_of(args.x)
    sigma = _family_graph(args.sigma_kind, args.sigma_n)
    n_out = g.n * sigma.n + 1
    if n_out > BUILTIN_MAX_N:
        raise GraphError(f"construct output would have {g.n} * {sigma.n} + 1 = "
                         f"{n_out} vertices, above the size limit "
                         f"N <= {BUILTIN_MAX_N}")
    result = apex_extension(g, x, sigma)
    h = result.graph
    if args.output == "graph6":
        print(to_graph6(h))
    else:
        print(f"# apex extension: {args.gamma} (base {g.labels[x]}) with "
              f"{args.sigma_kind}:{args.sigma_n}; apex vertex: w")
        for u, v in h.edges():
            print(f"{h.labels[u]} {h.labels[v]}")
    return 0


def _progress_printer(total: Optional[int]) -> Callable[[int], None]:
    """A progress callback for scan_corpus that prints, on stderr, the
    graphs scanned, the rate since it was made and, when the corpus length
    total is known, the time left at that rate."""
    start = time.perf_counter()

    def report(done: int) -> None:
        rate = done / max(time.perf_counter() - start, 1e-9)
        line = f"# scanned {done} graphs, {rate:.0f} graphs/s"
        if total is not None:
            line += f", ETA {(total - done) / rate:.0f} s"
        print(line, file=sys.stderr)
    return report


def cmd_scan(args) -> int:
    total: Optional[int] = None
    if args.generate is not None:
        if args.corpus is not None:
            raise GraphError("give either a corpus or --generate, not both")
        if args.generate > 7:
            raise GraphError("--generate supports n <= 7")
        lines: Iterable[str] = generate_connected_graph6(args.generate)
        total = CONNECTED_GRAPH_COUNTS.get(args.generate)
    elif args.corpus is not None:
        raw = _read_source(args.corpus)
        lines = [ln.strip() for ln in raw.splitlines() if ln.strip()]
        total = len(lines)
    else:
        raise GraphError("scan needs a corpus path or --generate N")

    progress = _progress_printer(total) if args.progress else None
    summary = scan_corpus(lines, jobs=args.jobs, seed=args.seed, tol=args.tol,
                          progress=progress)
    if args.format == "table":
        print(f"graphs {summary.graphs}  instances {summary.instances}")
        for key, value in summary.counts.items():
            print(f"  {key}: {value}")
        print(f"  mismatches: {len(summary.mismatches)}")
        # the bounds are not checked; the line stays until the schema changes
        print("  dim bound violations: 0")
        print(f"  structure violations: {len(summary.structure_violations)}")
    else:
        print(json.dumps(summary.to_dict(), sort_keys=True, separators=(",", ":")))
    for mism in summary.mismatches:
        print(json.dumps(mism, sort_keys=True, separators=(",", ":")))
    for item in summary.structure_violations:
        print(json.dumps(item, sort_keys=True, separators=(",", ":")))
    return 0 if summary.clean else 3


def _parse_shape(shape: str) -> tuple[str, int]:
    for family in SHAPE_FAMILIES:
        m = len(shape) - (family != "r")
        if shape_string(family, m) == shape:
            return family, m
    raise GraphError(
        f"shape {shape!r} is not in the table families "
        f"{SHAPE_FAMILIES} (letters r, then optional trailing l/f, "
        f"or leading l)")


def cmd_oracle(args) -> int:
    g, _ = load_graph(args.source, "auto")
    if not g.is_connected():
        raise GraphError("oracle needs a connected graph")
    x = g.index_of(args.x)
    y = g.index_of(args.y)
    z = g.index_of(args.z)
    family, m = _parse_shape(args.shape)
    stepped = walk_column(build_operators(g, x), args.shape, y)[z]
    from_enum = enumerate_walks(g, x, args.shape, y, z)
    agree = stepped == from_enum
    print(json.dumps({
        "shape": args.shape, "family": family, "m": m,
        "walk_table": str(stepped), "enumeration": str(from_enum),
        "agree": agree,
    }, sort_keys=True, separators=(",", ":")))
    return 0 if agree else 4


def cmd_partition(args) -> int:
    g, _ = load_graph(args.source, "auto")
    if not g.is_connected():
        raise GraphError("partition needs a connected graph")
    x = g.index_of(args.x)
    y = g.index_of(args.y)
    part = distance_partition(g, x, y)
    cells = {f"{i},{j}": [g.labels[v] for v in vs]
             for (i, j), vs in sorted(part.cells.items())}
    print(json.dumps({
        "x": g.labels[x], "y": g.labels[y],
        "ecc_x": part.ecc_x, "ecc_y": part.ecc_y, "cells": cells,
    }, sort_keys=True, separators=(",", ":")))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_seed, default=42,
                   help="random seed for the decomposition (default 42)")
    p.add_argument("--tol", type=_tolerance, default=1e-9,
                   help="numeric tolerance for rank decisions (default 1e-9)")


def build_parser() -> argparse.ArgumentParser:
    # -v is accepted before and after the subcommand; SUPPRESS keeps a
    # subcommand that got no -v from resetting the count given before it
    verbosity = argparse.ArgumentParser(add_help=False)
    verbosity.add_argument("-v", "--verbose", action="count",
                           default=argparse.SUPPRESS,
                           help="log more (-v info, -vv debug) on stderr")
    parser = argparse.ArgumentParser(
        prog="tkit", parents=[verbosity],
        description="Local analysis of a graph's Terwilliger algebra: exact "
                    "walk-count fits, irreducible module decomposition, and "
                    "cross-validation of the two.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[verbosity],
                       help="analyze one graph at base vertices")
    p.add_argument("source", help="file path, '-', or builtin "
                                  "(example, petersen, rook3x3, cycle:N, "
                                  "path:N, complete:N, star:N; "
                                  f"N <= {BUILTIN_MAX_N})")
    bases = p.add_mutually_exclusive_group()
    bases.add_argument("--vertex", help="base vertex label")
    bases.add_argument("--all-vertices", action="store_true")
    p.add_argument("--decompose", action="store_true",
                   help="also run the numeric module decomposition")
    p.add_argument("--include-bases", action="store_true",
                   help="embed module basis vectors in the JSON")
    p.add_argument("--input", choices=("auto", "edgelist", "graph6"),
                   default="auto")
    p.add_argument("--format", choices=("ndjson", "table"), default="ndjson")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", parents=[verbosity],
                       help="apex extension over a product")
    p.add_argument("gamma", help="first factor graph source")
    p.add_argument("x", help="base vertex label in the first factor")
    p.add_argument("sigma_kind", choices=("empty", "complete", "cycle", "path"))
    p.add_argument("sigma_n", type=int,
                   help=f"fibre size; the output's n * sigma_n + 1 vertices "
                        f"are at most {BUILTIN_MAX_N}")
    p.add_argument("--output", choices=("edgelist", "graph6"), default="edgelist")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("scan", parents=[verbosity],
                       help="cross-validate a corpus")
    p.add_argument("corpus", nargs="?", help="graph6 file or '-'")
    p.add_argument("--generate", type=int, metavar="N",
                   help="enumerate all connected graphs on N labeled vertices")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="processes: the parent and N - 1 forked workers "
                        "(default: TK_JOBS or all cores; at most the number "
                        "of cores)")
    p.add_argument("--progress", action="store_true",
                   help=f"every {PROGRESS_EVERY} graphs, print on stderr the "
                        "count, the rate and the time left")
    p.add_argument("--format", choices=("ndjson", "table"), default="ndjson")
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("oracle", parents=[verbosity],
                       help="walk-count cross-check for one entry")
    p.add_argument("source")
    p.add_argument("x")
    p.add_argument("shape", help="shape string over r/f/l, e.g. rl, rrl, lrr")
    p.add_argument("y")
    p.add_argument("z")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("partition", parents=[verbosity],
                       help="dump distance partition cells")
    p.add_argument("source")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_partition)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: parse_args keeps no state
    between calls, and an in-process caller of main would otherwise pay
    about 1.5 ms per call to build it."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    verbose = getattr(args, "verbose", 0)
    level = logging.WARNING
    if verbose == 1:
        level = logging.INFO
    elif verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (GraphError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
