#!/usr/bin/env python3
"""End-to-end benchmark of the tkit command line, run from the repository root:

    python3 perfbench/run.py --workload scan-n6 --seed 1 --seconds 20 --trace 0

Each run is one fresh process. It imports tkit from `src/`, builds the
workload's inputs from `--seed` (set-up), then calls `tkit.cli.main(argv)`
with stdout captured, the path a user's `tkit scan ...` or `tkit check ...`
takes, until `--seconds` have passed, and checks every call's output.
`--trace 1` replaces the end-to-end metrics by per-layer ones: the public
functions of each tkit module are wrapped from outside the package (see
tracing.py). `--smoke` runs a few tiny graphs per workload, once.

Human-readable lines come first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. The exit code is 1 when
an output check failed and 2 when the benchmark cannot run at all.
Inputs, span dumps and result records go to `perfbench/out/`.
"""
from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from checks import (EXPECTED_DIR, expected_scan_stdout, graph6_degrees,
                    load_scan_oracle, normalize_report_stdout)
from tracing import TRACED_NAMES, Tracer, dump, self_times

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("scan-n6", "scan-n6-jobs2", "check-decompose", "check-exact")
DEFAULT_SEED = 1          # the seed whose check outputs are stored in expected/
SETUP_REPEATS = 3
SCAN_CHUNK = 128          # graphs per `tkit scan` call: two imap chunks of 64, one per
                          # worker at --jobs 2; short calls keep the median clear of
                          # the shared host's second-long slow spells
SMOKE_SCAN_CHUNK = 16
GNP_SEED = 2023           # draws the shape of the ladders' random graph


class BenchError(Exception):
    """The benchmark cannot run here (no sources, bad arguments)."""


@dataclass
class Call:
    key: str                      # names the input, stable across seeds
    argv: list[str]
    records: list[str] = field(default_factory=list)    # graph6 lines of a scan chunk

    @property
    def graphs(self) -> int:
        return len(self.records) or 1


@dataclass
class Workload:
    kind: str                     # "scan": distinct chunks; "ladder": repeated graphs
    calls: list[Call]
    reference: str                # key of REFERENCES matching the calls' bottleneck


@dataclass
class Sample:
    call: Call
    wall: float                   # raw seconds
    cpu: float
    scale: float                  # to the reference's nominal speed, see measure()
    problem: Optional[str]

    @property
    def wall_ref(self) -> float:
        return self.wall * self.scale

    @property
    def cpu_ref(self) -> float:
        return self.cpu * self.scale


@dataclass
class Checker:
    expected: dict[str, str]      # stored normalized check outputs, by key
    oracle: dict[str, tuple[int, int, int]]
    seen: dict[str, str] = field(default_factory=dict)

    def problem(self, call: Call, rc: Any, stdout: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}"
        if call.records:
            expected = expected_scan_stdout(call.records, self.oracle)
            return None if stdout == expected else "scan summary differs from the oracle"
        normalized, problem = normalize_report_stdout(stdout)
        if problem:
            return problem
        reference = self.expected.get(call.key) or self.seen.setdefault(call.key, normalized)
        return None if normalized == reference else "report differs from the expected one"


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _write_edges(path: Path, edges, labels=None) -> str:
    with open(path, "w") as fh:
        for u, v in edges:
            fh.write(f"{labels[u] if labels else u} {labels[v] if labels else v}\n")
    return str(path.relative_to(ROOT))


def hypercube(d: int) -> list[tuple[int, int]]:
    return [(u, u | 1 << b) for u in range(1 << d) for b in range(d) if not u >> b & 1]


def grid(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def connected_gnp(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of G(n, p), redrawn until connected."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        adj: dict[int, set[int]] = {u: set() for u in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        reach, frontier = {0}, [0]
        while frontier:
            new = adj[frontier.pop()] - reach
            reach |= new
            frontier.extend(new)
        if len(reach) == n:
            return edges


def relabelled(edges: list[tuple[int, int]], n: int,
               rng: random.Random) -> tuple[list[tuple[int, int]], list[int]]:
    """The same graph under a random vertex permutation and edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(edges)
    return edges, perm


def scan_calls(seed: int, jobs: int, smoke: bool) -> list[Call]:
    """The labelled connected 6-vertex corpus in a seeded order, dealt into
    chunks that each get the corpus's mix of instances that reach the
    decomposition (known from the oracle) and of edge counts, so a chunk's
    cost hardly depends on the seed: mixed by edge count alone, the median
    chunk time spread by 9 % over ten seeds."""
    from tkit.scan import generate_connected_graph6
    oracle = load_scan_oracle()
    corpus = list(generate_connected_graph6(6))
    random.Random(seed).shuffle(corpus)
    corpus.sort(key=lambda record: (sum(oracle.get(record, (0, 0))[:2]),
                                    sum(graph6_degrees(record))))
    size = SMOKE_SCAN_CHUNK if smoke else SCAN_CHUNK
    n_chunks = len(corpus) // size
    calls = []
    for i in range(1 if smoke else n_chunks):
        dealt = corpus[i::n_chunks][:size]
        # alternate records go to the two halves, the imap tasks of the two
        # workers at --jobs 2, so both get the same mix
        chunk = dealt[0::2] + dealt[1::2]
        path = OUT / "inputs" / f"chunk-{i:03d}.g6"
        path.write_text("".join(record + "\n" for record in chunk))
        calls.append(Call(f"chunk-{i:03d}", ["scan", str(path.relative_to(ROOT)),
                                             "--jobs", str(jobs)], chunk))
    return calls


def ladder_calls(name: str, seed: int, smoke: bool) -> list[Call]:
    from tkit.constructions import apex_extension, complete_graph, cycle_graph, petersen_graph
    inputs = OUT / "inputs"
    n, p = (8, 0.4) if smoke else (24, 0.15)
    # The random graph's shape is fixed and the workload seed relabels it:
    # decomposition time varied 0.28 to 0.78 s over G(24, 0.15) draws, which
    # would make the ladder's time depend on the seed.
    edges, perm = relabelled(connected_gnp(n, p, random.Random(GNP_SEED)), n,
                             random.Random(seed))
    gnp, gnp_base = _write_edges(inputs / f"gnp-{n}.txt", edges), str(perm[0])
    d = 3 if smoke else 5 if name == "check-decompose" else 6
    cube = _write_edges(inputs / f"cube-{d}.txt", hypercube(d))
    if name == "check-decompose":
        cycle, path, star = ("cycle:6", "path:5", "star:4") if smoke else (
            "cycle:20", "path:20", "star:20")
        apex = apex_extension(cycle_graph(4) if smoke else petersen_graph(), 0,
                              complete_graph(2))
        apex_file = _write_edges(inputs / "apex.txt", apex.graph.edges(), apex.graph.labels)
        ladder = [(cycle, cycle, "0"), (path, path, "0"), (star, star, "0"),
                  (f"Q{d}", cube, "0"), ("apex-K2", apex_file, "w"), (f"gnp-{n}", gnp, gnp_base)]
        return [Call(key, ["check", src, "--vertex", v, "--decompose"])
                for key, src, v in ladder]
    cycle, star, side = ("cycle:8", "star:6", 3) if smoke else ("cycle:48", "star:80", 8)
    grid_file = _write_edges(inputs / f"grid-{side}.txt", grid(side, side))
    one = ["--vertex", "0"]
    ladder = [(cycle, cycle, one), (f"Q{d}", cube, one), (star, star, one),
              (f"grid{side}x{side}", grid_file, one), (f"gnp-{n}-all", gnp, ["--all-vertices"])]
    return [Call(key, ["check", src, *extra]) for key, src, extra in ladder]


def build_workload(name: str, seed: int, smoke: bool) -> Workload:
    (OUT / "inputs").mkdir(parents=True, exist_ok=True)
    if name.startswith("scan-"):
        return Workload("scan", scan_calls(seed, 2 if name.endswith("jobs2") else 1, smoke),
                        "python")
    return Workload("ladder", ladder_calls(name, seed, smoke),
                    "blas" if name == "check-decompose" else "python")


def expected_path(name: str, smoke: bool) -> Path:
    return EXPECTED_DIR / f"{name}{'-smoke' if smoke else ''}.seed{DEFAULT_SEED}.json"


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------
# On a shared host the same call can take twice as long from one minute to
# the next (one 128-graph scan chunk took 0.455 to 0.998 s within 150 s),
# while its time relative to a fixed reference computation of the same kind,
# run just before and just after, holds within a few percent. So every time
# is reported at the reference's nominal speed:
#     measured time * nominal reference time / mean measured reference time.
# The reference must match the call's bottleneck: over 300 s, medians of six
# calls spread by (raw, pure-Python reference, BLAS reference) 0.091, 0.034,
# 0.192 for a scan chunk and 0.082, 0.086, 0.022 for `check Q5 --decompose`.
# Raw times stay in the result record.

_REF_INTS = [[(7 * i + 3 * j) % 5 for j in range(24)] for i in range(24)]
_REF_FLOATS = [[math.cos(300 * i + j) for j in range(300)] for i in range(300)]


def python_reference_s() -> float:
    """Median wall time of five runs of an exact integer matrix power in
    pure Python, the bottleneck of the scans and of the exact fits."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        power = _REF_INTS
        for _ in range(5):
            power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*_REF_INTS)]
                     for row in power]
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def blas_reference_s() -> float:
    """Wall time of a 300 x 300 float SVD through numpy's BLAS threads, the
    bottleneck of the decomposition."""
    import numpy as np
    floats = np.array(_REF_FLOATS)
    t0 = time.perf_counter()
    np.linalg.svd(floats)
    return time.perf_counter() - t0


# reference -> (function, its typical time on the 2-vCPU Xeon host, rounded)
REFERENCES = {"python": (python_reference_s, 0.008), "blas": (blas_reference_s, 0.018)}


def measure(fn, reference: str):
    """(fn(), wall s, cpu s, scale to the reference's nominal speed)."""
    ref, nominal = REFERENCES[reference]
    before = ref()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    return result, wall, cpu, 2 * nominal / (before + ref())


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def import_tkit() -> None:
    src = ROOT / "src"
    if not (src / "tkit" / "__init__.py").is_file():
        raise BenchError(f"no tkit sources under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (import cost belongs to set-up)
    import tkit.cli
    if Path(tkit.cli.__file__).resolve().parent != (src / "tkit").resolve():
        raise BenchError(f"imported tkit from {tkit.cli.__file__}, not from {src}")


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def cli(argv: list[str]) -> tuple[Any, str]:
    """One in-process `tkit` invocation: (exit code, stdout)."""
    import tkit.cli
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc: Any = tkit.cli.main(argv)
    except (Exception, SystemExit) as exc:
        traceback.print_exc()
        rc = f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue()


def setup(name: str, seed: int, smoke: bool) -> Workload:
    """Build the inputs and warm up. Raises BenchError if the warm-up fails."""
    workload = build_workload(name, seed, smoke)
    rc, _ = cli(["check", "example", "--decompose"])
    if rc != 0:
        raise BenchError(f"warm-up call failed: {rc}")
    return workload


def run_calls(workload: Workload, checker: Checker, seconds: float,
              whole_passes: bool, smoke: bool) -> list[Sample]:
    """Call the workload's inputs in order, cycling, until `seconds` have
    passed and every ladder graph ran once (every ladder graph equally
    often when `whole_passes`). Smoke runs make one pass."""
    samples: list[Sample] = []
    n = len(workload.calls)

    def enough(done: int) -> bool:
        if workload.kind == "scan":
            return done >= 1
        return done >= n and not (whole_passes and done % n)

    start = time.perf_counter()
    while not (enough(len(samples)) and (smoke or time.perf_counter() - start >= seconds)):
        samples.append(replay(workload.calls[len(samples) % n], checker, workload.reference))
    return samples


def replay(call: Call, checker: Checker, reference: str) -> Sample:
    (rc, stdout), wall, cpu, scale = measure(lambda: cli(call.argv), reference)
    problem = checker.problem(call, rc, stdout)
    if problem:
        print(f"FAIL {call.key}: {problem}", file=sys.stderr)
    return Sample(call, wall, cpu, scale, problem)


def per_key_median(samples: list[Sample], attr: str) -> float:
    by_key: dict[str, list[float]] = {}
    for s in samples:
        by_key.setdefault(s.call.key, []).append(getattr(s, attr))
    return sum(statistics.median(v) for v in by_key.values())


def timings(workload: Workload, samples: list[Sample], scaled: bool) -> dict[str, float]:
    """wall_s, cpu_s and graphs_per_s, at the reference's nominal speed or raw."""
    wall_attr, cpu_attr = ("wall_ref", "cpu_ref") if scaled else ("wall", "cpu")
    if workload.kind == "scan":
        walls = [getattr(s, wall_attr) for s in samples]
        return {"wall_s": statistics.median(walls),
                "cpu_s": statistics.median(getattr(s, cpu_attr) for s in samples),
                "graphs_per_s": statistics.median(
                    s.call.graphs / w for s, w in zip(samples, walls))}
    # one climb of the ladder: each graph's median call time, summed
    wall = per_key_median(samples, wall_attr)
    return {"wall_s": wall, "cpu_s": per_key_median(samples, cpu_attr),
            "graphs_per_s": len(workload.calls) / wall}


def end_to_end(workload: Workload, samples: list[Sample]) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count)."""
    n = len(samples)
    t = timings(workload, samples, scaled=True)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": (t["wall_s"], "s", n),
        "cpu_s": (t["cpu_s"], "s", n),
        "graphs_per_s": (t["graphs_per_s"], "1/s", n),
        "peak_rss_mb": (max(own, kids) / 1024.0, "MiB", 1),
    }


def per_layer(setup_spans: list[dict], spans: list[dict], passes: int, scale: float,
              overhead: float) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics of one set-up plus one average pass; self times at
    the reference speed (`scale`, see measure())."""
    totals = {name: {"calls": 0.0, "self_s": 0.0} for name in TRACED_NAMES}
    for part, weight in ((setup_spans, 1.0), (spans, 1.0 / passes)):
        for name, entry in self_times(part).items():
            totals[name]["calls"] += entry["calls"] * weight
            totals[name]["self_s"] += entry["self_s"] * weight
    metrics: dict[str, tuple[float, str, int]] = {}
    for name, entry in totals.items():
        metrics[f"{name}.calls"] = (entry["calls"], "count", passes)
        metrics[f"{name}.self_s"] = (entry["self_s"] * scale, "s", passes)

    attrs = [(r["name"], r["attrs"]) for r in spans if r["attrs"]]
    decs = [a for name, a in attrs if name == "decompose.decompose"]
    metrics["decompose.commutant_stack_bytes_max"] = (
        max((a["stack_bytes"] for name, a in attrs if name == "decompose.commutant_basis"),
            default=0), "B", passes)
    metrics["decompose.rank_flags"] = (sum(a["rank_flag"] for a in decs) / passes, "count", passes)
    metrics["decompose.non_real_notes"] = (sum(a["non_real"] for a in decs) / passes, "count", passes)
    metrics["decompose.residual_max"] = (max((a["residual_max"] for a in decs), default=0.0),
                                         "rel", len(decs))
    scans = [a for name, a in attrs if name == "scan.scan_corpus"]
    instances = sum(a["instances"] for a in scans)
    thin = sum(a["agree-pass"] + a["agree-fail"] for a in scans)
    passed = sum(a["agree-pass"] for a in scans)
    metrics["scan.thin_share"] = (thin / instances if instances else 0.0, "ratio", instances)
    metrics["scan.pass_share"] = (passed / instances if instances else 0.0, "ratio", instances)
    metrics["trace.overhead_ratio"] = (overhead - 1.0, "ratio", passes)
    return metrics


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def git_commit() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict[str, Any]:
    import multiprocessing
    import platform
    import numpy
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "mem_total_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "start_method": multiprocessing.get_start_method(),
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few tiny graphs per workload, one pass")
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict[str, Any]:
    import_tkit()
    import_s = time.perf_counter() - _PROCESS_T0
    repeats = 1 if args.smoke else SETUP_REPEATS
    tracer = None
    if args.trace:
        tracer = Tracer(OUT / f"workers-{os.getpid()}")
        tracer.worker_dir.mkdir(parents=True, exist_ok=True)
    blas_reference_s()      # the first SVD starts numpy's BLAS threads
    setups = []
    for i in range(repeats):
        traced_setup = tracer is not None and i == repeats - 1
        if traced_setup:
            tracer.install()
        workload, wall, _, scale = measure(
            lambda: setup(args.workload, args.seed, args.smoke), "python")
        setups.append((wall, scale))
        if traced_setup:
            tracer.uninstall()
    setup_raw = import_s + statistics.median(wall for wall, _ in setups)
    setup_s = import_s * setups[0][1] + statistics.median(wall * scale for wall, scale in setups)

    stored = expected_path(args.workload, args.smoke)
    expected: dict[str, str] = {}
    if workload.kind == "ladder" and args.seed == DEFAULT_SEED and stored.is_file():
        expected = {key: normalize_report_stdout(out)[0]
                    for key, out in json.loads(stored.read_text()).items()}
    checker = Checker(expected, load_scan_oracle())

    if tracer is None:
        samples = run_calls(workload, checker, args.seconds, False, args.smoke)
        metrics = {"setup_s": (setup_s, "s", repeats), **end_to_end(workload, samples)}
        raw = {"setup_s": setup_raw, **timings(workload, samples, scaled=False)}
    else:
        setup_spans = tracer.take()
        untraced = run_calls(workload, checker, args.seconds / 2, True, args.smoke)
        tracer.install()
        try:
            traced = [replay(s.call, checker, workload.reference) for s in untraced]
        finally:
            tracer.uninstall()
        spans = tracer.take()
        tracer.worker_dir.rmdir()
        dump(setup_spans + spans, OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        passes = len(untraced) if workload.kind == "scan" else len(untraced) // len(workload.calls)
        metrics = per_layer(setup_spans, spans, passes,
                            statistics.median(s.scale for s in traced),
                            sum(s.wall_ref for s in traced) / sum(s.wall_ref for s in untraced))
        samples = untraced + traced
        raw = {}

    failed = sum(s.problem is not None for s in samples)
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "smoke": args.smoke, "env": environment(args.seed),
            "attempted": len(samples), "failed": failed,
            "error_rate": failed / len(samples), "metrics": metrics, "raw": raw,
            "host_scale": statistics.median(s.scale for s in samples),
            "calls": [{"key": s.call.key, "wall_s": s.wall, "cpu_s": s.cpu,
                       "scale": s.scale, "problem": s.problem} for s in samples]}


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)      # inputs are passed to the CLI as paths relative to the root
    try:
        record = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for metric, (value, unit, n) in record["metrics"].items():
        print(f"metric {metric} {value:.6g} {unit} n={n}")
    print(f"metric error_rate {record['error_rate']:.6g} ratio n={record['attempted']}")
    print(f"host scale {record['host_scale']:.4g} (times above are at the reference speed); raw "
          + " ".join(f"{k} {v:.6g}" for k, v in record["raw"].items()))
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit, _) in record["metrics"].items()},
    }))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
