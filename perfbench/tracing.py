"""Span tracing of tkit's public functions, installed from outside the package.

`Tracer.install()` replaces each traced function by a wrapper in every tkit
module that holds a reference to it (so `tkit.scan.decompose` and
`tkit.regularity.raising_powers` are traced too, not only the defining
module's name), and `uninstall()` puts the originals back. A span is
`(seq, parent, name, start_ns, end_ns, attrs)`, where `parent` is the
`(pid, seq)` of the enclosing span. Spans stay in memory; self time is
derived from them after the run.

Scan worker processes are forked with the wrappers in place. A worker
appends its spans to `<worker_dir>/<pid>.jsonl` each time its outermost
span closes, before the result goes back to the parent, because pool
workers are terminated without running exit handlers.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, Optional


def _stack_bytes(args, kwargs, result) -> dict[str, int]:
    # commutant_basis stacks one k^2 x k^2 float64 block per generator;
    # the size is computed from the argument shapes, not measured
    gens = args[0] if args else kwargs["generators"]
    k = gens[0].shape[0]
    return {"stack_bytes": 8 * k ** 4 * len(gens)}


def _decomposition(args, kwargs, rep) -> dict[str, Any]:
    return {
        "rank_flag": int(rep.rank_flag),
        "non_real": sum("non-real" in note for note in rep.notes),
        "residual_max": max((m.residual for m in rep.modules), default=0.0),
    }


def _scan_summary(args, kwargs, summary) -> dict[str, Any]:
    return {"instances": summary.instances, **summary.counts}


# (module, function, observer of (args, kwargs, result) -> span attrs)
TRACED: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("cli", "main", None),
    ("cli", "load_graph", None),
    ("graphs", "parse_graph6", None),
    ("graphs", "local_metric", None),
    ("graphs", "distance_partition", None),
    ("graphs", "structure_report", None),
    ("exact", "build_operators", None),
    ("exact", "raising_powers", None),
    ("exact", "solve_linear", None),
    ("regularity", "fit_pdr", None),
    ("regularity", "fit_endpoint1", None),
    ("decompose", "decompose", _decomposition),
    ("decompose", "commutant_basis", _stack_bytes),
    ("decompose", "dual_block_dims", None),
    ("report", "analyze", None),
    ("report", "report_to_json", None),
    ("scan", "scan_corpus", _scan_summary),
    ("scan", "scan_graph", None),
    ("constructions", "apex_extension", None),
)
TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in TRACED)
_MODULES = ("tkit", "tkit.cli", "tkit.graphs", "tkit.exact", "tkit.regularity",
            "tkit.decompose", "tkit.report", "tkit.scan", "tkit.constructions")


class Tracer:
    def __init__(self, worker_dir: Path):
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, int]] = []
        self._seq = 0
        self._base_depth = 0      # open spans inherited from the parent process
        self._worker_file = None
        self._patches: list[tuple[Any, str, Any]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in _MODULES]
        for mod_name, fn_name, observe in TRACED:
            original = getattr(importlib.import_module(f"tkit.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, observe)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._patches.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patches):
            setattr(mod, fn_name, original)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, observe, args, kwargs)
        return traced

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, observe, args, kwargs):
        if os.getpid() != self.pid:
            self._enter_forked_child()
        parent = self.stack[-1] if self.stack else None
        seq = self._seq
        self._seq += 1
        self.stack.append((self.pid, seq))
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(seq, parent, name, start, None)
            raise
        self._close(seq, parent, name, start,
                    observe(args, kwargs, result) if observe else None)
        return result

    def _close(self, seq, parent, name, start, attrs) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        self.spans.append((seq, parent, name, start, end, attrs))
        if self._worker_file is not None and len(self.stack) == self._base_depth:
            self._worker_file.write(
                "".join(json.dumps(self._record(self.pid, s)) + "\n" for s in self.spans))
            self._worker_file.flush()
            self.spans.clear()

    def _enter_forked_child(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self._base_depth = len(self.stack)
        self._worker_file = open(self.worker_dir / f"{self.pid}.jsonl", "a")

    # -- results -----------------------------------------------------------

    @staticmethod
    def _record(pid: int, span: tuple) -> dict[str, Any]:
        seq, parent, name, start, end, attrs = span
        return {"pid": pid, "seq": seq, "parent": parent, "name": name,
                "start_ns": start, "end_ns": end, "attrs": attrs}

    def take(self) -> list[dict[str, Any]]:
        """Return and forget the spans recorded so far, this process's and
        those its scan workers wrote out."""
        records = [self._record(self.pid, s) for s in self.spans]
        self.spans.clear()
        for path in sorted(self.worker_dir.glob("*.jsonl")):
            with open(path) as fh:
                records.extend(json.loads(line) for line in fh)
            path.unlink()
        return records


def self_times(records: Iterable[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name: call count and self time, i.e. each span's duration
    minus the durations of its direct children in the same process."""
    records = list(records)
    child_ns: dict[tuple[int, int], int] = defaultdict(int)
    for r in records:
        parent = r["parent"]
        if parent is not None and parent[0] == r["pid"]:
            child_ns[tuple(parent)] += r["end_ns"] - r["start_ns"]
    out: dict[str, dict[str, float]] = {}
    for r in records:
        entry = out.setdefault(r["name"], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        own = r["end_ns"] - r["start_ns"] - child_ns[(r["pid"], r["seq"])]
        entry["self_s"] += own / 1e9
    return out


def dump(records: Iterable[dict[str, Any]], path: Path) -> None:
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r, separators=(",", ":")) + "\n")
