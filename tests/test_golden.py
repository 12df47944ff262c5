"""Byte-for-byte comparison with the stored golden reports and witnesses
(see golden.py for what they cover and how to regenerate them)."""
import gzip
import json

from golden import (REPORTS_PATH, SMALL_REPORTS_PATH, WITNESSES_PATH,
                    render_reports, render_small_reports, render_witnesses)

ABSENT = "<absent>"
SHOWN_LINES = 25


def _json_or_text(line: str):
    try:
        return json.loads(line)
    except ValueError:
        return line


def _changed_paths(old, new, path: str = ""):
    """'path: old -> new' for every JSON leaf where the two values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _changed_paths(old.get(key, ABSENT), new.get(key, ABSENT),
                                      f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for k, (a, b) in enumerate(zip(old, new)):
            yield from _changed_paths(a, b, f"{path}[{k}]")
    elif old != new:
        yield f"{path or '<line>'}: {json.dumps(old)} -> {json.dumps(new)}"


def _assert_same_lines(actual: str, expected: str) -> None:
    got, want = actual.splitlines(), expected.splitlines()
    changed = [f"line {lineno}: " + "; ".join(_changed_paths(_json_or_text(b),
                                                             _json_or_text(a)))
               for lineno, (a, b) in enumerate(zip(got, want), start=1) if a != b]
    if len(got) != len(want):
        changed.append(f"{len(got)} lines, golden has {len(want)}")
    if len(changed) > SHOWN_LINES:
        changed[SHOWN_LINES:] = [f"... and {len(changed) - SHOWN_LINES} more"]
    assert not changed, "differs from golden (golden -> now):\n" + "\n".join(changed)
    assert actual == expected


def test_check_reports_match_golden():
    expected = gzip.decompress(REPORTS_PATH.read_bytes()).decode("ascii")
    _assert_same_lines(render_reports(), expected)


def test_small_graph_decompose_reports_match_golden():
    expected = gzip.decompress(SMALL_REPORTS_PATH.read_bytes()).decode("ascii")
    _assert_same_lines(render_small_reports(), expected)


def test_condition_witnesses_match_golden():
    _assert_same_lines(render_witnesses(), WITNESSES_PATH.read_text())
