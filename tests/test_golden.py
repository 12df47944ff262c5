"""Byte-for-byte comparison with the stored golden reports and witnesses
(see golden.py for what they cover and how to regenerate them)."""
import gzip

from golden import REPORTS_PATH, WITNESSES_PATH, render_reports, render_witnesses


def _assert_same_lines(actual: str, expected: str) -> None:
    got, want = actual.splitlines(), expected.splitlines()
    for lineno, (a, b) in enumerate(zip(got, want), start=1):
        assert a == b, f"first difference at line {lineno}"
    assert len(got) == len(want)
    assert actual == expected


def test_check_reports_match_golden():
    expected = gzip.decompress(REPORTS_PATH.read_bytes()).decode("ascii")
    _assert_same_lines(render_reports(), expected)


def test_condition_witnesses_match_golden():
    _assert_same_lines(render_witnesses(), WITNESSES_PATH.read_text())
