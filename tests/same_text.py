"""Byte-for-byte comparison of two texts with a short failure report.

pytest diffs the two sides of a failing ``==`` line by line, which on
artifacts of hundreds of kB takes minutes; :func:`assert_same_text`
compares every byte and reports both lengths and the first differing
line instead.
"""

from __future__ import annotations


def assert_same_text(got, want) -> None:
    """Fail unless ``got == want`` (both str or both bytes), naming the first differing line."""
    __tracebackhide__ = True
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next(
        (i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
        min(len(got_lines), len(want_lines)),
    )
    got_line = got_lines[i] if i < len(got_lines) else "<end of text>"
    want_line = want_lines[i] if i < len(want_lines) else "<end of text>"
    raise AssertionError(
        f"texts differ: got {len(got)} long, expected {len(want)}; first at line {i + 1}:\n"
        f"  got      {got_line!r:.300}\n  expected {want_line!r:.300}"
    )
