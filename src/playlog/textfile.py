"""The one reader of text input files (records, clock, windows, config and rosters) and their comment rule."""

from __future__ import annotations

import os
from typing import Iterable, Iterator


def read_lines(path: str | os.PathLike[str]) -> Iterator[str]:
    """Yield the lines of a UTF-8 text file, each with its ending "\\n" (the last may lack it).

    Only "\\n" ends a line.  Universal newlines would also break at a lone
    "\\r", and str.splitlines() at form feeds and other separators a
    comment may hold, shifting every later line number.  Each line is
    decoded on its own, so a bad byte is reported as "PATH line N: invalid
    UTF-8 byte 0xBB at byte K of the line (reason)" (a ValueError, K
    counted from 1), and only after every line before it has been handed on.
    """
    with open(path, "rb") as f:
        for line_number, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(
                    f"{os.fspath(path)} line {line_number}: invalid UTF-8 byte 0x{raw[exc.start]:02x}"
                    f" at byte {exc.start + 1} of the line ({exc.reason})"
                ) from None
            yield line


def content_lines(lines: Iterable[str]) -> Iterator[tuple[int, str, str]]:
    """Yield ``(line number, raw line, stripped line)`` for each line that is not blank or a '#' comment.

    Line numbers count every line, skipped ones included, from 1.  This is
    the comment rule of every text input format.
    """
    for line_number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            yield line_number, raw, stripped
