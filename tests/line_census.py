"""List the lines of ``src/metacausal`` that the fast test loop never runs.

Run from the repository root (it is not collected as a test):

    python tests/line_census.py [more pytest arguments]

It runs ``pytest -q -m "not slow"`` with the arguments appended (a later
``-m`` replaces the first, so ``-m ""`` adds the slow tests).  The suite
runs in this process under a ``sys.settrace`` line tracer, which roughly
doubles its wall time, so the census is opt-in and stays out of Tier-1.
It then prints the never-run lines by file, as ranges, and their total.

A line counts as runnable when the compiled module attributes an
instruction to it, and as run when the tracer sees a line event on it or
enters a code object that starts on it.  Code that runs only in another
process is not seen: the pool workers (``discovery._start_worker`` and
``_run_in_worker``, and whatever a task runs there) and the CLI tests that
start ``python -m metacausal.cli`` as a subprocess.  The exit status is
pytest's.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "metacausal"


def runnable_lines(path: Path) -> set[int]:
    """Lines of ``path`` to which its compiled code attributes an instruction."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's RESUME
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``"3-5, 9"``."""
    parts, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            parts.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(parts)


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    seen: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen[filename].add(frame.f_code.co_firstlineno)
        return local

    os.chdir(ROOT)
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-m", "not slow", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    print()
    for path in sorted(PACKAGE.rglob("*.py")):
        never = sorted(runnable_lines(path) - seen[str(path)])
        if never:
            total += len(never)
            print(f"{path.relative_to(PACKAGE)}: {_ranges(never)}")
    print(f"{total} never-run lines in src/metacausal")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
