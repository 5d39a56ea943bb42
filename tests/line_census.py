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
start ``python -m metacausal.cli`` as a subprocess.  ``OTHER_PROCESS``
names that code by function, so that edits elsewhere leave it valid, and
its never-run lines are marked as such.  The exit status is pytest's when
the suite fails, else 1 when a never-run line falls outside that code.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "metacausal"

# Code that runs only in other processes, by module: the named functions
# whole, their ``except`` branches alone, or the ``__main__`` guard.
OTHER_PROCESS = {
    "discovery.py": {"_start_worker": "whole", "_run_in_worker": "whole"},  # the pool workers
    "cli.py": {"_env_seed": "except", "__main__": "guard"},  # a bad METACAUSAL_SEED; python -m
}


def runnable_lines(path: Path) -> set[int]:
    """Lines of ``path`` to which its compiled code attributes an instruction."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's RESUME
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def other_process_lines(path: Path) -> set[int]:
    """Lines of ``path`` inside the code that ``OTHER_PROCESS`` names."""
    named = OTHER_PROCESS.get(str(path.relative_to(PACKAGE)), {})
    tree = ast.parse(path.read_text())
    spans, found = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in named:
            found.add(node.name)
            if named[node.name] == "whole":
                spans.append(node)
            else:
                spans += [n for n in ast.walk(node) if isinstance(n, ast.ExceptHandler)]
    guards = [n for n in tree.body if isinstance(n, ast.If) and ast.unparse(n.test) == "__name__ == '__main__'"]
    if guards and "__main__" in named:
        found.add("__main__")
        spans += guards
    if found != set(named):
        raise SystemExit(f"{path.name} has no {sorted(set(named) - found)}; update OTHER_PROCESS")
    return {line for node in spans for line in range(node.lineno, node.end_lineno + 1)}


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

    total = unexpected = 0
    print()
    for path in sorted(PACKAGE.rglob("*.py")):
        never = runnable_lines(path) - seen[str(path)]
        elsewhere = never & other_process_lines(path)
        total += len(never)
        unexpected += len(never - elsewhere)
        for lines, note in ((never - elsewhere, ""), (elsewhere, " (other processes)")):
            if lines:
                print(f"{path.relative_to(PACKAGE)}: {_ranges(sorted(lines))}{note}")
    print(f"{total} never-run lines in src/metacausal, {unexpected} outside code run only in other processes")
    return int(status) or int(unexpected > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
