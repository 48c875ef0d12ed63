"""List the lines of src/stepladder that no test runs.

    python tools/uncovered.py [pytest args]

runs pytest in this process, with the given arguments, under a line
tracer built on the standard library alone (sys.settrace for this
thread, threading.settrace for every thread started later).  The tracer
is installed before anything from stepladder is imported, so module-level
code is traced too, and it follows only frames of src/stepladder/*.py.
Then it prints "module:line: source" for each executable line (a line
that the compiled code's co_lines names) that no test ran, and the number
of such lines per module and in total.  The exit status is pytest's.

Tests that run the CLI in a child process (through subprocess) are not
traced: a line that only they reach is listed as not run.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stepladder"


def executable_lines(path: Path) -> set[int]:
    """The lines that the code compiled from path names, in every nested
    function, class and comprehension."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)  # not None or 0
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def _tracer(ran: dict[str, set[int]]):
    """A trace function that adds each line run in a file named in ran (by
    its real path) to ran[that file], and ignores every other frame."""
    by_name: dict[str, set[int] | None] = {}  # co_filename -> its set in ran

    def trace(frame, _event, _arg):
        name = frame.f_code.co_filename
        lines = by_name.get(name, False)
        if lines is False:
            lines = by_name[name] = ran.get(os.path.realpath(name))
        if lines is None:
            return None
        lines.add(frame.f_lineno)  # the call: a def, class or lambda line

        def local(frame, _event, _arg):
            lines.add(frame.f_lineno)
            return local
        return local
    return trace


def main(argv: list) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    modules = sorted(PACKAGE.glob("*.py"))
    ran: dict[str, set[int]] = {str(path): set() for path in modules}
    trace = _tracer(ran)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    imported = sys.modules.get("stepladder")
    if imported is not None and Path(imported.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"the tests imported stepladder from {imported.__file__}, "
                         f"not from {PACKAGE}")
    counts = []
    for path in modules:
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(executable_lines(path) - ran[str(path)])
        for line in missed:
            print(f"{path.name}:{line}: {source[line - 1].strip()}")
        counts.append((len(missed), path.name))
    for n, name in counts:
        print(f"{n:6}  {name}")
    print(f"{sum(n for n, _name in counts):6}  total")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
