"""Coverage probe: the statements of ``src/gridpulse`` that the test suite
never runs.

    python tests/audit.py                     # the whole suite; writes tests/audit.json
    python tests/audit.py tests/test_report.py   # a part of it; writes nothing

A statement is every ``ast`` statement inside a function body, docstrings
left out; it ran if its first line had a line event. ``sys.settrace`` and
``threading.settrace`` trace ``src/gridpulse`` frames only, over one pytest
run in this process, so code that runs only in a subprocess counts as never
run. The never-run statements print as ``file:line``, and the script exits 1
if there is one or if pytest fails. It needs only the standard library and
pytest; pytest does not collect it (its name does not start with ``test_``).
The whole suite takes about 15 minutes on a 2-CPU host, some ten times its
untraced time.
"""

from __future__ import annotations

import ast
import json
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = (ROOT / "src" / "gridpulse").resolve()


def statements(path: Path) -> list[int]:
    """The first line of each statement inside a function body of ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    inside, docstrings = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.add(node.body[0])
            for stmt in node.body:
                inside.update(n for n in ast.walk(stmt) if isinstance(n, ast.stmt))
    return sorted(n.lineno for n in inside - docstrings)


def traced_run(args: list[str]) -> tuple[set, int]:
    """The (file, line) pairs of ``src/gridpulse`` that had a line event
    during ``pytest.main(args)``, and pytest's exit code."""
    ran, traced = set(), {}  # traced: a code object's file name -> its path in PACKAGE or None

    def lines(frame, event, arg):
        if event == "line":
            ran.add((traced[frame.f_code.co_filename], frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in traced:
            path = Path(name).resolve()
            traced[name] = path if path.parent == PACKAGE else None
        return lines if traced[name] else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran, int(code)


def main(argv: list[str]) -> int:
    ran, code = traced_run(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    total, never = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = statements(path)
        total += len(lines)
        never += [f"{path.relative_to(ROOT)}:{line}" for line in lines
                  if (path, line) not in ran]
    print(f"\n{len(never)} of {total} function-body statements of src/gridpulse never ran")
    print("\n".join(never))
    if not argv:
        audit = {"statements": total, "never_run": never, "pytest_exit_code": code}
        (ROOT / "tests" / "audit.json").write_text(json.dumps(audit, indent=2) + "\n")
    return int(bool(never) or code != 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
