"""List the ``raise`` statements of ``src/semimatch`` that no tier-1 test executes.

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer
limited to the package's files, so ``coverage`` is not needed, then prints
every ``raise`` statement whose first line never ran, as ``path:line:
source``, and a count. Code that tests run in a subprocess (the demo
scripts) is not traced. Tracing makes the suite about twice as slow.

    python tools/untested_raises.py [extra pytest arguments]

The exit status is pytest's; a suite that did not pass makes the list
unreliable.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semimatch"


def raise_lines(path: Path) -> list[int]:
    """The first line of every ``raise`` statement in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)})


def run_traced(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit status and the ``(file, line)`` pairs executed in the package."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    executed: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), executed


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    status, executed = run_traced(["-q", "--continue-on-collection-errors", *argv])
    unreached, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in raise_lines(path):
            total += 1
            if (str(path), line) not in executed:
                unreached.append(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print("\n".join(unreached))
    print(f"{len(unreached)} of {total} raise statements not reached by a test")
    if status:
        print(f"pytest exited with status {status}; the list may be incomplete")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
