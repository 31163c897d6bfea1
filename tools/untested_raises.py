"""List the ``raise`` statements of ``src/semimatch`` that no tier-1 test executes.

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer
limited to the package's files, so ``coverage`` is not needed, then prints
every ``raise`` statement whose first line never ran, as ``path:line:
source``, and a count. Code that tests run in a subprocess (the demo
scripts) is not traced. Tracing makes the suite about twice as slow.

    python tools/untested_raises.py [extra pytest arguments]

The exit status is pytest's; a suite that did not pass makes the list
unreliable. The ``raise`` lines are read before the run; if a file of the
package changed during it, the lines no longer match what ran, and the tool
prints no list and exits with status 6 (past pytest's 0-5).
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semimatch"


def raise_lines(source: str) -> list[int]:
    """The first line of every ``raise`` statement in a file's source."""
    tree = ast.parse(source)
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


def mtimes() -> dict[Path, int]:
    return {path: path.stat().st_mtime_ns for path in PACKAGE.glob("*.py")}


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    before = mtimes()
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(before)}
    status, executed = run_traced(["-q", "--continue-on-collection-errors", *argv])
    if changed := sorted({path for path, _ in mtimes().items() ^ before.items()}):
        print("files changed during the run, so their raise lines may not match what ran: "
              + ", ".join(str(path.relative_to(ROOT)) for path in changed))
        return 6
    unreached, total = [], 0
    for path, text in sources.items():
        lines = text.splitlines()
        for line in raise_lines(text):
            total += 1
            if (str(path), line) not in executed:
                unreached.append(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
    print("\n".join(unreached))
    print(f"{len(unreached)} of {total} raise statements not reached by a test")
    if status:
        print(f"pytest exited with status {status}; the list may be incomplete")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
