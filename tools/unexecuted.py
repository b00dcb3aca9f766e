"""List the statements of ``src/dpattn`` that no Tier-1 test executes.

Runs the Tier-1 suite (the ``testpaths`` of ``pyproject.toml``) in this process
under a line tracer, ``sys.settrace`` and ``threading.settrace``, that records
only the package's own files.  Then it prints ``file:line: source`` for every
statement that compiles to code and none of whose lines ran; a compound
statement (``if``, ``for``, ``def``, ...) counts by its header, its body by its
own statements.  The standard library and pytest only::

    python tools/unexecuted.py [pytest arguments]

Subprocesses are not traced, so a line that only a subprocess of a test
reaches is listed, and a module that only a subprocess imports is listed as
``never imported``.  Tracing makes the suite about 2.5 times slower.  The exit code
is pytest's when the suite fails, else 0.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dpattn"


def code_lines(code: types.CodeType) -> set[int]:
    """The lines that carry bytecode in ``code`` and in the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def statements(source: str, filename: str) -> list[tuple[int, int]]:
    """The ``(first, last)`` lines of each statement of ``source`` that compiles to code:
    a compound statement's header, from its first decorator, or a simple statement."""
    has_code = code_lines(compile(source, filename, "exec"))
    spans = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        if has_code.intersection(range(first, last + 1)):
            spans.append((first, last))
    return sorted(spans)


def traced_lines(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` under the tracer: its exit code and the lines run per file."""
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    code, ran = traced_lines(argv)
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        if str(path) not in ran:
            print(f"{path.relative_to(ROOT)}: never imported")
            continue
        source = path.read_text()
        lines = source.splitlines()
        for first, last in statements(source, str(path)):
            if not ran[str(path)].intersection(range(first, last + 1)):
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
