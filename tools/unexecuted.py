"""List the statements of ``src/polagram`` that no test runs.

Runs pytest in this process under a ``sys.settrace`` line tracer, then
prints, per module of the package, each statement whose lines were never
traced, and a last line with their number.  Only this process is traced:
a statement that a test runs in a subprocess (``python -m polagram.cli``)
is listed too.

Usage, from the root of the repository::

    python tools/unexecuted.py [--allow FILE] [PYTEST_ARGS ...]

With no pytest arguments pytest runs the tier-1 suite (``-q
--continue-on-collection-errors``).  Tracing makes the suite about five
times slower.

``--allow FILE`` names the statements that may stay unrun, one a line: the
module's path, a colon and the statement's first line, as this tool prints
them without the line number, then ``  -- `` and why no test runs it.  A
line may be listed as often as such statements are; ``#`` starts a comment
line.  The exit code is pytest's when pytest fails, else 1 when a statement
not run is not listed, or a listed one ran, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polagram"
_PREFIX = str(PACKAGE) + "/"

# line numbers traced, by file name
_TRACED: dict[str, set[int]] = {}
_HAS_DOCSTRING = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef,
                  ast.Module)


# The trace functions are module-level: a function nested in another would
# close over its frame's variables, a reference cycle per call, and the
# suite's tests that a search leaves no cyclic garbage would then fail.

def _trace_calls(frame, event, arg):
    """Trace the lines of a call into the package only."""
    if frame.f_code.co_filename.startswith(_PREFIX):
        return _trace_lines
    return None


def _trace_lines(frame, event, arg):
    if event == "line":
        _TRACED.setdefault(frame.f_code.co_filename, set()).add(
            frame.f_lineno)
    return _trace_lines


def _statements(tree: ast.Module):
    """Each statement of ``tree`` that compiles to code, with the lines
    whose trace means it ran: a compound statement's header, from its
    first decorator to the line before its body, or a simple statement's
    every line.  Docstrings and annotations without a value are left out."""
    docstrings = {node.body[0] for node in ast.walk(tree)
                  if isinstance(node, _HAS_DOCSTRING)
                  and ast.get_docstring(node) is not None}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings \
                or isinstance(node, ast.AnnAssign) and node.value is None:
            continue
        first = min([node.lineno] + [decorator.lineno for decorator
                                     in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node, range(first, max(first, last) + 1)


def unexecuted(path: Path):
    """The statements of the module at ``path`` that no traced line
    reached, as (line, first line of source), in line order."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    traced = _TRACED.get(str(path), set())
    return sorted((node.lineno, lines[node.lineno - 1].strip())
                  for node, span in _statements(ast.parse(text))
                  if traced.isdisjoint(span))


def read_allowed(path: Path) -> Counter:
    """The statements the file at ``path`` allows to stay unrun, as
    (module path, first line of source), each as often as it is listed.
    Raises ValueError for a line with no reason."""
    allowed: Counter = Counter()
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        entry, _, reason = line.partition("  -- ")
        module, _, source = entry.partition(": ")
        if not (reason.strip() and source.strip()):
            raise ValueError(f"{path}:{lineno}: expected "
                             f"'PATH: STATEMENT  -- REASON'")
        allowed[module, source.strip()] += 1
    return allowed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--allow", type=Path, metavar="FILE")
    args, pytest_args = parser.parse_known_args(argv)
    allowed = Counter() if args.allow is None else read_allowed(args.allow)
    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)
    try:
        status = pytest.main(pytest_args
                             or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = unlisted = 0
    for path in sorted(PACKAGE.glob("*.py")):
        module = str(path.relative_to(ROOT))
        missed = unexecuted(path)
        total += len(missed)
        for lineno, source in missed:
            if allowed[module, source] > 0:
                allowed[module, source] -= 1
                note = "  (allowed)"
            else:
                unlisted += 1
                note = ""
            print(f"{module}:{lineno}: {source}{note}")
    ran = sorted(allowed.elements())
    for module, source in ran:
        print(f"{module}: {source}  (allowed, but it ran)")
    print(f"{total} statements not run, {unlisted} of them not allowed; "
          f"{len(ran)} allowed statements ran")
    return int(status) or int(bool(unlisted or ran))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
