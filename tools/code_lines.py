"""Count the code lines of Python sources: the lines that hold a token which
is neither a comment nor part of a docstring (of a module, class or
function).  Blank lines do not count.

Usage::

    python tools/code_lines.py src [tests ...]

Each argument is a ``.py`` file or a directory searched for them
recursively.  One line per argument gives its count; with more than one
argument a last line gives the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef,
                  ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """The number of code lines of the Python source ``text``."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def count(path: Path) -> int:
    """The code lines of ``path``, a file or every ``.py`` file under it."""
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(code_lines(f.read_text(encoding="utf-8")) for f in files)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    counts = [(arg, count(Path(arg))) for arg in argv]
    for arg, n in counts:
        print(f"{n}\t{arg}")
    if len(counts) > 1:
        print(f"{sum(n for _, n in counts)}\ttotal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
