"""Count the code lines of Python files: lines that carry a token other than a comment or a docstring.

A line counts when any token other than a comment, a docstring or layout
(newlines, indentation, the end marker) starts on it, ends on it or spans
it, so every line of a multi-line expression or of a multi-line string that
is not a docstring counts once.  Blank lines, comment lines and docstrings
do not.  A docstring is a string literal standing alone as the first
statement of a module, class or function body.

Usage: ``python tools/code_lines.py [PATH ...]`` (default ``src/cfrac``).  A
directory is searched for ``*.py`` files, ``__main__.py`` included.  Prints
one ``<lines>  <file>`` row per file and a ``<lines>  total`` row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = frozenset(
    {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
     tokenize.ENDMARKER}
)


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) where each docstring literal of ``source`` begins."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = _docstring_starts(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _python_files(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else (path,)


def main(argv=None) -> None:
    total = 0
    for path in _python_files(argv or ["src/cfrac"]):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
