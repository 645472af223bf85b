"""Count the code lines of Python sources: no blank, comment or docstring lines.

    python tools/code_lines.py src/stubborn

A line counts when a token other than a comment, a newline or an
indentation change starts on it or spans it: every line of a multi-line
call or of a multi-line string assigned to a name counts.  A docstring,
the string expression that opens a module, class or function body, does
not count, however many lines it spans.  Directories are searched for
*.py files recursively; the total over every file is printed.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The code lines of one module's source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def python_files(paths: list[str]) -> list[Path]:
    """The files named, and the *.py files under the directories named, sorted."""
    files = []
    for name in paths:
        path = Path(name)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str]) -> int:
    print(sum(code_lines(path.read_text(encoding="utf-8")) for path in python_files(argv)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
