"""Line counts of the ``pdeopt`` package, per module and in total.

Prints, for each module under ``src/pdeopt``, its total lines and its code
lines: the lines that hold a token other than a comment and are not part of
a module, class or function docstring.  Blank lines, comment-only lines and
docstrings are not code.

    python scripts/src_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pdeopt"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """Total lines and code lines of a module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main() -> None:
    totals = [0, 0]
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = count(path.read_text())
        totals = [a + b for a, b in zip(totals, lines)]
        print(f"{path.name:<16}{lines[0]:>8,}{lines[1]:>8,}")
    print(f"{'total':<16}{totals[0]:>8,}{totals[1]:>8,}")


if __name__ == "__main__":
    main()
