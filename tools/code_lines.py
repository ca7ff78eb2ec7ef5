"""Count the code lines of the tucksketch package, module by module.

A code line holds at least one token that is not a comment, a blank or a
line break, and lies outside every docstring (the leading string literal of
a module, class or function body). It counts ``src/tucksketch`` of the
checkout that holds this script, from any working directory:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import pathlib
import sys
import tokenize

_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    """Number of code lines in one Python source file."""
    source = path.read_text()
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NON_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "tucksketch"


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.relative_to(PACKAGE)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
