"""Count the lines of the package source, in all and code only.

Code-only lines are those that hold a token of code. Blank lines, comments
and the docstrings of modules, classes and functions do not count; any
other string, such as a multi-line message, counts on every line it spans.

    python3 tools/count_src_lines.py [SRC_DIR]

prints one line per module and a total, for ``src/`` by default. Only the
standard library is used.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings of ``tree``'s scopes span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code-only lines) of one module's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    files = sorted(root.rglob("*.py"))
    if not files:
        print(f"no Python files under {root}", file=sys.stderr)
        return 2
    total = code = 0
    width = max(len(str(p.relative_to(root))) for p in files)
    print(f"{'module':<{width}}  {'total':>6}  {'code':>6}")
    for path in files:
        lines, code_lines = count(path.read_text(encoding="utf-8"))
        total += lines
        code += code_lines
        print(f"{str(path.relative_to(root)):<{width}}  {lines:>6}  {code_lines:>6}")
    print(f"{'all':<{width}}  {total:>6,}  {code:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
