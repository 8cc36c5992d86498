#!/usr/bin/env python3
"""Line counts of the package's modules: all lines and code lines.

    python3 tests/code_lines.py

For each module of `src/turbloc` it prints the `wc -l` count and the code
lines, then the totals.  A code line holds a token outside docstrings and
comments (found with `ast` and `tokenize`); blank lines, comment lines and
docstring lines do not count, and a multi-line token counts every line it
spans.  pytest does not collect this script (its name does not start with
test_).
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "turbloc"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Lines of the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> int:
    total_wc = total_code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        wc, code = source.count("\n"), code_lines(source)
        total_wc += wc
        total_code += code
        print(f"{path.name:16s} {wc:6,d} {code:6,d}")
    print(f"{'total':16s} {total_wc:6,d} {total_code:6,d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
