#!/usr/bin/env python3
"""Line counts of the package's modules, and its settable config values.

    python3 tests/code_lines.py

For each module of `src/turbloc` it prints the `wc -l` count and the code
lines, then the totals.  A code line holds a token outside docstrings and
comments (found with `ast` and `tokenize`); blank lines, comment lines and
docstring lines do not count, and a multi-line token counts every line it
spans.  It then prints the init fields of the three config classes, per
class and in total: the values a caller can set.  The script imports
turbloc from the `src/` beside it; pytest does not collect it (its name
does not start with test_).
"""

import ast
import dataclasses
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "turbloc"
sys.path.insert(0, str(SRC))

from turbloc.matching import MatchConfig  # noqa: E402
from turbloc.posegraph import GraphWeights, SolverConfig  # noqa: E402

CONFIGS = (GraphWeights, SolverConfig, MatchConfig)
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
    print()
    total_fields = 0
    for cls in CONFIGS:
        names = [f.name for f in dataclasses.fields(cls) if f.init]
        total_fields += len(names)
        print(f"{cls.__name__:16s} {len(names):6d}  {' '.join(names)}")
    print(f"{'settable total':16s} {total_fields:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
