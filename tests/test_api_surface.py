"""Every public name of the package has a caller in the package or the benchmark.

The package's public API is what its own modules and locbench use: a public
module-level function, class or constant of `src/turbloc`, or a public
method of such a class, must appear as a name or an attribute somewhere in
`src/turbloc/*.py` or the non-test `locbench/*.py` outside its own
definition.  Uses are matched by bare name, so a method counts as used
when any attribute of that name is read.  Tests do not count as callers, so
a name that only tests reach fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "turbloc").glob("*.py"))
BENCHMARK = sorted(p for p in (ROOT / "locbench").glob("*.py") if not p.name.startswith("test_"))

# the noise-grid experiment and its CSV: called by their users, not by the package
ENTRY_POINTS = {"run_sweep", "SweepReport.to_csv"}


def public(name):
    return not name.startswith("_")


def definitions(tree):
    """(qualified name, bare name, first line, last line) of each public
    module-level function, class and constant, and each public method of a
    public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and public(node.name):
            yield node.name, node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and public(item.name):
                        yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and public(target.id):
                    yield target.id, target.id, node.lineno, node.end_lineno


def uses(tree):
    """(name, line) of every name and attribute read or written in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unused_names():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE + BENCHMARK}
    seen = {(path, name, line) for path, tree in trees.items() for name, line in uses(tree)}
    unused = []
    for path in PACKAGE:
        for qualified, name, first, last in definitions(trees[path]):
            if not any(n == name and not (p == path and first <= line <= last) for p, n, line in seen):
                unused.append(qualified)
    return unused


def test_every_public_name_has_a_caller():
    unused = sorted(set(unused_names()) - ENTRY_POINTS)
    assert not unused, f"public names that nothing outside the tests uses: {', '.join(unused)}"


def test_entry_points_exist():
    defined = {q for path in PACKAGE for q, *_ in definitions(ast.parse(path.read_text()))}
    assert ENTRY_POINTS <= defined
