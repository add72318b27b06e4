"""Fail on module-level imports that a file never uses, and on dead private helpers.

Usage: python3 .github/unused_imports.py DIR [DIR ...]

Scans every ``*.py`` file under the given directories with ``ast``.  A name
bound by a top-level ``import`` or ``from ... import`` counts as used when
it is read anywhere in the file or listed in ``__all__``.  ``from
__future__`` and star imports are skipped.

Each package found under the directories (a directory holding
``__init__.py``) is also scanned for dead private helpers: a module-level
function, class or constant whose name starts with one underscore and that
no module of the package reads, as a name or as an attribute.  A function
or class that reads only itself counts as dead.

Prints one line per finding and exits 1 if there is any.
"""

import ast
import sys
from pathlib import Path


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    bound: list[tuple[int, str]] = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in used]


def _reads(node: ast.AST) -> set[str]:
    """Every name a subtree reads, bare or as an attribute."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def dead_private_helpers(trees: dict[Path, ast.Module]) -> list[tuple[Path, int, str]]:
    """The module-level private definitions of a package that no module reads."""
    defined: list[tuple[Path, int, str]] = []
    read: set[str] = set()
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _private(node.name):
                    defined.append((path, node.lineno, node.name))
                    read |= _reads(node) - {node.name}
                    continue
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name) and _private(n.id):
                            defined.append((path, node.lineno, n.id))
            read |= _reads(node)
    return [(path, line, name) for path, line, name in defined if name not in read]


def main(dirs: list[str]) -> int:
    found = 0
    for path in sorted(p for d in dirs for p in Path(d).rglob("*.py")):
        for line, name in unused_imports(ast.parse(path.read_text(encoding="utf-8"))):
            print(f"{path}:{line}: unused import {name!r}")
            found += 1
    for package in sorted(p.parent for d in dirs for p in Path(d).rglob("__init__.py")):
        trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
        for path, line, name in dead_private_helpers(trees):
            print(f"{path}:{line}: private helper {name!r} is never read in {package}")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
