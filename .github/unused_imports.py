"""Fail on module-level imports that a file never uses.

Usage: python3 .github/unused_imports.py DIR [DIR ...]

Scans every ``*.py`` file under the given directories with ``ast``.  A name
bound by a top-level ``import`` or ``from ... import`` counts as used when
it is read anywhere in the file or listed in ``__all__``.  ``from
__future__`` and star imports are skipped.  Prints one line per unused
name and exits 1 if there is any.
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


def main(dirs: list[str]) -> int:
    found = 0
    for path in sorted(p for d in dirs for p in Path(d).rglob("*.py")):
        for line, name in unused_imports(ast.parse(path.read_text(encoding="utf-8"))):
            print(f"{path}:{line}: unused import {name!r}")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
