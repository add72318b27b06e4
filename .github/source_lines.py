"""Split the non-blank lines of Python files into code, docstring and comment lines.

Usage: python3 .github/source_lines.py FILE [FILE ...]

Reads each file with the stdlib ``tokenize``.  A docstring line lies inside
a string that stands alone as a statement (module, class and function
docstrings); a comment line holds nothing but a comment; every other
non-blank line is code, a trailing comment included.  Prints a Markdown
table: one row per file and a total row.
"""

import sys
import tokenize
from pathlib import Path

# tokens that neither start nor end a statement
_SKIPPED = (tokenize.NL, tokenize.COMMENT)
_STATEMENT_START = (tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)


def line_kinds(path: Path) -> tuple[int, int, int]:
    """(code, docstring, comment) line counts of one file."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    nonblank = {n for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if line.strip()}
    significant = [t for t in tokens if t.type not in _SKIPPED]
    doc = set()
    for before, tok, after in zip(significant, significant[1:], significant[2:]):
        if tok.type == tokenize.STRING and before.type in _STATEMENT_START and after.type == tokenize.NEWLINE:
            doc.update(range(tok.start[0], tok.end[0] + 1))
    comment = {t.start[0] for t in tokens if t.type == tokenize.COMMENT and not t.line[: t.start[1]].strip()}
    comment -= doc
    doc &= nonblank
    return len(nonblank - doc - comment), len(doc), len(comment)


def main(paths: list[str]) -> int:
    print("| module | code | docstring | comment | non-blank |")
    print("|---|---:|---:|---:|---:|")
    totals = [0, 0, 0]
    for path in map(Path, paths):
        counts = line_kinds(path)
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"| {path.name} | {' | '.join(map(str, counts))} | {sum(counts)} |")
    print(f"| total | {' | '.join(map(str, totals))} | {sum(totals)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
