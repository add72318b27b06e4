"""The README's examples and the demos print what they say they print.

Every ``weyl2uni ... # <output>`` line of the README's command block runs
in-process and must print its comment; every expression of the library
quick tour must evaluate to the value its comment starts with.  The stdout
of each demo is pinned in ``tests/data/demos/``, with timings masked as in
the golden CLI corpus.  Re-record the demos only for an intended change:

    PYTHONPATH=src python3 tests/test_docs.py
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import runpy
import shlex
import sys
import tokenize
from pathlib import Path

import pytest

from test_cli_golden import mask, run_cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = Path(__file__).with_name("data") / "demos"


@pytest.fixture(autouse=True)
def packaged_tables(monkeypatch):
    monkeypatch.delenv("WEYL2UNI_TABLE_PATH", raising=False)


def readme_commands() -> list[tuple[str, str]]:
    """(command, printed output) for each commented command line of the README."""
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^weyl2uni (.+?)\s+# (.+)$", text, flags=re.MULTILINE)


def test_readme_commands_print_their_comments():
    commands = readme_commands()
    assert len(commands) == 8
    for command, printed in commands:
        result = run_cli(shlex.split(command))
        assert (result["exit"], result["stdout"], result["stderr"]) == (0, printed + "\n", ""), command


def split_comment(line: str) -> tuple[str, str]:
    """The code of one source line and the text of its comment ("" if none)."""
    for tok in tokenize.generate_tokens(io.StringIO(line).readline):
        if tok.type == tokenize.COMMENT:
            return line[: tok.start[1]].strip(), tok.string[1:].strip()
    return line.strip(), ""


def test_readme_quick_tour_values():
    """An expression's comment, on its line or the next, starts with the repr of its value."""
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    pending = None  # an expression whose comment is on the next line
    checked = 0
    for code, comment in map(split_comment, block.splitlines()):
        if not code:
            if comment and pending is not None:
                assert comment.startswith(repr(pending)), comment
                pending, checked = None, checked + 1
            continue
        try:
            expression = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = eval(expression, namespace)
        if comment:
            assert comment.startswith(repr(value)), (code, value)
            checked += 1
        else:
            pending = value
    assert pending is None and checked == 7


def run_demo(path: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return mask(out.getvalue())


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_recording(demo):
    assert run_demo(demo) == (RECORDED / f"{demo.stem}.txt").read_text(encoding="utf-8")


def record() -> None:
    os.environ.pop("WEYL2UNI_TABLE_PATH", None)
    RECORDED.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        (RECORDED / f"{demo.stem}.txt").write_text(run_demo(demo), encoding="utf-8")
    print(f"wrote {len(DEMOS)} demo recordings to {RECORDED}", file=sys.stderr)


if __name__ == "__main__":
    record()
