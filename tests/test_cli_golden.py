"""Golden CLI corpus: every recorded command must print exactly what it printed.

``tests/data/cli_golden.json`` holds argv, exit code, stdout and stderr for
every subcommand over series B/C/D and every exceptional group and
characteristic, in both formats, plus invalid inputs and small verify sweeps.
Timings are masked on both sides.  The corpus pins CLI output across
refactors; re-record it only for an intended output change:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

from weyl2uni.cli import main
from weyl2uni.exceptional import GROUPS, SUPPORTED_CHARACTERISTICS

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"

# argparse wraps its usage line to the terminal width, read from COLUMNS
ENVIRONMENT = {"COLUMNS": "80"}
UNSET = ("WEYL2UNI_TABLE_PATH",)

_TIMINGS = (
    (re.compile(r"\(\d+\.\d+s\)"), "(<t>s)"),
    (re.compile(r'"seconds": [0-9.e+-]+'), '"seconds": "<t>"'),
)


def mask(text: str) -> str:
    for pattern, repl in _TIMINGS:
        text = pattern.sub(repl, text)
    return text


def run_cli(argv: list[str]) -> dict:
    """One in-process CLI call: exit code and masked stdout/stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": mask(out.getvalue()), "stderr": mask(err.getvalue())}


def corpus() -> list[list[str]]:
    """The recorded commands."""
    cases: list[list[str]] = []

    def both(*argv: str) -> None:
        for fmt in ("text", "json"):
            cases.append([*argv, "--format", fmt])

    classes = {
        "B": ["pos=1;neg=1", "pos=2,1;neg=3,1", "pos=-;neg=2"],
        "C": ["pos=2;neg=-", "pos=2,1;neg=3", "pos=-;neg=2,2,1"],
        "D": ["pos=2;neg=1,1", "pos=3,1;neg=-", "pos=1;neg=2,1"],
    }
    jordans = {
        "B": ["3,1,1", "5,3,3,1,1", "7,5,3,3,3,2,2", "3,3,1"],
        "C": ["2,2", "4,4,3,3,2", "2,2,1,1", "6,4,4,2,2,2"],
        "D": ["5,3,2,2", "3,3,1,1", "2,2", "7,5,5,3,1,1", "4,4,2,2"],
    }
    for series in ("B", "C", "D"):
        for cls in classes[series]:
            for cmd in ("phi", "encode", "mc"):
                both(cmd, "--series", series, "--class", cls)
        for jordan in jordans[series]:
            both("psi", "--series", series, "--jordan", jordan)
            both("fiber", "--series", series, "--jordan", jordan)
    both("psi", "--series", "C", "--nu", "4", "--jordan", "2,2")

    picks = {
        ("G2", "good"): ("tA_1", "A_1+tA_1", "G_2(a_1)"),
        ("G2", "p3"): ("~A_1", "A_2", "(Ã_1)_3"),
        ("F4", "good"): ("A_3", "B_4", "F_4(a_1)"),
        ("F4", "p2"): ("B_2", "C_3", "(B_2)_2"),
        ("E6", "good"): ("D_5", "E_6(a_1)", "D_4(a_1)"),
        ("E7", "good"): ("7A_1", "E_7(a_2)", "4A_1"),
        ("E7", "p2"): ("E_7(a_1)", "A_1", "E_7"),
        ("E8", "good"): ("E_8(a_2)", "D_4", "E_8"),
        ("E8", "p2"): ("E_8(a_1)", "A_1", "E_8(a_2)"),
        ("E8", "p3"): ("A_2", "E_8", "E_8(a_1)"),
    }
    for group in GROUPS:
        for characteristic in SUPPORTED_CHARACTERISTICS[group]:
            label, other, name = picks[group, characteristic]
            for lab in (label, other):
                both("phi", "--group", group, "--p", characteristic, "--label", lab)
                both("mc", "--group", group, "--p", characteristic, "--label", lab)
            both("psi", "--group", group, "--p", characteristic, "--name", name)
            for fmt in ("tsv", "json"):
                cases.append(["table", "--group", group, "--p", characteristic, "--format", fmt])
    both("phi", "--group", "F4", "--p", "2", "--label", "B_2")
    cases.append(["table", "--group", "G2", "--p", "3"])

    both("verify", "--series", "B", "C", "D", "--max-nu", "14", "--max-rank", "4")
    both("verify", "--series", *GROUPS)
    both("verify", "--all", "--max-nu", "12", "--max-rank", "3")

    # invalid inputs: domain errors exit 1, usage errors exit 2
    both("psi", "--series", "C", "--jordan", "3,2,1")
    both("psi", "--series", "B", "--jordan", "2,2")
    both("psi", "--series", "D", "--jordan", "3,1,1")
    both("psi", "--series", "C", "--nu", "6", "--jordan", "2,2")
    both("psi", "--series", "C", "--jordan", "3,x")
    both("psi", "--group", "E8", "--name", "X_9")
    both("fiber", "--series", "C", "--jordan", "3,1")
    both("fiber", "--series", "D", "--jordan", "4,2")
    both("phi", "--group", "G2", "--label", "E_8")
    both("phi", "--series", "C", "--class", "pos=1;neg")
    both("phi", "--series", "D", "--class", "pos=-;neg=3")
    both("encode", "--series", "D", "--class", "pos=-;neg=1")
    both("mc", "--series", "D", "--class", "pos=-;neg=3")
    both("mc", "--group", "E7", "--label", "Z_3")
    cases.append(["table", "--group", "E6", "--p", "p2"])
    both("verify", "--all", "--max-nu", "99")
    both("verify", "--series", "C", "--max-rank", "0")
    for argv in (["phi"], ["psi", "--series", "C"], ["fiber"], ["encode", "--class", "pos=1;neg=-"],
                 ["mc", "--series", "B"], ["table"], ["psi", "--group", "E8"]):
        cases.append(argv)
    return cases


def pytest_generate_tests(metafunc):
    # one test per subcommand keeps the per-test overhead of ~280 cases small
    if "cases" in metafunc.fixturenames:
        by_command: dict[str, list[dict]] = {}
        for case in json.loads(GOLDEN.read_text(encoding="utf-8")):
            by_command.setdefault(case["argv"][0], []).append(case)
        metafunc.parametrize("cases", list(by_command.values()), ids=list(by_command))


@pytest.fixture
def cli_environment(monkeypatch):
    for key, value in ENVIRONMENT.items():
        monkeypatch.setenv(key, value)
    for key in UNSET:
        monkeypatch.delenv(key, raising=False)


def test_cli_output_matches_golden(cases, cli_environment):
    for case in cases:
        assert run_cli(case["argv"]) == case, " ".join(case["argv"])


def record() -> None:
    os.environ.update(ENVIRONMENT)
    for key in UNSET:
        os.environ.pop(key, None)
    cases = [run_cli(argv) for argv in corpus()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
