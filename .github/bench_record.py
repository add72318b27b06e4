"""Record the benchmark's end-to-end metrics of one or more checkouts in a BENCH JSON file.

Usage: python3 .github/bench_record.py [--workload NAME ...] [--runs N] [--seconds S]
                                       [--seed K] [--out FILE] [CHECKOUT ...]

Runs ``perfbench/run.py`` of each checkout (default: the one holding this
script) N times per workload, run k with seed K + k.  With several
checkouts the runs alternate between them, each going first in turn, so
a drift of the machine touches each alike.  Per checkout it records the
commit, whether the tree differs from it, the ``source_lines.py`` counts
of ``src/weyl2uni`` and, per workload and end-to-end metric, each run's
value, the median and the quartiles, with each workload's runs, seconds
and seeds.  With two checkouts it also counts, per metric, the pairs of
runs in which the second is better, in the direction ``BENCHMARK.json``
gives.  One invocation writes one record, replacing FILE.  Stdlib only,
and no gate: the exit status is 0 unless a run cannot start.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from source_lines import line_kinds

WORKLOADS = ("psi_sweep", "deep_fibers", "verify_sweep", "tables")


def git(root: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def source_lines(root: Path) -> dict:
    totals = [0, 0, 0]
    for path in sorted((root / "src" / "weyl2uni").glob("*.py")):
        totals = [a + b for a, b in zip(totals, line_kinds(path))]
    return dict(zip(("code", "docstring", "comment"), totals), nonblank=sum(totals))


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of ``perfbench/run.py``: correct, attempted, failed and metrics."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=Path, default=[Path(__file__).resolve().parent.parent])
    parser.add_argument("--workload", action="append", choices=WORKLOADS, dest="workloads")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workloads or list(WORKLOADS)
    roots = [root.resolve() for root in args.checkouts]
    better = {m["name"]: m["better"] for m in
              json.loads((roots[0] / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}

    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "settings": {},
        "checkouts": [
            {"commit": git(root, "rev-parse", "HEAD") or None,
             "dirty": bool(git(root, "status", "--porcelain", "--untracked-files=no")),
             "source_lines": source_lines(root),
             "workloads": {}}
            for root in roots
        ],
    }
    for workload in workloads:
        record["settings"][workload] = {"runs": args.runs, "seconds": args.seconds,
                                        "seeds": [args.seed + k for k in range(args.runs)]}
        values = [{} for _ in roots]
        failed = [0 for _ in roots]
        for k in range(args.runs):
            for i in range(len(roots))[::-1 if k % 2 else 1]:  # each checkout runs first in turn
                root = roots[i]
                out = run_once(root, workload, args.seed + k, args.seconds)
                failed[i] += out["failed"] + (not out["correct"])
                for name, metric in out["metrics"].items():
                    values[i].setdefault(name, []).append(metric["value"])
                print(f"{workload} run {k + 1}/{args.runs} checkout {i + 1}: "
                      + " ".join(f"{n}={v['value']:.6g}" for n, v in out["metrics"].items()), file=sys.stderr)
        for checkout, vals, fails in zip(record["checkouts"], values, failed):
            checkout["workloads"][workload] = {"failed": fails, **{n: summary(v) for n, v in vals.items()}}
        if len(roots) == 2:
            wins = {}
            for name, first in values[0].items():
                sign = 1 if better.get(name) == "higher" else -1
                wins[name] = sum(sign * (y - x) > 0 for x, y in zip(first, values[1][name]))
            record.setdefault("second_better", {})[workload] = wins

    text = json.dumps(record, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
