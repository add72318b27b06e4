"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload psi_sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` beside this
directory, never from an installed copy.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).  The lines
before it repeat the metrics for a reader, with the run's stamp.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKLOAD_NAMES = ("psi_sweep", "deep_fibers", "verify_sweep", "tables")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "weyl2uni" / "__init__.py").is_file():
        print(f"error: no weyl2uni package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    if Path(harness.weyl2uni.__file__).resolve().parent != (src / "weyl2uni").resolve():
        print(f"error: imported weyl2uni from {harness.weyl2uni.__file__}, not {src}",
              file=sys.stderr)
        return 2

    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  root, trace_dir=root / ".perfbench_out")
    print(f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}  "
          f"passes {result['passes']}  op samples {result['op_samples']}  "
          f"aux samples {result['aux_samples']}  tail p{result['tail_percentile']}")
    print(f"unscaled wall time: op p50 {result['raw_op_p50_ms']:.6g} ms, "
          f"aux p50 {result['raw_aux_p50_ms']:.6g} ms")
    print("stamp " + json.dumps(result["stamp"]))
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'error_rate':40s} {result['error_rate']:>16.6g} "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
