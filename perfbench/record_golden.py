"""Record the answers the benchmark gates against, into golden.json.

    python3 perfbench/record_golden.py

Run it only at a commit whose answers are trusted: every later run compares
its outputs with this record.  It also draws the deep_fibers input pool,
from a fixed seed, so the pool is part of the record.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import weyl2uni  # noqa: E402
from weyl2uni import cli, exceptional, type_bd, type_c, verify  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402

POOL_SEED = 2010
DEPTH = 11  # distinct repeated values per deep input: 2**DEPTH fiber candidates
POOL_PER_SERIES = 16
VALUE_SPAN = DEPTH + 6  # values are drawn from this many consecutive candidates


def deep_pool() -> list[dict]:
    rng = random.Random(POOL_SEED)
    pool = []
    for series in "CBD":
        for _ in range(POOL_PER_SERIES):
            if series == "C":  # even values, each twice
                values = rng.sample(range(2, 2 * VALUE_SPAN + 1, 2), DEPTH)
                parts = sorted(values * 2, reverse=True)
            else:  # odd pairs; B adds a single 1 for an odd total
                values = rng.sample(range(3, 2 * VALUE_SPAN + 3, 2), DEPTH)
                parts = sorted(values * 2, reverse=True) + ([1] if series == "B" else [])
            j, g = harness.jordan(series, parts)
            engine, candidates = ((type_c, layers.candidates_c) if series == "C"
                                  else (type_bd, layers.candidates_bd))
            listing = engine.fiber(j.parts)
            assert candidates(j.parts) == 2 ** DEPTH
            pool.append({
                "series": series,
                "jordan": j.text(),
                "psi": weyl2uni.psi_classical(j, g).text(),
                "fiber_sha256": harness.sha256(s.text() for s in listing),
                "fiber_size": len(listing),
                "candidates": candidates(j.parts),
            })
    return pool


def record() -> dict:
    psi_answers = []
    for series, nu in harness.PsiSweep.GROUPS:
        for parts in harness.jordan_types(series, nu):
            j, g = harness.jordan(series, parts)
            psi_answers.append(f"{series}\t{j.text()}\t{weyl2uni.psi_classical(j, g).text()}")

    sweeps = {}
    for kind, cfg in (("op", verify.SweepConfig(series=verify.ALL_SERIES, max_nu=30, max_rank=7)),
                      ("aux", verify.SweepConfig())):
        report = verify.run_all(cfg)
        assert report.passed
        sweeps[kind] = [[c.name, c.scanned] for c in report.checks]

    tables, lookups = {}, []
    for group in exceptional.GROUPS:
        for characteristic in exceptional.SUPPORTED_CHARACTERISTICS[group]:
            tag = f"{group},{characteristic}"
            table = exceptional.load_table(group, characteristic)
            tables[tag] = harness.table_digest(table)
            for lab in table.labels():
                lookups.append(f"{tag}\tphi\t{lab}\t{table.phi(str(lab))}")
                lookups.append(f"{tag}\tfixed_space_dim\t{lab}\t{table.fixed_space_dim(str(lab))}")
            for name in table.names():
                lookups.append(f"{tag}\tpsi\t{name}\t{table.psi(name)}")

    cli_out = []
    for argv in harness.CLI_ARGVS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(list(argv)) == 0
        cli_out.append(buf.getvalue())

    j, g = harness.jordan("C", [8, 8, 6, 6, 5, 5, 2])
    return {
        "psi_sweep": {"calls": len(psi_answers), "sha256": harness.sha256(psi_answers)},
        "deep_fibers": {"depth": DEPTH, "pool_seed": POOL_SEED, "pool": deep_pool()},
        "verify_sweep": sweeps,
        "tables": {"tables": tables, "lookups": len(lookups),
                   "lookups_sha256": harness.sha256(sorted(lookups))},
        "setup": {"psi": weyl2uni.psi_classical(j, g).text()},
        "cli": cli_out,
    }


if __name__ == "__main__":
    with open(harness.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1, ensure_ascii=False)
        fh.write("\n")
