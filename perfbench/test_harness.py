"""Self-tests for the benchmark: its gates catch wrong answers, tracing changes
no answer, the traced run reports every per-layer metric BENCHMARK.json names,
and the seed changes the order of the work but not its amount.

    python3 -m pytest perfbench -q      (or: python3 -m unittest discover perfbench)
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import weyl2uni  # noqa: E402
from weyl2uni import Partition, type_c, weyl  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

GOLDEN = harness.load_golden()
ORIGINAL_INIT = Partition.__dict__["__init__"]


def traced_and_plain_answers(name: str, seed: int) -> tuple[list[str], list[str]]:
    workload = harness.WORKLOADS[name](seed, GOLDEN)
    plain = workload.run_pass(harness.Runner())
    run, tracer = harness.Runner(), Tracer()
    layers.install(tracer)
    run.tracer = tracer
    try:
        traced = workload.run_pass(run)
    finally:
        tracer.uninstall()
    assert tracer.spans, "the traced pass recorded no spans"
    return plain, traced


class GateTests(unittest.TestCase):
    def test_planted_non_minimal_psi_answer_is_counted(self):
        # Another element of the same fiber: phi maps it back to the right
        # Jordan type, so only the record made at the seed commit catches it.
        target = Partition([2] * 20)
        original = weyl2uni.psi_classical

        def planted(j, g):
            if g.series == "C" and j.parts == target:
                return weyl.decode_class(type_c.fiber(j.parts)[-1], g)
            return original(j, g)

        with mock.patch.object(weyl2uni, "psi_classical", planted):
            result = harness.run_workload("psi_sweep", 1, 0, False, ROOT, GOLDEN)
        self.assertGreater(result["error_rate"], 0)

    def test_unplanted_run_is_correct(self):
        result = harness.run_workload("tables", 3, 0, False, ROOT, GOLDEN)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["error_rate"], 0)

    def test_exception_counts_as_failed_op(self):
        run = harness.Runner()
        run.call("op", lambda: 1 // 0)
        run.call("op", lambda: 1)
        self.assertEqual((run.attempted, run.failed, run.samples["op"].count), (2, 1, 1))


class TraceTests(unittest.TestCase):
    def test_traced_answers_equal_untraced(self):
        for name in harness.WORKLOADS:
            with self.subTest(workload=name):
                plain, traced = traced_and_plain_answers(name, 5)
                self.assertEqual(plain, traced)
        # and every wrapper is gone again
        self.assertIs(weyl2uni.psi_classical, weyl.psi_classical)
        self.assertIs(Partition.__dict__["__init__"], ORIGINAL_INIT)
        self.assertFalse(hasattr(weyl.psi_classical, "__wrapped__"))

    def test_traced_runs_report_every_per_layer_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        measured = set()
        for name in ("verify_sweep", "tables"):
            result = harness.run_workload(name, 2, 0, True, ROOT, GOLDEN)
            reported = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(reported, {m["name"]: m["unit"] for m in spec["per_layer"]})
            self.assertEqual(result["failed"], 0)
            measured |= {k.split(".")[0] for k, v in result["metrics"].items() if v["value"] > 0}
        modules = {"partitions", "type_c", "type_bd", "weyl", "verify", "exceptional", "cli"}
        self.assertLessEqual(modules, measured)

    def test_untraced_run_reports_every_end_to_end_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        result = harness.run_workload("tables", 2, 0, False, ROOT, GOLDEN)
        reported = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(reported, {m["name"]: m["unit"] for m in spec["end_to_end"]})
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(harness.WORKLOADS))
        self.assertEqual(run.WORKLOAD_NAMES, tuple(harness.WORKLOADS))


class SeedTests(unittest.TestCase):
    def test_same_seed_same_inputs_and_every_seed_same_work(self):
        for cls in (harness.PsiSweep, harness.DeepFibers, harness.Tables):
            with self.subTest(workload=cls.name):
                a, b, c = cls(7, GOLDEN), cls(7, GOLDEN), cls(8, GOLDEN)
                inputs = {
                    harness.PsiSweep: lambda w: [(k, j.text()) for k, _, j, _ in w.items],
                    harness.DeepFibers: lambda w: [e["jordan"] for e, _, _ in w.items],
                    harness.Tables: lambda w: w.plan,
                }[cls]
                self.assertEqual(inputs(a), inputs(b))
                self.assertNotEqual(inputs(a), inputs(c))
                self.assertEqual(len(inputs(a)), len(inputs(c)))
        deep = [harness.DeepFibers(seed, GOLDEN) for seed in (1, 2, 3)]
        expected = 3 * harness.DeepFibers.PER_SERIES * 2 ** GOLDEN["deep_fibers"]["depth"]
        self.assertEqual({w.candidates for w in deep}, {expected})
        tables = [harness.Tables(seed, GOLDEN) for seed in (1, 2)]
        self.assertEqual(*[sum(len(lookups) for _, _, lookups in w.plan) for w in tables])


if __name__ == "__main__":
    unittest.main()
