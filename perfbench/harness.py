"""The four workloads, their correctness gates and the metrics they report.

The caller puts the checkout's ``src`` first on ``sys.path`` before importing
this module; everything here drives weyl2uni through its public names, which
are looked up at call time so the traced run can rebind them.  WORKLOADS.md
says why each workload exists and which metric each layer should move.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import weyl2uni
from weyl2uni import cli, exceptional, partitions, type_bd, type_c, verify, weyl

import layers
import reference
from tracer import Tracer

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

_now = time.perf_counter_ns
_FAILED = object()


END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("aux_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Input generation: the benchmark's own code, so no library call is on the
# path that builds inputs.


def own_partitions(total: int, cap: int | None = None):
    """Partitions of total as weakly decreasing tuples, largest first."""
    cap = total if cap is None else cap
    if total == 0:
        yield ()
        return
    for head in range(min(cap, total), 0, -1):
        for tail in own_partitions(total - head, head):
            yield (head,) + tail


def jordan_types(series: str, nu: int) -> list[tuple[int, ...]]:
    """Symplectic (C) or orthogonal (B, D) Jordan types of total nu."""
    bad_parity = 1 if series == "C" else 0  # values whose count must be even
    out = []
    for parts in own_partitions(nu):
        counts = Counter(parts)
        if all(q % 2 == 0 for v, q in counts.items() if v % 2 == bad_parity):
            out.append(parts)
    return out


def jordan(series: str, parts) -> tuple:
    """(JordanType, GroupKind) for the parts; the rank is half the total, rounded down."""
    eps = -1 if series == "C" else 1
    return (weyl2uni.JordanType(weyl2uni.Partition(parts), eps),
            weyl2uni.GroupKind(series, sum(parts) // 2))


# ---------------------------------------------------------------------------
# Running operations


class Samples:
    """Latencies in ms: every one counted, an evenly spaced subset kept.

    Once 2*keep samples are held, every other one is dropped and only every
    second later sample is kept, so memory stays bounded however fast the
    operations get, and peak RSS does not grow with throughput.
    """

    def __init__(self, keep: int = 10_000) -> None:
        self.keep = keep
        self.kept = array("d")
        self.count = 0
        self.total_ms = 0.0
        self._stride = 1

    def add(self, ms: float) -> None:
        if self.count % self._stride == 0:
            self.kept.append(ms)
            if len(self.kept) == 2 * self.keep:
                self.kept = self.kept[::2]
                self._stride *= 2
        self.count += 1
        self.total_ms += ms


class Runner:
    """Times operations, counts attempts and failures, and opens op spans.

    Each latency is scaled by the machine's speed while it ran, as measured
    by the reference gauge (see reference.py); the unscaled ones are kept for
    the printed summary.
    """

    def __init__(self) -> None:
        self.samples = {"op": Samples(), "aux": Samples()}
        self.raw_ms = {"op": Samples(), "aux": Samples()}
        self.attempted = 0
        self.failed = 0
        self.tracer: Tracer | None = None
        self.gauge = reference.Gauge()

    def call(self, kind: str, fn, *args):
        """One timed operation; an exception counts as a failed op."""
        self.attempted += 1
        tr = self.tracer
        if tr is not None:
            tr.op += 1
            span = tr.begin(tr.name_id("bench." + kind))
        gauge = self.gauge
        # Counters are read inside the timed interval, so a tick that races
        # with a read can only make this one sample too slow, never negative.
        t0 = _now()
        count, chunk_ns, spent_ns = gauge.count, gauge.chunk_ns, gauge.spent_ns
        try:
            out = fn(*args)
        except Exception:
            out = _FAILED
        ticks = gauge.count - count
        chunk_ns, spent_ns = gauge.chunk_ns - chunk_ns, gauge.spent_ns - spent_ns
        t1 = _now()
        if tr is not None:
            tr.end(span)
        if out is _FAILED:
            self.failed += 1
        else:
            ns = t1 - t0 - spent_ns
            ref_ns = chunk_ns / ticks if ticks and chunk_ns else gauge.last_ns
            self.samples[kind].add(ns / ref_ns * reference.REF_MS)
            self.raw_ms[kind].add(ns / 1e6)
        return out

    def wrong(self) -> None:
        """An operation returned, but its answer failed a gate."""
        self.failed += 1


class Workload:
    """One pass runs every input once; a run repeats passes."""

    name = ""
    tail_percentile = 99

    def run_pass(self, run: Runner) -> list[str]:
        """Run every input once; returns the answers in a seed-free order."""
        raise NotImplementedError

    def check_pass(self, answers: list[str], run: Runner) -> bool:
        """Whether a pass's answers match the record made at the seed commit.

        Runs after the traced calls are unwrapped, so gating adds no spans.
        """
        return sha256(answers) == self.expected_sha256


class PsiSweep(Workload):
    """psi_classical on every Jordan type of C at nu=40, B at nu=41, D at nu=40."""

    name = "psi_sweep"
    tail_percentile = 99
    GROUPS = (("C", 40), ("B", 41), ("D", 40))

    def __init__(self, seed: int, golden: dict) -> None:
        self.items = []
        for series, nu in self.GROUPS:
            for parts in jordan_types(series, nu):
                self.items.append((len(self.items), series) + jordan(series, parts))
        random.Random(seed).shuffle(self.items)
        self.expected_sha256 = golden["psi_sweep"]["sha256"]

    def run_pass(self, run: Runner) -> list[str]:
        answers = [""] * len(self.items)
        for k, series, j, g in self.items:
            w = run.call("op", weyl2uni.psi_classical, j, g)
            if w is _FAILED:
                answers[k] = "error"
                continue
            back = run.call("aux", weyl2uni.phi_classical, w, g)
            if back is not _FAILED and back.parts != j.parts:
                run.wrong()
            answers[k] = f"{series}\t{j.text()}\t{w.text()}"
        return answers


class DeepFibers(Workload):
    """Deep fibers: psi_classical and the full fiber listing of the same types."""

    name = "deep_fibers"
    tail_percentile = 90
    PER_SERIES = 8

    def __init__(self, seed: int, golden: dict) -> None:
        rng = random.Random(seed)
        pool = golden["deep_fibers"]["pool"]
        chosen = []
        for series in "CBD":
            chosen += rng.sample([e for e in pool if e["series"] == series], self.PER_SERIES)
        rng.shuffle(chosen)
        self.items = [(e,) + jordan(e["series"], [int(v) for v in e["jordan"].split(",")])
                      for e in chosen]
        self.candidates = sum(e["candidates"] for e in chosen)

    def run_pass(self, run: Runner) -> list[str]:
        answers = []
        self.returned = []
        for entry, j, g in self.items:
            w = run.call("op", weyl2uni.psi_classical, j, g)
            if w is _FAILED:
                answers.append("error")
            else:
                self.returned.append((entry, j, g, w))
                answers.append(f"{entry['series']}\t{entry['jordan']}\t{w.text()}")
            engine = type_c if entry["series"] == "C" else type_bd
            listing = run.call("aux", engine.fiber, j.parts)
            if listing is _FAILED:
                answers.append("error")
                continue
            digest = sha256(s.text() for s in listing)
            if digest != entry["fiber_sha256"]:
                run.wrong()
            answers.append(f"{entry['series']}\t{entry['jordan']}\t{digest}")
        return sorted(answers)

    def check_pass(self, answers: list[str], run: Runner) -> bool:
        for entry, j, g, w in self.returned:
            if w.text() != entry["psi"] or weyl.phi_classical(w, g).parts != j.parts:
                run.wrong()
        return True  # the listings were gated against their records in run_pass


class VerifySweep(Workload):
    """verify.run_all over every series and group at the largest caps.

    The seed has no effect here: the sweep is fixed by its configuration.
    """

    name = "verify_sweep"
    tail_percentile = 50  # a run holds too few sweeps for a higher percentile

    def __init__(self, seed: int, golden: dict) -> None:
        self.configs = {
            "op": verify.SweepConfig(series=verify.ALL_SERIES, max_nu=30, max_rank=7),
            "aux": verify.SweepConfig(),
        }
        self.expected = golden["verify_sweep"]
        self.scanned = 0

    def run_pass(self, run: Runner) -> list[str]:
        answers = []
        self.scanned = 0
        for kind, cfg in self.configs.items():
            report = run.call(kind, verify.run_all, cfg)
            if report is _FAILED:
                answers.append(f"{kind}\terror")
                continue
            scanned = [[c.name, c.scanned] for c in report.checks]
            self.scanned += sum(c.scanned for c in report.checks)
            if not report.passed or scanned != self.expected[kind]:
                run.wrong()
            answers.append(f"{kind}\t{report.passed}\t{json.dumps(scanned)}")
        return answers

    def check_pass(self, answers: list[str], run: Runner) -> bool:
        return True  # each report was gated against its record in run_pass


def ascii_alias(text: str, k: int) -> str:
    """The k-th of the documented ASCII spellings of an exceptional label or name."""
    text = text.replace("Ã", ("tA", "A~", "~A")[k % 3])
    if k % 2:
        text = text.replace("''", '"')
    return text


def table_digest(table) -> str:
    return sha256(",".join(str(lab) for lab in line.labels) + "\t" + line.name
                  for line in table.lines)


class Tables(Workload):
    """Reload every exceptional table, each followed by lookups into it."""

    name = "tables"
    tail_percentile = 99

    def __init__(self, seed: int, golden: dict) -> None:
        rng = random.Random(seed)
        self.plan = []
        for group in exceptional.GROUPS:
            for characteristic in exceptional.SUPPORTED_CHARACTERISTICS[group]:
                table = exceptional.load_table(group, characteristic)
                lookups = [("phi", str(lab)) for lab in table.labels()]
                lookups += [("fixed_space_dim", str(lab)) for lab in table.labels()]
                lookups += [("psi", name) for name in table.names()]
                # The spelling depends on the lookup, not the seed, so every
                # seed does the same work; the seed sets only the order.
                lookups = [(kind, key, ascii_alias(key, k)) for k, (kind, key) in enumerate(lookups)]
                rng.shuffle(lookups)
                self.plan.append((group, characteristic, lookups))
        rng.shuffle(self.plan)
        self.expected_tables = golden["tables"]["tables"]
        self.expected_sha256 = golden["tables"]["lookups_sha256"]

    def run_pass(self, run: Runner) -> list[str]:
        answers = []
        for group, characteristic, lookups in self.plan:
            tag = f"{group},{characteristic}"
            table = run.call("aux", exceptional.load_table, group, characteristic)
            if table is _FAILED:
                answers.append(f"{tag}\terror")
                continue
            if table_digest(table) != self.expected_tables[tag]:
                run.wrong()
            for kind, canonical, spelled in lookups:
                out = run.call("op", getattr(table, kind), spelled)
                answers.append(f"{tag}\t{kind}\t{canonical}\t{'error' if out is _FAILED else out}")
        return sorted(answers)


WORKLOADS = {w.name: w for w in (PsiSweep, DeepFibers, VerifySweep, Tables)}


# ---------------------------------------------------------------------------
# Set-up time and the command line, both measured in fresh interpreters


SETUP_PROBE = """
import sys, time
sys.path.insert(0, {here!r})
from reference import chunk


def gauge():
    t0 = time.perf_counter_ns()
    chunk()
    return time.perf_counter_ns() - t0


refs = [gauge() for _ in range(8)]
t0 = time.perf_counter_ns()
import weyl2uni
from weyl2uni import exceptional
for group in exceptional.GROUPS:
    for characteristic in exceptional.SUPPORTED_CHARACTERISTICS[group]:
        exceptional.load_table(group, characteristic)
j = weyl2uni.JordanType(weyl2uni.Partition([8, 8, 6, 6, 5, 5, 2]), -1)
w = weyl2uni.psi_classical(j, weyl2uni.GroupKind("C", 20))
setup_ns = time.perf_counter_ns() - t0
refs += [gauge() for _ in range(8)]
print(setup_ns, sorted(refs)[len(refs) // 2], w.text())
"""

CLI_ARGVS = (
    ["psi", "--group", "E8", "--name", "A_3+A_1"],
    ["psi", "--series", "C", "--jordan", "8,8,6,6,5,5,2"],
)


def run_child(root: Path, argv: list[str]) -> tuple[float, str]:
    """Run a fresh interpreter to completion; (wall seconds, stdout)."""
    t0 = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable] + argv, cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr.strip()}")
    return wall, proc.stdout


def measure_setup(root: Path, golden: dict, run: Runner, repeats: int = 11) -> float:
    """Median scaled set-up seconds over fresh interpreters (0.0 if all failed).

    Each interpreter times reference chunks before and after its set-up and
    scales by their median.  One unmeasured launch comes first, so every
    measured one finds bytecode cached.
    """
    probe = SETUP_PROBE.format(here=str(HERE))
    times = []
    for k in range(repeats + 1):
        run.attempted += 1
        try:
            _, out = run_child(root, ["-c", probe])
            setup_ns, ref_ns, answer = out.split()
        except (RuntimeError, ValueError, subprocess.TimeoutExpired):
            run.failed += 1
            continue
        if answer != golden["setup"]["psi"]:
            run.wrong()
        elif k:
            times.append(int(setup_ns) / int(ref_ns) * reference.REF_MS / 1e3)
    return statistics.median(times) if times else 0.0


def measure_cli(root: Path, golden: dict, run: Runner, repeats: int = 6) -> dict:
    """Cold-start and in-process command-line timings, answers gated."""
    expected = golden["cli"]
    out = {}
    for key, argv in (("interp", ["-c", "pass"]), ("import", ["-c", "import weyl2uni.cli"])):
        out[key] = statistics.median(run_child(root, argv)[0] for _ in range(repeats)) * 1e3
    walls, inproc = [], []
    for k in range(repeats):
        argv = CLI_ARGVS[k % len(CLI_ARGVS)]
        run.attempted += 2
        try:
            wall, text = run_child(root, ["-m", "weyl2uni.cli"] + argv)
        except (RuntimeError, subprocess.TimeoutExpired):
            run.failed += 1
        else:
            walls.append(wall * 1e3)
            if text != expected[k % len(CLI_ARGVS)]:
                run.wrong()
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        inproc.append((time.perf_counter() - t0) * 1e3)
        if code != 0 or buf.getvalue() != expected[k % len(CLI_ARGVS)]:
            run.wrong()
    out["launch"] = statistics.median(walls) if walls else 0.0
    out["main_inproc"] = statistics.median(inproc)
    return out


# ---------------------------------------------------------------------------
# Statistics


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(workload: Workload, run: Runner, setup_s: float) -> dict:
    op = sorted(run.samples["op"].kept)
    aux = sorted(run.samples["aux"].kept)
    busy_s = run.samples["op"].total_ms / 1e3
    return {
        "setup_s": setup_s,
        "ops_per_s": run.samples["op"].count / busy_s if busy_s else 0.0,
        "op_p50_ms": percentile(op, 50),
        "op_tail_ms": percentile(op, workload.tail_percentile),
        "aux_p50_ms": percentile(aux, 50),
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_unit(name: str) -> str:
    """Per-layer units follow the name: _ms, _s and _ratio suffixes, else a count."""
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer_metrics(calls: Counter, self_ns: Counter, counts: Counter, passes: int,
                      extra: dict) -> dict:
    """Per-pass counts and self times from the traced passes."""

    def per_pass(x):
        return x / passes

    def secs(span):
        return per_pass(self_ns[span]) / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "partitions.partition_new": per_pass(calls["partitions.partition"]),
        "partitions.partition_s": secs("partitions.partition"),
        "partitions.is_member_calls": per_pass(calls["partitions.is_member"]),
        "partitions.is_member_s": secs("partitions.is_member"),
        "partitions.iter_partitions_yielded": per_pass(counts["iter_partitions.yielded"]),
        "partitions.family_hit_ratio": ratio(counts["members"], counts["iter_partitions.yielded"]),
    }
    for tag in partitions.FAMILY_TAGS:
        m[f"partitions.is_member_calls.{tag}"] = per_pass(counts["is_member." + tag])
    for module in ("type_c", "type_bd"):
        m[f"{module}.canonical_split_calls"] = per_pass(calls[f"{module}.canonical_split"])
        m[f"{module}.canonical_split_s"] = secs(f"{module}.canonical_split")
        m[f"{module}.iter_fiber_yielded"] = per_pass(counts[f"{module}.yielded"])
        m[f"{module}.iter_fiber_s"] = secs(f"{module}.iter_fiber")
        m[f"{module}.minimal_split_s"] = secs(f"{module}.minimal_split")
        m[f"{module}.fiber_s"] = secs(f"{module}.fiber")
        m[f"{module}.fiber_yield_ratio"] = ratio(counts[f"{module}.yielded"],
                                                 counts[f"{module}.candidates"])
    m["type_bd.blocks_from_halves_calls"] = per_pass(calls["type_bd.blocks_from_halves"])
    m["type_bd.blocks_from_halves_s"] = secs("type_bd.blocks_from_halves")
    m["type_bd.halves_from_blocks_s"] = secs("type_bd.halves_from_blocks")
    m["weyl.psi_classical_self_s"] = secs("weyl.psi_classical")
    m["weyl.phi_classical_calls"] = per_pass(calls["weyl.phi_classical"])
    m["weyl.phi_classical_s"] = secs("weyl.phi_classical")
    m["weyl.decode_class_s"] = secs("weyl.decode_class")
    m["weyl.fixed_space_dim_from_matrix_s"] = secs("weyl.fixed_space_dim_from_matrix")
    m["weyl.enumerate_classes_s"] = secs("weyl.enumerate_classes")
    for check in ("check_classical", "check_bridge", "check_exceptional"):
        m[f"verify.{check}_s"] = secs(f"verify.{check}")
    m["verify.scanned"] = extra.get("scanned", 0)
    m["exceptional.load_table_calls"] = per_pass(calls["exceptional.load_table"])
    m["exceptional.load_table_s"] = secs("exceptional.load_table")
    m["exceptional.verify_table_s"] = secs("exceptional.verify_table")
    m["exceptional.label_parse_calls"] = per_pass(calls["exceptional.label_parse"])
    m["exceptional.lookup_s"] = secs("exceptional.lookup")
    cli_ms = extra.get("cli", {})
    for key in ("interp", "import", "launch"):
        m[f"cli.{key}_p50_ms"] = cli_ms.get(key, 0.0)
    m["cli.main_inproc_ms"] = cli_ms.get("main_inproc", 0.0)
    m["trace.spans"] = per_pass(sum(calls.values()))
    m["trace.overhead_s"] = extra["overhead_s"]
    m["trace.overhead_ratio"] = extra["overhead_ratio"]
    return m


# ---------------------------------------------------------------------------
# A whole run


def stamp(root: Path) -> dict:
    """Informational fields: which code, which interpreter, which machine."""
    commit = None
    git = root / ".git"
    if (git / "HEAD").is_file():
        commit = (git / "HEAD").read_text().strip()
        if commit.startswith("ref: "):
            ref = commit[5:]
            packed = git / "packed-refs"
            if (git / ref).is_file():
                commit = (git / ref).read_text().strip()
            elif packed.is_file():
                commit = next((line.split()[0] for line in packed.read_text().splitlines()
                               if line.endswith(" " + ref)), None)
            else:
                commit = None
    src_lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        src_lines += sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "src_nonblank_lines": src_lines,
    }


def one_pass(workload: Workload, run: Runner, tracer: Tracer | None = None,
             expected: list[str] | None = None) -> tuple[float, list[str]]:
    """Run and gate one pass, traced if a tracer is given; (seconds, answers).

    If the pass's answers fail the record, or differ from `expected`, every op
    of the pass counts as failed.
    """
    failed, attempted = run.failed, run.attempted
    if tracer is not None:
        tracer.spans = array("q")
        layers.install(tracer)
        run.tracer = tracer
    t0 = time.perf_counter()
    try:
        answers = workload.run_pass(run)
    finally:
        if tracer is not None:
            run.tracer = None
            tracer.uninstall()
    seconds = time.perf_counter() - t0
    ok = workload.check_pass(answers, run)
    if not ok or (expected is not None and answers != expected):
        run.failed = failed + (run.attempted - attempted)
    return seconds, answers


def repeat_for(seconds: float, one_round) -> int:
    """Call one_round until the next call would end past `seconds`; at least once."""
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        t0 = time.perf_counter()
        one_round()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return len(durations)


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 golden: dict | None = None, trace_dir: Path | None = None) -> dict:
    """Run one workload for about `seconds`: the timed run, or the traced one."""
    golden = load_golden() if golden is None else golden
    workload = WORKLOADS[name](seed, golden)
    run = Runner()
    result = {"workload": name, "seed": seed, "trace": trace, "stamp": stamp(root),
              "tail_percentile": workload.tail_percentile}
    if isinstance(workload, DeepFibers):
        result["fiber_candidates_per_pass"] = workload.candidates

    if not trace:
        setup_s = measure_setup(root, golden, run)
        run.gauge.start()
        try:
            result["passes"] = repeat_for(seconds, lambda: one_pass(workload, run))
        finally:
            run.gauge.stop()
        metrics, units = end_to_end_metrics(workload, run, setup_s), dict(END_TO_END)
    else:
        tracer = Tracer()
        times = {"plain": [], "traced": []}
        calls, self_ns = Counter(), Counter()

        def one_round():
            seconds_plain, plain = one_pass(workload, run)
            seconds_traced, _ = one_pass(workload, run, tracer, expected=plain)
            times["plain"].append(seconds_plain)
            times["traced"].append(seconds_traced)
            c, s = tracer.summary()
            calls.update(c)
            self_ns.update(s)

        result["passes"] = repeat_for(seconds, one_round)
        plain, traced = statistics.median(times["plain"]), statistics.median(times["traced"])
        extra = {"scanned": getattr(workload, "scanned", 0),
                 "overhead_s": traced - plain, "overhead_ratio": traced / plain - 1.0}
        if isinstance(workload, Tables):
            extra["cli"] = measure_cli(root, golden, run)
        metrics = per_layer_metrics(calls, self_ns, tracer.counts, result["passes"], extra)
        units = {name: layer_unit(name) for name in metrics}
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(trace_dir / f"{name}.spans")

    result.update({
        "op_samples": run.samples["op"].count, "aux_samples": run.samples["aux"].count,
        "raw_op_p50_ms": percentile(sorted(run.raw_ms["op"].kept), 50),
        "raw_aux_p50_ms": percentile(sorted(run.raw_ms["aux"].kept), 50),
        "attempted": run.attempted, "failed": run.failed,
        "error_rate": run.failed / run.attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })
    return result
