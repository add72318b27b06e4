"""Exhaustive desk-scale verification sweeps.

Three checks tie the modules together:

* ``check_classical``: over every Jordan type up to a size cap, the fiber of
  splits has a unique element with minimal p-length and it is the canonical
  split (series D skips very even types, where the statement is vacuous).
* ``check_bridge``: the closed-form fixed-space dimension, the matrix-nullity
  oracle and half the p-length of the encoded class agree on every class.
* ``check_exceptional``: every supported table loads and passes its
  structural invariants.

All failures are collected as counterexamples, never raised; a report is
deterministic for a given configuration (timings aside).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from . import exceptional, type_bd, type_c
from .partitions import (
    ContradictionError,
    DomainError,
    ORTHOGONAL,
    Partition,
    SYMPLECTIC,
    iter_members,
)
from .weyl import GroupKind, encode_class, enumerate_classes, fixed_space_dim, fixed_space_dim_from_matrix

CLASSICAL = ("B", "C", "D")
# series: (parity of the Jordan type's total, its family, the side's split rules)
_SERIES = {
    "B": (1, ORTHOGONAL, type_bd),
    "C": (0, SYMPLECTIC, type_c),
    "D": (0, ORTHOGONAL, type_bd),
}
ALL_SERIES = CLASSICAL + exceptional.GROUPS
HARD_NU_CAP = 30
HARD_RANK_CAP = 7


@dataclass(frozen=True)
class SweepConfig:
    """What to sweep: series/groups, size caps, characteristics."""

    series: tuple[str, ...] = ALL_SERIES
    max_nu: int = 16
    max_rank: int = 5
    characteristics: tuple[str, ...] = ("good", "p2", "p3")

    def __post_init__(self):
        for s in self.series:
            if s not in ALL_SERIES:
                raise DomainError(f"unknown series {s!r}; expected a subset of {ALL_SERIES}")
        if not 0 <= self.max_nu <= HARD_NU_CAP:
            raise DomainError(f"max_nu must lie in [0, {HARD_NU_CAP}]")
        if not 1 <= self.max_rank <= HARD_RANK_CAP:
            raise DomainError(f"max_rank must lie in [1, {HARD_RANK_CAP}]")


@dataclass
class CheckResult:
    name: str
    scanned: int = 0
    counterexamples: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "scanned": self.scanned,
            "counterexamples": list(self.counterexamples),
            "notes": list(self.notes),
            "seconds": round(self.seconds, 3),
        }


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def counterexamples(self) -> list[dict]:
        return [ce for c in self.checks for ce in c.counterexamples]

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_json() for c in self.checks]}

    def text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status} {c.name} scanned={c.scanned} ({c.seconds:.2f}s)")
            for note in c.notes:
                lines.append(f"     note: {note}")
            for ce in c.counterexamples:
                lines.append(f"     counterexample: {json.dumps(ce, ensure_ascii=False)}")
        lines.append("OVERALL " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)


def _scan_unique_minimum(module, c: Partition) -> dict | None:
    """One Jordan type: the canonical split must be the strict fiber minimum.

    Lazily scans the fiber and stops at the first witness of non-minimality
    or non-uniqueness (a second element at the claimed minimum).
    """
    try:
        claimed = module.canonical_split(c)
    except (DomainError, ContradictionError) as exc:
        return {"jordan": c.text(), "error": str(exc)}
    for x in module.iter_fiber(c):
        if len(x.p) < len(claimed.p):
            return {
                "jordan": c.text(),
                "claimed": claimed.text(),
                "smaller": x.text(),
            }
        if len(x.p) == len(claimed.p) and x != claimed:
            return {
                "jordan": c.text(),
                "claimed": claimed.text(),
                "tied": x.text(),
            }
    return None


def check_classical(cfg: SweepConfig) -> VerificationReport:
    """Unique-minimum sweep over all Jordan types with total size <= max_nu."""
    report = VerificationReport()
    for series in (s for s in CLASSICAL if s in cfg.series):
        start = time.perf_counter()
        result = CheckResult(name=f"unique_minimum[{series}]")
        parity, family, side = _SERIES[series]
        skipped = 0
        for nu in range(parity, cfg.max_nu + 1, 2):
            for c in iter_members(nu, family):
                if series == "D" and type_bd.classify_d(c) is type_bd.DKind.VERY_EVEN:
                    skipped += 1  # the statement is vacuous there (singleton fiber)
                    continue
                result.scanned += 1
                ce = _scan_unique_minimum(side, c)
                if ce is not None:
                    ce["series"] = series
                    result.counterexamples.append(ce)
        if skipped:
            result.notes.append(f"skipped {skipped} very even types")
        result.seconds = time.perf_counter() - start
        report.checks.append(result)
    return report


def check_bridge(cfg: SweepConfig) -> VerificationReport:
    """Fixed-space dimension: formula == matrix nullity == p-length / 2."""
    report = VerificationReport()
    for series in (s for s in ("B", "C", "D") if s in cfg.series):
        start = time.perf_counter()
        result = CheckResult(name=f"fixed_space_bridge[{series}]")
        least = 2 if series == "D" else 1
        for n in range(least, cfg.max_rank + 1):
            g = GroupKind(series, n)
            for w in enumerate_classes(g):
                result.scanned += 1
                formula = fixed_space_dim(w)
                oracle = fixed_space_dim_from_matrix(w, g)
                enc = encode_class(w, g)
                halved = len(enc.p if series == "C" else enc.doubled) // 2
                if not formula == oracle == halved:
                    result.counterexamples.append(
                        {
                            "series": series,
                            "rank": n,
                            "class": w.text(),
                            "formula": formula,
                            "matrix": oracle,
                            "p_length_halved": halved,
                        }
                    )
        result.seconds = time.perf_counter() - start
        report.checks.append(result)
    return report


def check_exceptional(cfg: SweepConfig) -> VerificationReport:
    """Load and re-verify every requested (group, characteristic) table."""
    report = VerificationReport()
    for group in (g for g in exceptional.GROUPS if g in cfg.series):
        for characteristic in exceptional.SUPPORTED_CHARACTERISTICS[group]:
            if characteristic not in cfg.characteristics:
                continue
            start = time.perf_counter()
            result = CheckResult(name=f"table[{group},{characteristic}]")
            try:
                table = exceptional.load_table(group, characteristic)
            except DomainError as exc:
                result.counterexamples.append({"group": group, "error": str(exc)})
            else:
                tr = exceptional.verify_table(table)
                result.scanned = tr.line_count
                result.notes.append(f"{tr.label_count} labels over {tr.name_count} names")
                for failure in tr.failures:
                    result.counterexamples.append({"group": group, "failure": failure})
            result.seconds = time.perf_counter() - start
            report.checks.append(result)
    return report


def run_all(cfg: SweepConfig) -> VerificationReport:
    """All three checks, merged into one report."""
    report = VerificationReport()
    report.extend(check_classical(cfg))
    report.extend(check_bridge(cfg))
    report.extend(check_exceptional(cfg))
    return report
