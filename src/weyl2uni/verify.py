"""Exhaustive desk-scale verification sweeps.

Three checks tie the modules together:

* ``check_classical``: over every Jordan type up to a size cap, the fiber of
  splits has a unique element with minimal p-length and it is the canonical
  split (series D skips very even types, where the statement is vacuous).
* ``check_bridge``: the closed-form fixed-space dimension, the matrix-nullity
  oracle and half the p-length of the encoded class agree on every class.
* ``check_exceptional``: every supported table loads and passes its
  structural invariants.

All failures are collected as counterexamples, never raised, each with a
``reproduce`` command line; a report is deterministic for a given
configuration (timings aside).
"""

from __future__ import annotations

import time

from . import exceptional
from .partitions import (
    ContradictionError,
    DOUBLED_EVEN,
    DomainError,
    Partition,
    Record,
    check_int,
    is_member,
    iter_members,
)
from .weyl import (LEAST_RANK, SERIES, SIDES, TOTAL_PARITY, GroupKind, encode_class, enumerate_classes,
                   fixed_space_dim, fixed_space_dim_from_matrix)

ALL_SERIES = SERIES + exceptional.GROUPS
HARD_NU_CAP = 30
HARD_RANK_CAP = 7


class SweepConfig(Record):
    """What to sweep: series/groups (each group in all its characteristics) and size caps.

    The defaults are also class attributes (``SweepConfig.max_nu``), which
    the CLI reads, so the fields live in the instance dict, not in slots.
    """

    _fields = ("series", "max_nu", "max_rank")
    series: tuple[str, ...] = ALL_SERIES
    max_nu: int = 16
    max_rank: int = 5

    def __init__(
        self, series: tuple[str, ...] = series, max_nu: int = max_nu, max_rank: int = max_rank
    ) -> None:
        for s in series:
            if s not in ALL_SERIES:
                raise DomainError(f"unknown series {s!r}; expected a subset of {ALL_SERIES}")
        check_int("max_nu", max_nu)
        check_int("max_rank", max_rank)
        if not 0 <= max_nu <= HARD_NU_CAP:
            raise DomainError(f"max_nu must lie in [0, {HARD_NU_CAP}]")
        if not 1 <= max_rank <= HARD_RANK_CAP:
            raise DomainError(f"max_rank must lie in [1, {HARD_RANK_CAP}]")
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "max_nu", max_nu)
        object.__setattr__(self, "max_rank", max_rank)


class CheckResult:
    """One named check: how many inputs it scanned, its counterexamples, notes and time."""

    __slots__ = ("name", "scanned", "counterexamples", "notes", "seconds")

    def __init__(self, name: str, scanned: int = 0, counterexamples: list[dict] | None = None,
                 notes: list[str] | None = None, seconds: float = 0.0) -> None:
        self.name = name
        self.scanned = scanned
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.notes = [] if notes is None else notes
        self.seconds = seconds

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


class VerificationReport:
    """The checks of a sweep, in the order they ran."""

    __slots__ = ("checks",)

    def __init__(self, checks: list[CheckResult] | None = None) -> None:
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def counterexamples(self) -> list[dict]:
        return [ce for c in self.checks for ce in c.counterexamples]

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_json() for c in self.checks]}

    def text(self) -> str:
        import json  # here, not at module level: ``import weyl2uni`` stays free of json

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

    The side's ``_claim_and_walk`` tests c once, routes the claim and hands
    out ``splits.walk``, read as (r, p-length) with no ``Split`` per element,
    up to a shorter p or another r at the claimed length (over one c, r
    fixes the split).  A routing or walk error is the type's counterexample.
    """
    try:
        claimed, walk = module._claim_and_walk(c)
        least, claimed_r = len(claimed.p), claimed.r
        for r, p in walk:
            if len(p) <= least and (len(p) < least or r != claimed_r):
                kind = "smaller" if len(p) < least else "tied"
                return {"jordan": c.text(), "claimed": claimed.text(), kind: f"r={r.text()};p={Partition(p).text()}"}
    except (DomainError, ContradictionError) as exc:
        return {"jordan": c.text(), "error": str(exc)}
    return None


def check_classical(cfg: SweepConfig) -> VerificationReport:
    """Unique-minimum sweep over all Jordan types with total size <= max_nu."""
    report = VerificationReport()
    for series in (s for s in SERIES if s in cfg.series):
        start = time.perf_counter()
        result = CheckResult(name=f"unique_minimum[{series}]")
        side = SIDES[series]
        skipped = 0
        for nu in range(TOTAL_PARITY[series], cfg.max_nu + 1, 2):
            for c in iter_members(nu, side.FAMILY):
                if series == "D" and is_member(c, DOUBLED_EVEN):
                    skipped += 1  # the statement is vacuous there (singleton fiber)
                    continue
                result.scanned += 1
                ce = _scan_unique_minimum(side, c)
                if ce is not None:
                    ce["series"] = series
                    ce["reproduce"] = f"weyl2uni fiber --series {series} --jordan {c.text()}"
                    result.counterexamples.append(ce)
        if skipped:
            result.notes.append(f"skipped {skipped} very even types")
        result.seconds = time.perf_counter() - start
        report.checks.append(result)
    return report


def check_bridge(cfg: SweepConfig) -> VerificationReport:
    """Fixed-space dimension: formula == matrix nullity == p-length / 2."""
    report = VerificationReport()
    for series in (s for s in SERIES if s in cfg.series):
        start = time.perf_counter()
        result = CheckResult(name=f"fixed_space_bridge[{series}]")
        for n in range(LEAST_RANK[series], cfg.max_rank + 1):
            g = GroupKind(series, n)
            for w in enumerate_classes(g):
                result.scanned += 1
                formula = fixed_space_dim(w)
                oracle = fixed_space_dim_from_matrix(w, g)
                halved = len(encode_class(w, g).p) // 2
                if not formula == oracle == halved:
                    result.counterexamples.append(
                        {
                            "series": series,
                            "rank": n,
                            "class": w.text(),
                            "formula": formula,
                            "matrix": oracle,
                            "p_length_halved": halved,
                            "reproduce": f"weyl2uni mc --series {series} --class '{w.text()}'",
                        }
                    )
        result.seconds = time.perf_counter() - start
        report.checks.append(result)
    return report


def check_exceptional(cfg: SweepConfig) -> VerificationReport:
    """Load every supported table of each requested group; ``load_table`` validates each."""
    report = VerificationReport()
    for group in (g for g in exceptional.GROUPS if g in cfg.series):
        for characteristic in exceptional.SUPPORTED_CHARACTERISTICS[group]:
            start = time.perf_counter()
            result = CheckResult(name=f"table[{group},{characteristic}]")
            try:
                table = exceptional.load_table(group, characteristic)
            except DomainError as exc:
                result.counterexamples.append({"group": group, "error": str(exc),
                                               "reproduce": f"weyl2uni table --group {group} --p {characteristic}"})
            else:  # load_table has validated the table: any failure raised above
                result.scanned = len(table.lines)
                result.notes.append(f"{len(table.labels())} labels over {len(table.lines)} names")
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
