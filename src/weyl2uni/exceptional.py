"""Lookup tables for the exceptional groups and the Carter-label calculus.

Each table line pairs an ordered list of Weyl-class names (Carter labels)
with the unipotent class they map to.  The first label of a line is the
section value; its diagram rank is strictly maximal within the line, so its
fixed-space dimension (Weyl rank minus diagram rank) is strictly minimal.

Tables ship as data (``data/phi_tables.tsv``); bad-characteristic variants
are stored as replacement records and spliced in at load time.  Set
``WEYL2UNI_TABLE_PATH`` to point the loader at an alternative file; it is
honoured on every call.  Each file content is parsed once and each table
validated once per content, and the validated tables are shared between
callers: a load whose text equals the last text read returns the same
frozen ``MapTable``.
"""

from __future__ import annotations

import os
import re
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path

from .partitions import DomainError

GROUPS = ("G2", "F4", "E6", "E7", "E8")
WEYL_RANK = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}
SUPPORTED_CHARACTERISTICS = {
    "G2": ("good", "p3"),
    "F4": ("good", "p2"),
    "E6": ("good",),
    "E7": ("good", "p2"),
    "E8": ("good", "p2", "p3"),
}
# class and unipotent-class counts in good characteristic
EXPECTED_LABELS = {"G2": 6, "F4": 25, "E6": 25, "E7": 60, "E8": 112}
EXPECTED_NAMES = {"G2": 5, "F4": 16, "E6": 21, "E7": 45, "E8": 70}

_DATA_ENV = "WEYL2UNI_TABLE_PATH"
_PACKAGED_TABLES = resources.files(__package__).joinpath("data/phi_tables.tsv")


class UnknownLabel(DomainError):
    """A label or unipotent name that does not occur in the table."""


def normalize_name(s: str) -> str:
    """Canonical spelling: precomposed tildes, ASCII prime marks.

    Accepted aliases: "A~_1", "~A_1" and "tA_1" for "Ã_1"; Unicode prime
    and double-prime; a straight double quote for ''.
    """
    s = unicodedata.normalize("NFC", s.strip())
    s = s.replace("′", "'").replace("″", "''").replace('"', "''")
    s = s.replace("A~", "Ã").replace("~A", "Ã")
    s = re.sub(r"(?<![A-Za-z_])tA(?=_)", "Ã", s)
    return s


_COMPONENT_RE = re.compile(
    r"^(?P<count>\d*)(?P<letter>Ã|[A-G])_(?P<sub>\d+)"
    r"(?P<paren>\([ab]_\d+\))?(?P<primes>'{0,2})$"
)


@dataclass(frozen=True)
class CarterLabel:
    """A Weyl-class name such as D_4(a_1)+2A_1 or A_3+2A_1''.

    components holds (count, letter, subscript, parenthetical, primes) per
    summand; the diagram rank is the count-weighted sum of subscripts,
    ignoring parentheticals and primes.  raw is the canonical spelling and
    round-trips through parse.
    """

    raw: str
    components: tuple[tuple[int, str, int, str, str], ...]

    @classmethod
    def parse(cls, s: str) -> "CarterLabel":
        norm = normalize_name(s)
        if not norm:
            raise DomainError("empty Carter label")
        comps = []
        for token in norm.split("+"):
            m = _COMPONENT_RE.match(token)
            if not m:
                raise DomainError(f"cannot parse Carter label component {token!r} of {s!r}")
            comps.append(
                (
                    int(m["count"] or "1"),
                    m["letter"],
                    int(m["sub"]),
                    m["paren"] or "",
                    m["primes"],
                )
            )
        raw = "+".join(
            f"{'' if count == 1 else count}{letter}_{sub}{paren}{primes}"
            for count, letter, sub, paren, primes in comps
        )
        return cls(raw, tuple(comps))

    @property
    def rank(self) -> int:
        return sum(count * sub for count, _, sub, _, _ in self.components)

    def __str__(self) -> str:
        return self.raw


def carter_rank(label: CarterLabel | str) -> int:
    """Diagram rank of a Carter label (A_0 has rank 0)."""
    if isinstance(label, str):
        label = CarterLabel.parse(label)
    return label.rank


@dataclass(frozen=True)
class TableLine:
    """One fiber: ordered labels and the unipotent name they map to."""

    labels: tuple[CarterLabel, ...]
    name: str  # normalized unipotent-class name


@dataclass(frozen=True)
class MapTable:
    """The full class-to-unipotent map for one group and characteristic."""

    group: str
    weyl_rank: int
    characteristic: str
    lines: tuple[TableLine, ...]

    @cached_property
    def _by_label(self) -> dict[str, TableLine]:
        return {lab.raw: line for line in self.lines for lab in line.labels}

    @cached_property
    def _by_name(self) -> dict[str, TableLine]:
        return {line.name: line for line in self.lines}

    def labels(self) -> list[CarterLabel]:
        return [lab for line in self.lines for lab in line.labels]

    def names(self) -> list[str]:
        return [line.name for line in self.lines]

    def phi(self, label: CarterLabel | str) -> str:
        """Unipotent name of the line containing the label."""
        raw = label.raw if isinstance(label, CarterLabel) else CarterLabel.parse(label).raw
        line = self._by_label.get(raw)
        if line is None:
            raise UnknownLabel(f"no class {raw!r} in the {self.group} table ({self.characteristic})")
        return line.name

    def psi(self, name: str) -> CarterLabel:
        """First-listed label of the line with the given unipotent name."""
        line = self._by_name.get(normalize_name(name))
        if line is None:
            raise UnknownLabel(
                f"no unipotent class {name!r} in the {self.group} table ({self.characteristic})"
            )
        return line.labels[0]

    def fixed_space_dim(self, label: CarterLabel | str) -> int:
        """Weyl rank minus diagram rank; any parseable label, listed or not."""
        return self.weyl_rank - carter_rank(label)


@dataclass
class TableReport:
    """Outcome of verify_table: counts plus a list of failure descriptions."""

    group: str
    characteristic: str
    line_count: int
    label_count: int
    name_count: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "characteristic": self.characteristic,
            "lines": self.line_count,
            "labels": self.label_count,
            "names": self.name_count,
            "failures": list(self.failures),
            "passed": self.passed,
        }


def verify_table(t: MapTable) -> TableReport:
    """Check every structural invariant of a table; failures are reported.

    Checks: label distinctness and the expected total, name distinctness
    (plus the expected total in good characteristic), rank bounds, strict
    rank maximality of each line's first label, and that the two lookups
    invert each other on every listed name.
    """
    failures: list[str] = []
    labels = t.labels()
    names = t.names()
    seen: set[str] = set()
    for lab in labels:
        if lab.raw in seen:
            failures.append(f"duplicate label {lab.raw}")
        seen.add(lab.raw)
    seen_names: set[str] = set()
    for name in names:
        if name in seen_names:
            failures.append(f"duplicate unipotent name {name}")
        seen_names.add(name)
    if len(labels) != EXPECTED_LABELS[t.group]:
        failures.append(
            f"expected {EXPECTED_LABELS[t.group]} labels for {t.group}, found {len(labels)}"
        )
    if t.characteristic == "good" and len(names) != EXPECTED_NAMES[t.group]:
        failures.append(
            f"expected {EXPECTED_NAMES[t.group]} unipotent names for {t.group}, found {len(names)}"
        )
    for line in t.lines:
        head = line.labels[0]
        if head.rank > t.weyl_rank:
            failures.append(f"label {head.raw} has rank {head.rank} above the Weyl rank")
        for other in line.labels[1:]:
            if other.rank >= head.rank:
                failures.append(
                    f"line for {line.name}: first label {head.raw} (rank {head.rank}) does not "
                    f"strictly dominate {other.raw} (rank {other.rank})"
                )
    if not failures:
        for line in t.lines:
            back = t.psi(line.name)
            if back.raw != line.labels[0].raw or t.phi(back) != line.name:
                failures.append(f"lookups do not invert on {line.name}")
    return TableReport(t.group, t.characteristic, len(t.lines), len(labels), len(names), failures)


def _read_text(path: str | None) -> str:
    """The table text: the explicit path, else the env var, else the packaged file."""
    env = os.environ.get(_DATA_ENV)
    if path is not None:
        file = Path(path)
    elif env:
        file = Path(env)
    else:
        file = _PACKAGED_TABLES
    try:
        return file.read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read table file {file}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(
            f"table file {file} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from exc


def _parse_records(text: str) -> tuple[tuple[str, str, tuple[str, ...], str], ...]:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise DomainError(f"table data line {lineno}: expected 4 tab-separated fields")
        group, tag, labels, name = fields
        if group not in GROUPS:
            raise DomainError(f"table data line {lineno}: unknown group {group!r}")
        if tag not in ("good", "p2", "p3"):
            raise DomainError(f"table data line {lineno}: unknown characteristic tag {tag!r}")
        records.append((group, tag, tuple(labels.split(",")), name))
    return tuple(records)


def _apply_patches(base: list[TableLine], patches: list[TableLine], group: str) -> list[TableLine]:
    """Replace each base line by the patch lines that partition its labels."""
    owner: dict[str, int] = {}
    for i, line in enumerate(base):
        for lab in line.labels:
            owner[lab.raw] = i
    grouped: dict[int, list[TableLine]] = {}
    for patch in patches:
        targets = {owner.get(lab.raw) for lab in patch.labels}
        if len(targets) != 1 or None in targets:
            raise DomainError(
                f"patch line for {patch.name!r} does not sit inside a single base line of {group}"
            )
        grouped.setdefault(targets.pop(), []).append(patch)
    out: list[TableLine] = []
    for i, line in enumerate(base):
        if i not in grouped:
            out.append(line)
            continue
        replacement = grouped[i]
        covered = sorted(lab.raw for patch in replacement for lab in patch.labels)
        original = sorted(lab.raw for lab in line.labels)
        if covered != original:
            raise DomainError(
                f"patch lines for base line {line.name!r} of {group} cover {covered}, "
                f"expected exactly {original}"
            )
        out.extend(replacement)
    return out


@dataclass
class _TableCache:
    """The last table text read, its records and the tables validated from it."""

    text: str
    records: tuple[tuple[str, str, tuple[str, ...], str], ...]
    tables: dict[tuple[str, str], MapTable] = field(default_factory=dict)


_cache: _TableCache | None = None


def load_table(group: str, characteristic: str = "good", path: str | None = None) -> MapTable:
    """Load and validate one (group, characteristic) table.

    Unsupported pairs are rejected: the base table already covers every
    characteristic without a dedicated variant.

    Every call reads the data afresh: from ``path``, else from the file
    named by ``WEYL2UNI_TABLE_PATH`` (looked up on every call), else from
    the packaged file.  An unreadable file raises DomainError naming it.
    Tables are parsed and validated once per file content: while the text
    read equals the last text seen, the table already validated from that
    text is returned, so callers share one frozen ``MapTable``.  The cache
    is keyed on the text itself, never on mtime, so it cannot go stale; it
    holds one text at a time, and a load that raises stores nothing.
    """
    global _cache
    if group not in GROUPS:
        raise DomainError(f"unknown group {group!r}; expected one of {GROUPS}")
    if characteristic not in SUPPORTED_CHARACTERISTICS[group]:
        raise DomainError(
            f"group {group} has tables for {SUPPORTED_CHARACTERISTICS[group]}, "
            f"not {characteristic!r} (the base table covers the other characteristics)"
        )
    text = _read_text(path)
    cache = _cache
    if cache is None or cache.text != text:
        cache = _TableCache(text, _parse_records(text))
    table = cache.tables.get((group, characteristic))
    if table is None:
        table = _build_table(cache.records, group, characteristic)
        cache.tables[group, characteristic] = table
    _cache = cache
    return table


def _build_table(records: tuple, group: str, characteristic: str) -> MapTable:
    """The (group, characteristic) table assembled from records, validated."""
    base: list[TableLine] = []
    patches: list[TableLine] = []
    for rec_group, tag, labels, name in records:
        if rec_group != group:
            continue
        line = TableLine(tuple(CarterLabel.parse(s) for s in labels), normalize_name(name))
        if tag == "good":
            base.append(line)
        elif tag == characteristic:
            patches.append(line)
    if not base:
        raise DomainError(f"no table data found for group {group}")
    lines = base if characteristic == "good" else _apply_patches(base, patches, group)
    if characteristic != "good":
        if not patches:
            raise DomainError(f"no {characteristic} patch records found for {group}")
        base_set = {lab.raw for line in base for lab in line.labels}
        new_set = {lab.raw for line in lines for lab in line.labels}
        if base_set != new_set:
            raise DomainError(f"{characteristic} patch for {group} changed the label set")
    table = MapTable(group, WEYL_RANK[group], characteristic, tuple(lines))
    report = verify_table(table)
    if not report.passed:
        raise DomainError(
            f"table data for ({group}, {characteristic}) failed validation: "
            + "; ".join(report.failures)
        )
    return table


def load_all_tables(path: str | None = None) -> list[MapTable]:
    """Every supported (group, characteristic) table, validated."""
    return [
        load_table(group, characteristic, path=path)
        for group in GROUPS
        for characteristic in SUPPORTED_CHARACTERISTICS[group]
    ]
