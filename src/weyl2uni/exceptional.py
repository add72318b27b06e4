"""Lookup tables for the exceptional groups and the Carter-label calculus.

Each table line pairs an ordered list of Weyl-class names (Carter labels)
with the unipotent class they map to.  The first label of a line is the
section value; its diagram rank is strictly maximal within the line, so its
fixed-space dimension (Weyl rank minus diagram rank) is strictly minimal.

Tables ship as data (``data/phi_tables.tsv``); bad-characteristic variants
are stored as replacement records and spliced in at load time.  The
environment variable ``WEYL2UNI_TABLE_PATH``, read on every call, is the
one way to point the loader at another file.  Each file content is parsed
once and each table validated once per content, and the validated tables
are shared between callers: a load whose text equals the last text read
returns the same frozen ``MapTable``.

Lookups accept the ASCII aliases of ``normalize_name``.  Each table holds
one answer dict per lookup, keyed by every canonical spelling (every label
and name the library prints) and by each ASCII alias of it, so either is
answered by one probe.  A miss, such as a Unicode or padded spelling, is
probed again in normal form, and only a normal form outside the index is
parsed as a Carter label, with the same answer or error either way.  The
labels of one file content are parsed once, whichever tables use them.
"""

from __future__ import annotations

import os
import re
import unicodedata
from functools import lru_cache
from itertools import product

from .partitions import DomainError, Record

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
_PACKAGED_TABLES = os.path.join(os.path.dirname(__file__), "data", "phi_tables.tsv")


class UnknownLabel(DomainError):
    """A label or unipotent name that does not occur in the table."""


def normalize_name(s: str) -> str:
    """Canonical spelling: precomposed tildes, ASCII prime marks.

    Accepted aliases: "A~_1", "~A_1" and "tA_1" for "Ã_1"; Unicode prime
    and double-prime; a straight double quote for ''.  Anything but a str is
    a DomainError: every lookup and parse reads its text through here.
    """
    if not isinstance(s, str):
        raise DomainError(f"expected text, got {s!r}")
    s = s.strip()
    if not s.isascii():  # ASCII text is already NFC and holds no Unicode prime
        s = unicodedata.normalize("NFC", s).replace("′", "'").replace("″", "''")
    s = s.replace('"', "''").replace("A~", "Ã").replace("~A", "Ã")
    return _TA_RE.sub("Ã", s) if "tA" in s else s


_TA_RE = re.compile(r"(?<![A-Za-z_])tA(?=_)")
_COMPONENT_RE = re.compile(
    r"^(?P<count>(?:0*[1-9]\d*)?)(?P<letter>Ã|[A-G])_(?P<sub>0*[1-9]\d*)"
    r"(?:\((?P<pletter>[ab])_(?P<pindex>0*[1-9]\d*)\))?(?P<primes>'{0,2})$"
)


_SPELLINGS = {"Ã": ("Ã", "tA", "A~", "~A"), "''": ("''", '"')}  # each mark's ASCII spellings, itself first
_MARK_RE = re.compile("(Ã|'')")


@lru_cache(maxsize=1024)
def _aliases(key: str) -> tuple[str, ...]:
    """The spellings of key, each mark spelled on its own, that ``normalize_name`` (the one definition) maps to key.

    Cached, as it depends on the key alone: a first load of the ten
    packaged tables asks for 1,460 keys' aliases but holds only 163
    distinct keys.  A key with a tildes and b double primes has fewer than
    4**a * 2**b aliases; each packaged key has at most 3, so its 163 entries
    take about 19 KB, and the at most 1,024 cached keys of such labels
    about 120 KB.
    """
    pieces = _MARK_RE.split(key)  # the marks sit at the odd positions
    spelled = map("".join, product(*[_SPELLINGS[x] if i % 2 else (x,) for i, x in enumerate(pieces)]))
    return tuple([s for s in spelled if s != key and normalize_name(s) == key])


def _index(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """Each answer under its key and the key's aliases; a key wins over an alias, a later pair over an earlier."""
    index = {alias: answer for key, answer in pairs for alias in _aliases(key)}
    index.update(pairs)
    return index


def _label_index(pairs: list[tuple[CarterLabel, object]]) -> dict[object, object]:
    """``_index`` of the labels' texts, with each answer also under its ``CarterLabel``."""
    index = _index([(lab.raw, answer) for lab, answer in pairs])
    index.update(pairs)
    return index


class CarterLabel(Record):
    """A Weyl-class name such as D_4(a_1)+2A_1 or A_3+2A_1''.

    components holds (count >= 1, letter, subscript >= 1, parenthetical
    with index >= 1, primes) per summand; subscript 0 occurs only in the
    whole label A_0, the identity class.  The diagram rank is the
    count-weighted sum of subscripts, ignoring parentheticals and primes;
    it is computed once into ``rank``, which is not a field, as is the
    hash of the fields, so a label keys a dict at the cost of one read.
    raw is the canonical spelling and round-trips through parse: counts,
    subscripts and parenthetical indices lose their leading zeros.
    """

    __slots__ = ("raw", "components", "rank", "_hash")
    _fields = __slots__[:2]

    def __init__(self, raw: str, components: tuple[tuple[int, str, int, str, str], ...]) -> None:
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "rank", sum(count * sub for count, _, sub, _, _ in components))
        object.__setattr__(self, "_hash", hash((raw, components)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def parse(cls, s: str) -> "CarterLabel":
        norm = normalize_name(s)
        if not norm:
            raise DomainError("empty Carter label")
        if norm == "A_0":  # the identity class: the one label with subscript 0
            return cls(norm, ((1, "A", 0, "", ""),))
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
                    f"({m['pletter']}_{int(m['pindex'])})" if m["pletter"] else "",
                    m["primes"],
                )
            )
        raw = "+".join(
            f"{'' if count == 1 else count}{letter}_{sub}{paren}{primes}"
            for count, letter, sub, paren, primes in comps
        )
        return cls(raw, tuple(comps))

    def __str__(self) -> str:
        return self.raw


class TableLine(Record):
    """One fiber: ordered labels and the unipotent name (normalized) they map to."""

    _fields = __slots__ = ("labels", "name")

    def __init__(self, labels: tuple[CarterLabel, ...], name: str) -> None:
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "name", name)


class MapTable(Record):
    """The full class-to-unipotent map for one group and characteristic.

    Its three answer dicts, built with it and not fields, hold each
    lookup's final answer (``phi``: the line's name; ``fixed_space_dim``:
    the Weyl rank minus the label's, if not negative; ``psi``: the line's
    first label) under each canonical spelling and each ASCII alias that
    ``normalize_name`` maps to it; ``phi`` and ``fixed_space_dim`` also
    hold it under the ``CarterLabel`` itself, so a label is answered by
    one probe too.  A miss is normalized and probed again, and a label
    whose normal form is not a key is parsed, so every route gives the
    parse-first answer or error.
    """

    __slots__ = ("group", "weyl_rank", "characteristic", "lines", "_phi", "_dims", "_psi")
    _fields = __slots__[:4]

    def __init__(
        self, group: str, weyl_rank: int, characteristic: str, lines: tuple[TableLine, ...]
    ) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "weyl_rank", weyl_rank)
        object.__setattr__(self, "characteristic", characteristic)
        object.__setattr__(self, "lines", lines)
        labeled = [(lab, line) for line in lines for lab in line.labels]
        object.__setattr__(self, "_phi", _label_index([(lab, line.name) for lab, line in labeled]))
        object.__setattr__(self, "_dims", _label_index([(lab, weyl_rank - lab.rank) for lab, _ in labeled
                                                        if lab.rank <= weyl_rank]))
        object.__setattr__(self, "_psi", _index([(line.name, line.labels[0]) for line in lines]))

    def labels(self) -> list[CarterLabel]:
        return [lab for line in self.lines for lab in line.labels]

    def names(self) -> list[str]:
        return [line.name for line in self.lines]

    def phi(self, label: CarterLabel | str) -> str:
        """Unipotent name of the line containing the label; neither a str nor a ``CarterLabel`` is a DomainError."""
        try:
            return self._phi[label]
        except (KeyError, TypeError):  # TypeError: unhashable, refused below
            pass
        if isinstance(label, str):
            name = self._phi.get(normalize_name(label))
            if name is not None:
                return name
        raw = label.raw if isinstance(label, CarterLabel) else CarterLabel.parse(label).raw
        name = self._phi.get(raw)
        if name is None:
            raise UnknownLabel(f"no class {raw!r} in the {self.group} table ({self.characteristic})")
        return name

    def psi(self, name: str) -> CarterLabel:
        """First-listed label of the line with the given unipotent name; a name that is not a str is a DomainError."""
        try:
            return self._psi[name]
        except (KeyError, TypeError):
            pass
        head = self._psi.get(normalize_name(name))
        if head is None:
            raise UnknownLabel(f"no unipotent class {name!r} in the {self.group} table ({self.characteristic})")
        return head

    def fixed_space_dim(self, label: CarterLabel | str) -> int:
        """Weyl rank minus diagram rank of any parseable label of rank <= the Weyl rank."""
        try:
            return self._dims[label]
        except (KeyError, TypeError):
            pass
        if isinstance(label, str):
            dim = self._dims.get(normalize_name(label))
            if dim is not None:
                return dim
        if not isinstance(label, CarterLabel):
            label = CarterLabel.parse(label)  # not a str: parse refuses it
        rank = label.rank
        if rank > self.weyl_rank:
            raise DomainError(f"label {label.raw} has rank {rank} above the Weyl rank")
        return self.weyl_rank - rank


def verify_table(t: MapTable) -> list[str]:
    """Check every structural invariant of a table: the failures, empty if it passes.

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
    return failures


_OPEN_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)  # O_BINARY: Windows, where it stops newline translation
_READ_CHUNK = 1 << 16


def _read_bytes() -> tuple[str, bytes]:
    """(file, its bytes): the file the env var names, else the packaged file, read whole.

    A raw read (``os.open``, ``os.read`` until EOF, ``os.close``): building
    a buffered file object was most of the cost of reading the 5 KB
    packaged file.  On Linux a directory opens and fails at the read, so
    all three sit inside the one handler.
    """
    file = os.environ.get(_DATA_ENV) or _PACKAGED_TABLES
    try:
        fd = os.open(file, _OPEN_FLAGS)
        try:
            chunks = []
            while chunk := os.read(fd, _READ_CHUNK):
                chunks.append(chunk)
        finally:
            os.close(fd)
    except OSError as exc:
        raise DomainError(f"cannot read table file {file}: {exc.strerror or exc}") from exc
    return file, b"".join(chunks)


def _decode(file: str, data: bytes) -> str:
    """The table text of a file's bytes, which must be UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(
            f"table file {file} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from exc


def _parse_records(text: str) -> tuple[tuple[str, str, tuple[str, ...], str], ...]:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
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


class _TableCache:
    """The bytes of the last table file read, its records, one ``CarterLabel`` per label text and the tables."""

    __slots__ = ("data", "records", "labels", "tables")

    def __init__(self, data: bytes, records: tuple) -> None:
        self.data = data
        self.records = records
        self.labels: dict[str, CarterLabel] = {}
        self.tables: dict[tuple[str, str], MapTable] = {}


_cache: _TableCache | None = None


def load_table(group: str, characteristic: str = "good") -> MapTable:
    """Load and validate one (group, characteristic) table.

    Unsupported pairs are rejected: the base table already covers every
    characteristic without a dedicated variant.

    Every call reads the whole file afresh, in one raw read: the file
    named by ``WEYL2UNI_TABLE_PATH`` (looked up on every call), else the
    packaged file.  An unreadable or non-UTF-8 file raises DomainError
    naming it.  Tables are parsed and validated once per file content:
    while the bytes read equal the last bytes seen, the table already
    validated from them is returned, so callers share one frozen
    ``MapTable``, and only a miss decodes the bytes.  The cache is keyed on
    the content itself, never on mtime, so it cannot go stale; it holds one
    content at a time, and a load that raises stores no table.  A repeat
    load is thus the raw read plus a byte compare: about 4 us for the
    packaged file, where a buffered read made it about 7 us.  A first load
    builds each key's aliases once, whichever tables hold the key: all ten
    packaged tables load cold in about 2.7 ms, not 4.3 ms.  (Unscaled
    in-process times on a 2-core Xeon VM with Python 3.11.)
    """
    global _cache
    if group not in GROUPS:
        raise DomainError(f"unknown group {group!r}; expected one of {GROUPS}")
    if characteristic not in SUPPORTED_CHARACTERISTICS[group]:
        raise DomainError(
            f"group {group} has tables for {SUPPORTED_CHARACTERISTICS[group]}, "
            f"not {characteristic!r} (the base table covers the other characteristics)"
        )
    file, data = _read_bytes()
    cache = _cache
    if cache is None or cache.data != data:
        cache = _TableCache(data, _parse_records(_decode(file, data)))
    table = cache.tables.get((group, characteristic))
    if table is None:
        table = _build_table(cache, group, characteristic)
        cache.tables[group, characteristic] = table
    _cache = cache
    return table


def _build_table(cache: _TableCache, group: str, characteristic: str) -> MapTable:
    """The (group, characteristic) table assembled from a content's records and labels, validated."""
    base: list[TableLine] = []
    patches: list[TableLine] = []
    for rec_group, tag, texts, name in cache.records:
        if rec_group != group:
            continue
        labels = tuple([cache.labels.get(s) or cache.labels.setdefault(s, CarterLabel.parse(s)) for s in texts])
        line = TableLine(labels, normalize_name(name))
        if tag == "good":
            base.append(line)
        elif tag == characteristic:
            patches.append(line)
    if not base:
        raise DomainError(f"no table data found for group {group}")
    # _apply_patches refuses every patch that would change the label set
    lines = base if characteristic == "good" else _apply_patches(base, patches, group)
    if characteristic != "good" and not patches:
        raise DomainError(f"no {characteristic} patch records found for {group}")
    table = MapTable(group, WEYL_RANK[group], characteristic, tuple(lines))
    failures = verify_table(table)
    if failures:
        raise DomainError(
            f"table data for ({group}, {characteristic}) failed validation: " + "; ".join(failures)
        )
    return table
