"""Integer partitions and the part-multiset families used by the classical maps.

Everything here is exact integer combinatorics on weakly decreasing tuples of
positive integers.  A partition's ``size`` is the sum of its parts and its
length the number of parts; the empty partition is valid, prints as ``"-"``
and serializes to ``[]``.

The families are decidable predicates on partitions, named by their
one-letter tags (P1, P0, Ptilde, T, S, Q, R, E).  A family is its tag
string: ``is_member(c, tag)`` looks the predicate up, and an unknown tag
raises ``DomainError``.  The module constants are the same strings under
readable names:

* ``ANY`` (P1): every partition.
* ``EVEN_LENGTH`` (P0): an even number of parts.
* ``DOUBLED`` (Ptilde): parts equal in consecutive pairs, p1=p2, p3=p4, ...
  (equivalently: every value occurs an even number of times).
* ``SYMPLECTIC`` (T): every odd value occurs an even number of times; these
  are the Jordan block multisets of symplectic unipotent elements.
* ``ALL_EVEN`` (S): every part is even.
* ``ORTHOGONAL`` (Q): every even value occurs an even number of times; the
  Jordan block multisets of orthogonal unipotent elements.
* ``CHAINED`` (R): members of Q whose odd parts form an alternating chain:
  the largest part is odd, the smallest is odd when the length is even,
  odd parts strictly drop at odd positions of the odd subsequence, and no
  part lies strictly inside an even-position gap.  This is exactly the image
  of ``type_bd.blocks_from_halves``.
* ``DOUBLED_EVEN`` (E): doubled with every part even ("very even").
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator


class DomainError(ValueError):
    """An input violates one of the documented invariants."""


class ContradictionError(RuntimeError):
    """A property that must hold by construction failed; indicates a bug."""


@total_ordering
class Partition:
    """A weakly decreasing sequence of positive integers.

    Constructors sort their input and reject nonpositive or non-integer
    parts.  Instances are immutable and hashable.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()) -> None:
        ps = tuple(sorted(parts, reverse=True))
        for p in ps:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise DomainError(f"partition parts must be positive integers, got {p!r}")
        object.__setattr__(self, "_parts", ps)

    @classmethod
    def _from_sorted(cls, parts: tuple[int, ...]) -> "Partition":
        """Trusted constructor: skips the sort and the per-part check of ``__init__``.

        The caller guarantees that ``parts`` is a tuple of positive ints in
        weakly decreasing order.  Only code of this package that builds parts
        in that order (``iter_partitions``, ``iter_members``, the fiber
        assembly of ``type_c``/``type_bd``) may call it; outside input always
        goes through ``__init__``.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "_parts", parts)
        return self

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("Partition is immutable")

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def size(self) -> int:
        """Sum of the parts."""
        return sum(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __getitem__(self, k: int) -> int:
        return self._parts[k]

    def __bool__(self) -> bool:
        return bool(self._parts)

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self._parts == other._parts
        return NotImplemented

    def __lt__(self, other) -> bool:
        if isinstance(other, Partition):
            return self._parts < other._parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)})"

    def multiplicity(self, e: int) -> int:
        """How many times the value e occurs as a part (O(length) scan)."""
        return sum(1 for p in self._parts if p == e)

    def multiplicities(self) -> dict[int, int]:
        """Each distinct value with its multiplicity, largest value first (one pass)."""
        out: dict[int, int] = {}
        for p in self._parts:
            out[p] = out.get(p, 0) + 1
        return out

    def text(self) -> str:
        """Comma-separated decimal parts; "-" for the empty partition."""
        return ",".join(str(p) for p in self._parts) if self._parts else "-"

    @classmethod
    def from_text(cls, s: str) -> "Partition":
        s = s.strip()
        if s in ("-", ""):
            return cls()
        try:
            return cls(int(tok) for tok in s.split(","))
        except ValueError as exc:
            raise DomainError(f"cannot parse partition from {s!r}: {exc}") from None

    def to_json(self) -> list[int]:
        return list(self._parts)


def merge(a: Partition, b: Partition) -> Partition:
    """Multiset union of the parts of a and b, re-sorted weakly decreasing."""
    return Partition(a.parts + b.parts)


def double_parts(a: Partition) -> Partition:
    """Each part repeated twice; always lands in the DOUBLED family."""
    out = []
    for p in a:
        out += [p, p]
    return Partition(out)


def undouble_parts(a: Partition) -> Partition:
    """Inverse of double_parts; rejects partitions that are not doubled."""
    if not is_member(a, DOUBLED):
        raise DomainError(f"{a.text()} is not doubled (family Ptilde)")
    return Partition(a.parts[0::2])


def iter_partitions(total: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of `total`, in reverse lexicographic order.

    ``iter_members`` yields the members of family T or Q in this same order.
    """
    if total < 0:
        raise DomainError("cannot partition a negative total")

    def rec(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for head in range(min(cap, remaining), 0, -1):
            for tail in rec(remaining - head, head):
                yield (head,) + tail

    cap = total if max_part is None else min(max_part, total)
    for tup in rec(total, cap):
        yield Partition._from_sorted(tup)


# ---------------------------------------------------------------------------
# Families

FAMILY_TAGS = ("P1", "P0", "Ptilde", "T", "S", "Q", "R", "E")
ANY, EVEN_LENGTH, DOUBLED, SYMPLECTIC, ALL_EVEN, ORTHOGONAL, CHAINED, DOUBLED_EVEN = FAMILY_TAGS


def _pairs_up(ps) -> bool:
    """Whether a decreasing sequence is equal in consecutive pairs (even length included).

    For sorted input this holds exactly when every value occurs an even
    number of times, so one linear pass replaces a count per value.
    """
    return ps[0::2] == ps[1::2]


def _check_doubled(c: Partition) -> bool:
    return _pairs_up(c.parts)


def _check_symplectic(c: Partition) -> bool:
    return _pairs_up([v for v in c.parts if v % 2])


def _check_orthogonal(c: Partition) -> bool:
    return _pairs_up([v for v in c.parts if v % 2 == 0])


def _check_chained(c: Partition) -> bool:
    if not _check_orthogonal(c):
        return False
    ps = c.parts
    if not ps:
        return True
    if ps[0] % 2 == 0:
        return False  # largest part must be odd
    if len(ps) % 2 == 0 and ps[-1] % 2 == 0:
        return False  # even length: smallest part must be odd
    total_odds = sum(v % 2 for v in ps)
    seen = 0  # odd entries passed so far
    prev = 0  # the latest of them
    for part in ps:
        if part % 2:
            if seen % 2 == 1 and prev <= part:
                return False  # entries at positions (2v-1, 2v): strict drop
            seen, prev = seen + 1, part
        elif seen % 2 == 0 and 0 < seen < total_odds:
            return False  # strictly inside the gap between positions 2v and 2v+1
    return True


_PREDICATES = {
    "P1": lambda c: True,
    "P0": lambda c: len(c) % 2 == 0,
    "Ptilde": _check_doubled,
    "T": _check_symplectic,
    "S": lambda c: all(p % 2 == 0 for p in c),
    "Q": _check_orthogonal,
    "R": _check_chained,
    "E": lambda c: _check_doubled(c) and all(p % 2 == 0 for p in c),
}


def is_member(c: Partition, family: str) -> bool:
    """Decide membership of a partition in a family, given by its tag."""
    predicate = _PREDICATES.get(family) if isinstance(family, str) else None
    if predicate is None:
        raise DomainError(f"unknown family tag {family!r}; expected one of {FAMILY_TAGS}")
    return predicate(c)


def iter_members(total: int, family: str) -> Iterator[Partition]:
    """The partitions of `total` in family T (SYMPLECTIC) or Q (ORTHOGONAL).

    Generated directly instead of filtering ``iter_partitions``: the values
    are taken largest first, each with a multiplicity, and a value of the
    paired parity (odd for T, even for Q) takes only even multiplicities.
    Multiplicities are tried largest first, so the order is reverse
    lexicographic, identical to ``iter_partitions`` filtered by ``is_member``.
    """
    if family not in (SYMPLECTIC, ORTHOGONAL):
        raise DomainError(f"iter_members generates families T and Q only, got {family!r}")
    if total < 0:
        raise DomainError("cannot partition a negative total")
    paired = 1 if family == SYMPLECTIC else 0  # parity of the values that must come in pairs

    def rec(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for v in range(min(cap, remaining), 0, -1):
            most, step = remaining // v, 1
            if v % 2 == paired:
                most, step = most - most % 2, 2
            for k in range(most, 0, -step):
                head = (v,) * k
                for tail in rec(remaining - k * v, v - 1):
                    yield head + tail

    for tup in rec(total, total):
        yield Partition._from_sorted(tup)
