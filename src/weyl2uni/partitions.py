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

from collections.abc import Iterable, Iterator


class DomainError(ValueError):
    """An input violates one of the documented invariants."""


class ContradictionError(RuntimeError):
    """A property that must hold by construction failed; indicates a bug."""


def check_int(name: str, value) -> None:
    """Refuse (DomainError) a field ``name`` whose value is not an int, or is a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")


class Record:
    """Base of the frozen value records: equality, hash and repr by the fields ``_fields``.

    Two records are equal when they are of the same class with equal fields,
    and equal records hash equal.  Assigning or deleting an attribute raises
    AttributeError, so each ``__init__`` stores its fields with
    ``object.__setattr__``; copies and pickles are rebuilt by ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        """Copy and pickle through the constructor, which ``__setattr__`` leaves open."""
        return self.__class__, self._values()


class Partition(tuple):
    """A weakly decreasing sequence of positive integers: a sorted tuple.

    The constructor sorts its input and rejects nonpositive or non-integer
    parts.  A partition is the tuple of its parts: it equals, hashes and
    orders as that tuple, so ``Partition([3, 1]) == (3, 1)``, and it is
    immutable as a tuple is.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        ps = tuple(parts)
        try:
            ps = sorted(ps, reverse=True)
        except TypeError:  # an incomparable mix: left unsorted for __init__ to refuse
            pass
        return tuple.__new__(cls, ps)

    def __init__(self, parts: Iterable[int] = ()) -> None:
        for p in self:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise DomainError(f"partition parts must be positive integers, got {p!r}")

    @classmethod
    def _from_sorted(cls, parts: tuple[int, ...]) -> "Partition":
        """Trusted constructor: ``tuple.__new__`` alone, skipping the sort and the part check.

        The caller guarantees that ``parts`` is a tuple of positive ints in
        weakly decreasing order, derived from partitions already validated.
        Only these functions call it; a test in ``tests/test_partitions.py``
        scans the source and fails on any caller missing from its
        ``TRUSTED_CALLERS``:

        * ``merge``, ``double_parts`` and ``iter_members`` here;
        * the fiber walk ``splits.walk`` (r), its wrapper ``splits.iter_fiber``
          (p) and the choice-vector builder ``splits.Split.from_choices``;
        * ``type_bd.blocks_from_halves`` and ``_halves_of_chained``;
        * ``weyl.encode_class`` (series C) and ``decode_class``.

        Outside input (``from_text``, the ``__init__`` of the public
        records) always goes through the validating constructor.
        """
        return tuple.__new__(cls, parts)

    @property
    def parts(self) -> tuple[int, ...]:
        return self

    @property
    def size(self) -> int:
        """Sum of the parts."""
        return sum(self)

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    def runs(self) -> list[tuple[int, int]]:
        """The runs (e, q): each distinct value e with its multiplicity q, largest value first (one pass)."""
        out: dict[int, int] = {}
        for p in self:
            out[p] = out.get(p, 0) + 1
        return list(out.items())

    def text(self) -> str:
        """Comma-separated decimal parts; "-" for the empty partition."""
        return ",".join(str(p) for p in self) if self else "-"

    @classmethod
    def from_text(cls, s: str) -> "Partition":
        """Parse comma-separated ASCII decimal parts (see ``parse_decimal``); "-" is empty."""
        s = s.strip()
        if s in ("-", ""):
            return cls()
        try:
            return cls(parse_decimal(tok) for tok in s.split(","))
        except ValueError as exc:
            raise DomainError(f"cannot parse partition from {s!r}: {exc}") from None

    def to_json(self) -> list[int]:
        return list(self)


def parse_decimal(tok: str) -> int:
    """The value of a token of ASCII digits, surrounding whitespace allowed.

    Unlike ``int``, rejects a sign, ``_`` and non-ASCII digits, with the
    ValueError message ``int`` gives a malformed literal.
    """
    digits = tok.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {tok!r}")
    return int(digits)


def merge(a: Partition, b: Partition) -> Partition:
    """Multiset union of the parts of a and b, re-sorted weakly decreasing."""
    return Partition._from_sorted(tuple(sorted(a.parts + b.parts, reverse=True)))


def double_parts(a: Partition) -> Partition:
    """Each part repeated twice; always lands in the DOUBLED family."""
    return Partition._from_sorted(tuple([p for p in a.parts for _ in (0, 1)]))


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
    """Family R in one pass over the parts, family Q's pairing test included."""
    ps = c.parts
    if not ps:
        return True
    if ps[0] % 2 == 0:
        return False  # largest part must be odd
    if len(ps) % 2 == 0 and ps[-1] % 2 == 0:
        return False  # even length: smallest part must be odd
    seen = 0  # odd entries passed so far
    prev = 0  # the latest of them
    unpaired = 0  # an even value met an odd number of times so far, else 0
    gap = False  # the latest even part follows an odd entry at an even position
    for part in ps:
        if part % 2 == 0:
            if unpaired and unpaired != part:
                return False  # family Q: the value `unpaired` occurs an odd number of times
            unpaired = 0 if unpaired else part
            gap = seen % 2 == 0
        elif gap:
            return False  # strictly inside the gap between positions 2v and 2v+1
        elif seen % 2 == 1 and prev <= part:
            return False  # entries at positions (2v-1, 2v): strict drop
        else:
            seen, prev = seen + 1, part
    return not unpaired  # family Q again: sorted parts keep each value's copies adjacent


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
    try:
        predicate = _PREDICATES[family]
    except (KeyError, TypeError):  # TypeError: an unhashable tag
        raise DomainError(f"unknown family tag {family!r}; expected one of {FAMILY_TAGS}") from None
    return predicate(c)


def iter_members(total: int, family: str) -> Iterator[Partition]:
    """The partitions of `total` in family P1 (ANY), T (SYMPLECTIC) or Q (ORTHOGONAL).

    Generated directly instead of filtered: the values are taken largest
    first, each with a multiplicity, and a value of the paired parity (odd
    for T, even for Q; none for P1) takes only even multiplicities.
    Multiplicities are tried largest first, so the order is reverse
    lexicographic, and the members of T or Q come in the order of
    ``iter_partitions`` filtered by ``is_member``.
    """
    if family not in (ANY, SYMPLECTIC, ORTHOGONAL):
        raise DomainError(f"iter_members generates families P1, T and Q only, got {family!r}")
    if total < 0:
        raise DomainError("cannot partition a negative total")
    # the parity of the values that must come in pairs; None for P1
    paired = {SYMPLECTIC: 1, ORTHOGONAL: 0}.get(family)

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


def iter_partitions(total: int) -> Iterator[Partition]:
    """All partitions of `total`, in reverse lexicographic order."""
    return iter_members(total, ANY)
