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


PARSE_CAP = 100_000  # the largest total Partition.from_text, and rank SignedCycleType.from_text, accepts


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

    # Trusted constructor, ``tuple.__new__`` itself (no Python frame): no sort
    # and no part check, so the caller guarantees a tuple of positive ints in
    # weakly decreasing order, derived from validated partitions.  Outside
    # input (``from_text``, the public records' ``__init__``) never uses it.
    # Its callers, listed in ``TRUSTED_CALLERS`` of ``tests/test_partitions.py``
    # and checked there by a scan of the source: ``_sorted_union`` and
    # ``iter_member_runs`` here; ``splits.walk``, ``splits.iter_fiber`` and
    # ``splits._choice_parts``; ``type_bd.blocks_from_halves`` and
    # ``_halves_of_chained``; ``weyl._encode_parts`` (series C) and ``_class_of``.
    _from_sorted = classmethod(tuple.__new__)

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
        """The runs (e, q): each distinct value e with its multiplicity q, largest value first, in one pass."""
        out = []
        prev = q = 0
        for e in self:  # sorted, so equal parts are adjacent
            if e == prev:
                q += 1
            else:
                if q:
                    out.append((prev, q))
                prev, q = e, 1
        if q:
            out.append((prev, q))
        return out

    def text(self) -> str:
        """Comma-separated decimal parts; "-" for the empty partition."""
        return ",".join(str(p) for p in self) if self else "-"

    @classmethod
    def from_text(cls, s: str) -> "Partition":
        """Parse comma-separated ASCII decimal parts (``parse_decimal``), at most ``PARSE_CAP`` in all; "-" is empty."""
        s = s.strip()
        if s in ("-", ""):
            return cls()
        try:
            out = cls(parse_decimal(tok) for tok in s.split(","))
        except ValueError as exc:
            raise DomainError(f"cannot parse partition from {s!r}: {exc}") from None
        if out.size > PARSE_CAP:
            raise DomainError(f"partition total {out.size} is above the parse cap {PARSE_CAP}")
        return out

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


def _sorted_union(a: Partition, b: Partition) -> Partition:
    """The multiset union of two partitions, re-sorted weakly decreasing, with no type check.

    The core of ``merge`` and ``double_parts``, and of ``weyl``'s encoding,
    whose arguments are already checked Partitions.
    """
    return Partition._from_sorted(tuple(sorted(a + b, reverse=True)))


def merge(a: Partition, b: Partition) -> Partition:
    """Multiset union of the parts of a and b, re-sorted weakly decreasing; DomainError unless both are Partitions."""
    if not isinstance(a, Partition) or not isinstance(b, Partition):
        name, value = ("b", b) if isinstance(a, Partition) else ("a", a)
        raise DomainError(f"merge needs Partitions, got {name}={value!r}")
    return _sorted_union(a, b)


def double_parts(a: Partition) -> Partition:
    """Each part of a repeated twice, so always in the DOUBLED family; DomainError unless a is a Partition."""
    if not isinstance(a, Partition):
        raise DomainError(f"double_parts needs a Partition, got a={a!r}")
    return _sorted_union(a, a)


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


def _check_symplectic(c: Partition) -> bool:
    return _pairs_up([v for v in c if v % 2])


def _check_orthogonal(c: Partition) -> bool:
    return _pairs_up([v for v in c if v % 2 == 0])


def _check_chained(c: Partition) -> bool:
    """Family R in one pass over the parts, family Q's pairing test included."""
    if not c:
        return True
    if c[0] % 2 == 0:
        return False  # largest part must be odd
    if len(c) % 2 == 0 and c[-1] % 2 == 0:
        return False  # even length: smallest part must be odd
    seen = 0  # odd entries passed so far
    prev = 0  # the latest of them
    unpaired = 0  # an even value met an odd number of times so far, else 0
    gap = False  # the latest even part follows an odd entry at an even position
    for part in c:
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
    "Ptilde": _pairs_up,
    "T": _check_symplectic,
    "S": lambda c: not [p for p in c if p % 2],
    "Q": _check_orthogonal,
    "R": _check_chained,
    "E": lambda c: _pairs_up(c) and all(p % 2 == 0 for p in c),
}


def is_member(c: Partition, family: str) -> bool:
    """Decide membership of a partition in a family, given by its tag; DomainError for anything but a Partition."""
    try:
        predicate = _PREDICATES[family]
    except (KeyError, TypeError):  # TypeError: an unhashable tag
        raise DomainError(f"unknown family tag {family!r}; expected one of {FAMILY_TAGS}") from None
    if not isinstance(c, Partition):  # the predicates read sorted parts
        raise DomainError(f"is_member needs a Partition, got c={c!r}")
    return predicate(c)


def iter_member_runs(total: int, family: str) -> Iterator[tuple[Partition, list[tuple[int, int]]]]:
    """The partitions c of `total` in family P1 (ANY), T (SYMPLECTIC) or Q (ORTHOGONAL), each with ``c.runs()``.

    Generated directly instead of filtered, as (c, runs) pairs: the values
    are taken largest first, each with a multiplicity, and a value of the
    paired parity (odd for T, even for Q; none for P1) takes only even
    multiplicities.  Multiplicities are tried largest first, so the order
    is reverse lexicographic, and the members of T or Q come in the order
    of ``iter_partitions`` filtered by ``is_member``.  One loop walks the
    choices depth first, keeping the parts above each depth, so a member
    costs one tuple and one list of runs.  Value 1 only ever fills what is
    left, so every choice leads to a member, but at an odd total in T,
    which has none.
    """
    check_int("total", total)
    if family not in (ANY, SYMPLECTIC, ORTHOGONAL):
        raise DomainError(f"iter_members generates families P1, T and Q only, got {family!r}")
    if total < 0:
        raise DomainError("cannot partition a negative total")
    if not total:
        yield Partition._from_sorted(()), []
        return
    # the parity of the values that must come in pairs; None for P1
    paired = {SYMPLECTIC: 1, ORTHOGONAL: 0}.get(family)
    runs: list[tuple[int, int]] = []  # the runs chosen above this depth
    heads = [()]  # heads[d]: the parts of runs[:d]
    # left: what this depth and below must sum to; (v, k): the run tried here, k copies of v (none yet)
    left, v, k = total, total + 1, 0
    while True:
        # the next run at this depth: fewer copies of v, else the most copies of a smaller value
        k -= 2 if v % 2 == paired else 1
        if k <= 0 or v == 1:
            v -= 1
            while v:
                k = left // v
                if v % 2 == paired:
                    k -= k % 2
                if k:
                    break
                v -= 1
            else:  # this depth is spent: back to the run above
                if not runs:
                    return
                heads.pop()
                v, k = runs.pop()
                left += v * k
                continue
        rest = left - v * k
        if rest:
            runs.append((v, k))
            heads.append(heads[-1] + (v,) * k)
            left, v, k = rest, min(v - 1, rest) + 1, 0
            continue
        yield Partition._from_sorted(heads[-1] + (v,) * k), runs + [(v, k)]


def iter_members(total: int, family: str) -> Iterator[Partition]:
    """The partitions of `total` in family P1, T or Q, in reverse lexicographic order (``iter_member_runs``)."""
    return (c for c, _ in iter_member_runs(total, family))


def iter_partitions(total: int) -> Iterator[Partition]:
    """All partitions of `total`, in reverse lexicographic order."""
    return iter_members(total, ANY)
