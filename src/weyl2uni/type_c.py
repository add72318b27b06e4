"""Symplectic-side splits: Jordan types vs (all-even, doubled) pairs.

A ``Split`` is a pair (r, p) with r all even (family S) and p doubled
(family Ptilde); it represents a conjugacy class datum whose merged multiset
is a symplectic Jordan type.  ``combine`` merges, ``canonical_split`` routes
every odd part to p and every even part to r, ``fiber`` lists all splits of
a given Jordan type, and ``minimal_split`` returns the unique split with the
fewest parts in p.  It finds that minimum a second way, without the parity
rule: each distinct value picks its own count for p, so the minimum is a
per-value argmin over the allowed counts, checked for ties and then against
``canonical_split``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .partitions import (
    ALL_EVEN,
    ContradictionError,
    DOUBLED,
    DomainError,
    Partition,
    SYMPLECTIC,
    is_member,
    merge,
)


@dataclass(frozen=True)
class Split:
    """(r, p) with r in family S and p in family Ptilde."""

    r: Partition
    p: Partition

    def __post_init__(self):
        if not is_member(self.r, ALL_EVEN):
            raise DomainError(f"r={self.r.text()} has an odd part (family S violated)")
        if not is_member(self.p, DOUBLED):
            raise DomainError(f"p={self.p.text()} is not doubled (family Ptilde violated)")

    @property
    def nu(self) -> int:
        return self.r.size + self.p.size

    def text(self) -> str:
        return f"r={self.r.text()};p={self.p.text()}"

    @classmethod
    def from_text(cls, s: str) -> "Split":
        try:
            rpart, ppart = s.split(";")
            assert rpart.startswith("r=") and ppart.startswith("p=")
        except (ValueError, AssertionError):
            raise DomainError(f"expected 'r=<partition>;p=<partition>', got {s!r}") from None
        return cls(Partition.from_text(rpart[2:]), Partition.from_text(ppart[2:]))

    def to_json(self) -> dict:
        return {"r": self.r.to_json(), "p": self.p.to_json()}


def _require_symplectic(c: Partition) -> None:
    if not is_member(c, SYMPLECTIC):
        raise DomainError(
            f"{c.text()} is not a symplectic Jordan type (family T): "
            "some odd value occurs an odd number of times"
        )


def combine(x: Split) -> Partition:
    """Merge the two sides into a symplectic Jordan type."""
    c = merge(x.r, x.p)
    if not is_member(c, SYMPLECTIC):  # cannot happen: odd parts come from p in pairs
        raise ContradictionError(f"combine({x.text()}) left family T")
    return c


def canonical_split(c: Partition) -> Split:
    """The distinguished split: odd parts all to p, even parts all to r."""
    _require_symplectic(c)
    evens = [v for v in c if v % 2 == 0]
    odds = [v for v in c if v % 2 == 1]
    out = Split(Partition(evens), Partition(odds))
    if combine(out) != c:
        raise ContradictionError(f"canonical split of {c.text()} does not merge back")
    return out


def _p_counts(e: int, q: int) -> list[int]:
    """Copies of a value e of multiplicity q that may go to p.

    Odd values may only sit in p; for an even value any even number of
    copies goes to p.
    """
    return [q] if e % 2 else list(range(0, q + 1, 2))


def iter_fiber(c: Partition) -> Iterator[Split]:
    """Lazily enumerate every split of c.

    Every combination of per-value counts from ``_p_counts`` is a split:
    odd values go wholly to p (an even number of copies, c being in family
    T) and even values send an even number of copies there, so r is all
    even and p doubled by construction; ``Split`` re-checks both.  Both
    sides are built from the runs of c, largest value first, so they are
    already sorted and skip the re-sort of the validating constructor.
    """
    _require_symplectic(c)
    runs = list(c.multiplicities().items())
    for ns in itertools.product(*(_p_counts(e, q) for e, q in runs)):
        p_parts: list[int] = []
        r_parts: list[int] = []
        for (e, q), n in zip(runs, ns):
            p_parts += [e] * n
            r_parts += [e] * (q - n)
        yield Split(Partition._from_sorted(tuple(r_parts)), Partition._from_sorted(tuple(p_parts)))


def fiber(c: Partition) -> list[Split]:
    """All splits of c, minimal p-length first, deterministically ordered."""
    return sorted(iter_fiber(c), key=lambda x: (len(x.p), x.p.parts, x.r.parts))


def fiber_minimum(c: Partition) -> tuple[int | None, int, Split | None]:
    """(minimal p-length, number of splits reaching it, the minimiser if unique).

    The values are independent, so the minimum is a per-value argmin over
    ``_p_counts`` and the number of minimisers is the product of the
    per-value tie counts.  Linear in the length of c; an empty fiber gives
    (None, 0, None).
    """
    _require_symplectic(c)
    p_len, ties = 0, 1
    r_parts: list[int] = []
    p_parts: list[int] = []
    for e, q in c.multiplicities().items():
        ns = _p_counts(e, q)
        if not ns:
            return None, 0, None
        n = min(ns)
        p_len += n
        ties *= ns.count(n)
        r_parts += [e] * (q - n)
        p_parts += [e] * n
    best = Split(Partition(r_parts), Partition(p_parts)) if ties == 1 else None
    return p_len, ties, best


def minimal_split(c: Partition) -> Split:
    """The unique split minimizing the number of parts of p.

    Computed twice: by the per-value argmin of ``fiber_minimum`` and by the
    parity rule.  Raises ContradictionError if the fiber is empty, the
    minimum is not unique or the routes disagree (none can happen; this is
    the point being verified).
    """
    p_len, ties, best = fiber_minimum(c)
    if p_len is None:
        raise ContradictionError(f"empty fiber over {c.text()}")
    if ties != 1:
        raise ContradictionError(
            f"{ties} fiber elements over {c.text()} share the minimal p-length {p_len}"
        )
    want = canonical_split(c)
    if best != want:
        raise ContradictionError(
            f"fiber minimum {best.text()} differs from canonical split {want.text()} over {c.text()}"
        )
    return best
