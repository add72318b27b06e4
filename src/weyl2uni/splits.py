"""The split engine shared by series C and series B/D.

A split of a Jordan type c is a pair (r, p) that merges back to c, with p
doubled (family Ptilde) and r in the side's r-family: S (all even) for C, R
(chained) for B and D.  Both sides find ``psi`` the same way: list the
splits, take the unique one with the fewest parts in p and check it against
a closed-form routing.  This module holds that machinery once: ``Split``,
``combine``, ``iter_fiber``, ``fiber`` and the dual-route guard
``minimal_split``.  ``type_c`` and ``type_bd`` keep only their rules (a
``Split`` subclass naming the r-family, ``_r_counts``, ``canonical_split``
and ``fiber_minimum``) and call in here with one line per public function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator

from .partitions import ContradictionError, DOUBLED, DomainError, Partition, is_member, merge


@dataclass(frozen=True)
class Split:
    """(r, p) with r in the family ``R_FAMILY`` and p in family Ptilde.

    Subclasses set ``R_FAMILY`` and ``R_VIOLATION``, the end of the message
    raised when r is not in that family.
    """

    R_FAMILY: ClassVar[str]
    R_VIOLATION: ClassVar[str]

    r: Partition
    p: Partition

    def __post_init__(self):
        if not is_member(self.r, self.R_FAMILY):
            raise DomainError(f"r={self.r.text()} {self.R_VIOLATION}")
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


def combine(x: Split, jordan_family: str) -> Partition:
    """Merge the two sides of x into a Jordan type of ``jordan_family`` (T or Q)."""
    c = merge(x.r, x.p)
    if not is_member(c, jordan_family):  # cannot happen: each side's rules keep c there
        raise ContradictionError(f"combine({x.text()}) left family {jordan_family}")
    return c


def iter_fiber(split_cls, c: Partition, r_counts, keep: str | None = None) -> Iterator[Split]:
    """Lazily enumerate the splits of c, one per combination of per-value choices.

    ``r_counts(e, q)`` lists how many copies of a value e of multiplicity q
    may go to r; the rest go to p.  When ``keep`` names a family, a
    candidate whose r is not in it is skipped; ``split_cls`` re-checks both
    families on every split yielded.  Both sides are built from the runs of
    c, largest value first, so they are already sorted and skip the re-sort
    of the validating constructor.
    """
    runs = list(c.multiplicities().items())
    for ms in itertools.product(*(r_counts(e, q) for e, q in runs)):
        r_parts: list[int] = []
        p_parts: list[int] = []
        for (e, q), m in zip(runs, ms):
            r_parts += [e] * m
            p_parts += [e] * (q - m)
        r = Partition._from_sorted(tuple(r_parts))
        if keep is None or is_member(r, keep):
            yield split_cls(r, Partition._from_sorted(tuple(p_parts)))


def fiber(xs: Iterable[Split]) -> list[Split]:
    """The splits of a listing, minimal p-length first, deterministically ordered."""
    return sorted(xs, key=lambda x: (len(x.p), x.p.parts, x.r.parts))


def minimal_split(c: Partition, fiber_minimum, canonical_split) -> Split:
    """The unique split of c minimizing the number of parts of p.

    Dual-route: the minimum found by ``fiber_minimum`` must exist, be unique
    and equal ``canonical_split(c)``, else ContradictionError (none can
    happen; this is the point being verified).
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
