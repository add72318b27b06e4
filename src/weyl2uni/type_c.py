"""Symplectic-side rules: Jordan types vs (all-even, doubled) pairs.

Series C draws r from family S (all even).  Over the engine in ``splits``
this module keeps only its rules: ``Split`` (``R_FAMILY = ALL_EVEN``),
``_r_counts`` (an odd value goes wholly to p, an even value keeps an even
count for p), the routing ``canonical_split`` (odd parts to p, even parts to
r) and ``fiber_minimum``, a per-value argmin that finds the minimum without
that routing.  ``combine``, ``iter_fiber``, ``fiber`` and ``minimal_split``
are one-line calls into the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import splits
from .partitions import ALL_EVEN, ContradictionError, DomainError, Partition, SYMPLECTIC, is_member, merge


@dataclass(frozen=True)
class Split(splits.Split):
    """(r, p) with r in family S and p in family Ptilde."""

    R_FAMILY = ALL_EVEN
    R_VIOLATION = "has an odd part (family S violated)"


def _require_symplectic(c: Partition) -> None:
    if not is_member(c, SYMPLECTIC):
        raise DomainError(
            f"{c.text()} is not a symplectic Jordan type (family T): "
            "some odd value occurs an odd number of times"
        )


def combine(x: Split) -> Partition:
    """Merge the two sides into a symplectic Jordan type."""
    return splits.combine(x, SYMPLECTIC)


def canonical_split(c: Partition) -> Split:
    """The distinguished split: odd parts all to p, even parts all to r."""
    _require_symplectic(c)
    evens = tuple([v for v in c.parts if v % 2 == 0])  # sub-sequences of c: already sorted
    odds = tuple([v for v in c.parts if v % 2 == 1])
    r, p = Partition._from_sorted(evens), Partition._from_sorted(odds)
    out = Split(r, p)
    if merge(r, p) != c:  # c was tested for family T above, so equality is enough
        raise ContradictionError(f"canonical split of {c.text()} does not merge back")
    return out


def _r_counts(e: int, q: int) -> list[int]:
    """Copies of a value e of multiplicity q that may go to r.

    An odd value may only sit in p (in an even count, c being in family T);
    an even value keeps an even number of copies for p.  So r is all even
    and p doubled by construction: every combination is a split, and the
    engine lists the plain product, which is already in proportion to the
    output.
    """
    return [0] if e % 2 else list(range(q, -1, -2))


def iter_fiber(c: Partition) -> Iterator[Split]:
    """Lazily enumerate every split of c (checked for family T at the call)."""
    _require_symplectic(c)
    return splits.iter_fiber(Split, c, _r_counts)


def fiber(c: Partition) -> list[Split]:
    """All splits of c, minimal p-length first, deterministically ordered."""
    return splits.fiber(iter_fiber(c))


def fiber_minimum(c: Partition) -> tuple[int | None, int, Split | None]:
    """(minimal p-length, number of splits reaching it, the minimiser if unique).

    The one-state case of the family-R dynamic program of ``type_bd``:
    family S puts no constraint between values, so each value keeps the
    most copies ``_r_counts`` allows in r, and the number of minimisers is
    the product of the per-value tie counts.  Linear in the length of c.
    """
    _require_symplectic(c)
    p_len, ties = 0, 1
    r_parts: list[int] = []
    p_parts: list[int] = []
    for e, q in c.multiplicities().items():
        ms = _r_counts(e, q)
        m = max(ms)
        p_len += q - m
        ties *= ms.count(m)
        r_parts += [e] * m
        p_parts += [e] * (q - m)
    # built from the runs of c, largest value first: both sides are already sorted
    r, p = Partition._from_sorted(tuple(r_parts)), Partition._from_sorted(tuple(p_parts))
    return p_len, ties, Split(r, p) if ties == 1 else None


def minimal_split(c: Partition) -> Split:
    """The unique split minimizing the number of parts of p (``splits.minimal_split``)."""
    return splits.minimal_split(c, fiber_minimum, canonical_split)
