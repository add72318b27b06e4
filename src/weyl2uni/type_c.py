"""Symplectic-side rules: Jordan types vs (all-even, doubled) pairs.

Series C draws r from family S (all even).  Over the engine in ``splits``
this module keeps only its rules: ``Split`` (``R_FAMILY = ALL_EVEN``),
``_r_counts`` (an odd value goes wholly to p, an even value keeps an even
count for p), the one-state automaton for family S (``_R_START``,
``_r_step``, ``_r_accepts``) and the routing ``_route_choices`` (odd values
to p, even values to r).  The rules read a value's parity, never the value.
Each public function tests c for ``FAMILY`` (T) once, by
``splits.check_jordan``; the ``splits`` docstring counts its checks.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import splits
from .partitions import ALL_EVEN, Partition, SYMPLECTIC

FAMILY = SYMPLECTIC


class Split(splits.Split):
    """(r, p) with r in family S and p in family Ptilde."""

    __slots__ = ()
    R_FAMILY = ALL_EVEN
    R_VIOLATION = "has an odd part (family S violated)"


def canonical_split(c: Partition) -> Split:
    """The distinguished split: odd parts all to p, even parts all to r."""
    splits.check_jordan(c, FAMILY)
    runs = c.runs()
    return Split.from_choices(runs, _route_choices(runs))


def _route_choices(runs) -> tuple[int, ...]:
    """The choice vector of ``canonical_split`` over the runs of c: each even value wholly to r."""
    return tuple([0 if e % 2 else q for e, q in runs])


def _r_counts(odd: int, q: int) -> list[int]:
    """Copies of a value of parity ``odd`` and multiplicity q that may go to r.

    An odd value may only sit in p (in an even count, c being in family T);
    an even value keeps an even number of copies for p.  So r is all even
    and p doubled by construction: every combination is a split.
    """
    return [0] if odd else list(range(q, -1, -2))


# Family S puts no constraint between values, so its automaton, read
# largest value first like family R's in ``type_bd``, has one state.
_R_START = 0


def _r_step(state: int, odd: int, m: int) -> int | None:
    """The state after m copies of a value of parity ``odd`` join r; None for any odd copy."""
    return None if m and odd else state


def _r_accepts(state: int) -> bool:
    """Family S puts no condition on the end: every state accepts."""
    return True


def iter_fiber(c: Partition) -> Iterator[Split]:
    """Lazily enumerate every split of c (checked for family T at the call): 2^k over 2k,2k,...,2,2."""
    splits.check_jordan(c, FAMILY)
    return splits.iter_fiber(Split, c.runs(), _r_counts, (_R_START, _r_step, _r_accepts))


def _claim_and_walk(c: Partition) -> tuple[Split, Iterator[tuple[Partition, tuple[int, ...]]]]:
    """The canonical split of c and the leaves of its ``splits.walk``; c's runs are counted twice.

    The claim comes through the public ``canonical_split``, which tests c for
    T: perfbench's self-test needs a traced ``type_c`` call on ``verify_sweep``.
    """
    claimed = canonical_split(c)
    return claimed, splits.walk(ALL_EVEN, c.runs(), _r_counts, (_R_START, _r_step, _r_accepts))


def fiber(c: Partition) -> list[Split]:
    """All splits of c, minimal p-length first, deterministically ordered: 2^k over 2k,2k,...,2,2."""
    return splits.fiber(iter_fiber(c))


def fiber_minimum(c: Partition) -> tuple[int | None, int, Split | None]:
    """(least p-length, splits reaching it, the minimiser if unique): ``splits.least_split``."""
    splits.check_jordan(c, FAMILY)
    return splits.least_split(Split, c.runs(), _r_counts, (_R_START, _r_step, _r_accepts))


def minimal_split(c: Partition) -> Split:
    """The unique split minimizing the number of parts of p (``splits.minimal_split``)."""
    splits.check_jordan(c, FAMILY)
    runs = c.runs()
    return splits.minimal_split(Split, c, runs, _r_counts, (_R_START, _r_step, _r_accepts), _route_choices)
