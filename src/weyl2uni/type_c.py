"""Symplectic-side rules: Jordan types vs (all-even, doubled) pairs.

Series C draws r from family S (all even).  Over the engine in ``splits``
this module keeps only its rules: ``Split`` (``R_FAMILY = ALL_EVEN``),
``_r_counts`` (an odd value goes wholly to p, an even value keeps an even
count for p), the one-state automaton for family S (``_R_START``,
``_r_step``, ``_r_accepts``) and the routing ``canonical_split`` (odd parts
to p, even parts to r).  The rules read a value's parity, never the
value, so the engine's move table, keyed by rules, state, parity and
multiplicity and bounded at 4,096 keys (``splits._moves``), holds their
moves.  Each public function tests c for family T once, in
``_require_symplectic``, then calls a body that does not: the routing
``_route`` or the engine, as for B and D.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import splits
from .partitions import ALL_EVEN, ContradictionError, DomainError, Partition, SYMPLECTIC, is_member, merge


class Split(splits.Split):
    """(r, p) with r in family S and p in family Ptilde."""

    __slots__ = ()
    R_FAMILY = ALL_EVEN
    R_VIOLATION = "has an odd part (family S violated)"


def _require_symplectic(c: Partition) -> None:
    if not is_member(c, SYMPLECTIC):
        raise DomainError(
            f"{c.text()} is not a symplectic Jordan type (family T): "
            "some odd value occurs an odd number of times"
        )


def _runs(c: Partition) -> list[tuple[int, int]]:
    """The runs of c, largest value first, once c passes its family T test."""
    _require_symplectic(c)
    return list(c.multiplicities().items())


def canonical_split(c: Partition) -> Split:
    """The distinguished split: odd parts all to p, even parts all to r."""
    _require_symplectic(c)
    return _route(c, None)


def _route(c: Partition, runs) -> Split:
    """``canonical_split`` of c, tested for family T; the parity rule reads parts, not ``runs``."""
    evens = tuple([v for v in c.parts if v % 2 == 0])  # sub-sequences of c: already sorted
    odds = tuple([v for v in c.parts if v % 2 == 1])
    r, p = Partition._from_sorted(evens), Partition._from_sorted(odds)
    out = Split(r, p)
    if merge(r, p) != c:  # c was tested for family T, so equality is enough
        raise ContradictionError(f"canonical split of {c.text()} does not merge back")
    return out


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
    return splits.iter_fiber(Split, _runs(c), _r_counts, (_R_START, _r_step, _r_accepts))


def _claim_and_walk(c: Partition) -> tuple[Split, Iterator[Split]]:
    """The canonical split of c and its lazy fiber: ``iter_fiber`` tests c and counts its runs once.

    Unlike B and D, the walk enters through the public ``iter_fiber``: it is
    the only traced ``type_c`` entry the scan passes, and perfbench's
    self-test needs a positive ``type_c`` reading on ``verify_sweep``.
    """
    walk = iter_fiber(c)
    return _route(c, None), walk


def fiber(c: Partition) -> list[Split]:
    """All splits of c, minimal p-length first, deterministically ordered: 2^k over 2k,2k,...,2,2."""
    return splits.fiber(iter_fiber(c))


def fiber_minimum(c: Partition) -> tuple[int | None, int, Split | None]:
    """(least p-length, splits reaching it, the minimiser if unique): ``splits.fiber_minimum``."""
    return splits.fiber_minimum(Split, _runs(c), _r_counts, (_R_START, _r_step, _r_accepts))


def minimal_split(c: Partition) -> Split:
    """The unique split minimizing the number of parts of p (``splits.minimal_split``)."""
    return splits.minimal_split(Split, c, _runs(c), _r_counts, (_R_START, _r_step, _r_accepts), _route)
