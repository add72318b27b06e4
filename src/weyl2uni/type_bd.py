"""Orthogonal-side rules: Jordan types vs (chained, doubled) pairs.

Two layers live here.

The block/halves bijection: ``blocks_from_halves`` stretches a partition of
half-lengths into a member of the chained family R by doubling each part and
adding +1/-1 at strict descents (odd positions gain one, even positions give
one up), appending a trailing 1 when the length-plus-kappa parity calls for
it.  ``halves_from_blocks`` inverts it exactly.  ``weyl._encode_parts``
builds the r of a class's split from its negative cycle lengths this way,
and ``weyl.decode_class`` reads them back.

Over the engine in ``splits``, whose moves keep an even count of each value
for p, the split rules of series B and D, where r is drawn from family R:
``Split`` (``R_FAMILY = CHAINED``), the routing ``_route_choices`` (rules
1-3 below) and a finite automaton for family R read largest value first
(``_R_START``, ``_r_step``, ``_r_accepts``), whose states come from the
definition of R; among the engine's moves it refuses an odd count of an
even value and a third equal odd entry.  A value joins r below every part
so far, so R asks only its parity, and the rules read nothing else of it.
Each public function tests c for ``FAMILY`` (Q) once, by
``splits.check_jordan``; the ``splits`` docstring counts its checks.

Routing rules of ``canonical_split`` for a value e with multiplicity q in c,
as the number m of copies that go to r.  They read one bit: whether r holds
an odd number of odd entries so far.  Runs come largest first, so every
entry already in r exceeds e.

1. e even: m = q if the bit is set, else 0.
2. e odd, q odd: m = 1, which flips the bit.
3. e odd, q even: m = 2 if the bit is set, else 0.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import splits
from .partitions import (
    CHAINED,
    ContradictionError,
    DomainError,
    ORTHOGONAL,
    Partition,
    is_member,
)

FAMILY = ORTHOGONAL


def _require_kappa(kappa: int) -> None:
    if kappa not in (0, 1):
        raise DomainError(f"kappa must be 0 or 1, got {kappa!r}")


# ---------------------------------------------------------------------------
# The halves <-> blocks bijection


def _raw_blocks(hs: tuple[int, ...], kappa: int) -> tuple[int, ...]:
    """The arithmetic of ``blocks_from_halves`` on sorted halves, with no check."""
    s = len(hs)
    out: list[int] = []
    prev = 0  # the half before v
    # sorted input, so comparing against one neighbour decides the rule
    for t, v in enumerate(hs, 1):
        if t % 2:
            out.append(2 * v + 1 if t == 1 or prev > v else 2 * v)
        else:
            out.append(2 * v - 1 if t == s or v > hs[t] else 2 * v)
        prev = v
    if (s + kappa) % 2 == 1:
        out.append(1)
    return tuple(out)


def blocks_from_halves(halves: Partition, kappa: int) -> Partition:
    """Jordan blocks contributed by cycles of the given half-lengths.

    Entry t becomes 2*halves[t] + adj where adj is +1 at odd positions whose
    value strictly drops below everything earlier (vacuously at t=1), -1 at
    even positions strictly above everything later (vacuously at the end),
    else 0; a trailing 1 is appended when length+kappa is odd.

    Checks: kappa and the length parity of the input (DomainError); then the
    output's order, total and membership in family R (ContradictionError,
    none can happen).  ``halves_from_blocks`` shares the arithmetic through
    ``_raw_blocks`` without these output checks.
    """
    _require_kappa(kappa)
    if kappa == 0 and len(halves) % 2:
        raise DomainError("kappa=0 requires an even number of halves (family P0)")
    out = _raw_blocks(halves, kappa)
    if sorted(out, reverse=True) != list(out):
        raise ContradictionError(
            f"blocks of {halves.text()} (kappa={kappa}) not decreasing: {list(out)}"
        )
    blocks = Partition._from_sorted(out)
    if sum(out) != 2 * sum(halves) + kappa:
        raise ContradictionError(f"block total for {halves.text()} (kappa={kappa}) is off")
    if not is_member(blocks, CHAINED):
        raise ContradictionError(
            f"blocks_from_halves({halves.text()}, {kappa}) = {blocks.text()} left family R"
        )
    return blocks


def halves_from_blocks(blocks: Partition, kappa: int) -> Partition:
    """Inverse of blocks_from_halves.

    Position k gets (v + z)/2 with z = (-1)^k for odd v and 0 for even v;
    a final block equal to kappa (the appended trailing 1) is dropped first.

    Checks: kappa and membership of the input in family R (DomainError);
    the rest is ``_halves_of_chained``.
    """
    _require_kappa(kappa)
    if not is_member(blocks, CHAINED):
        raise DomainError(f"{blocks.text()} is not in family R")
    return _halves_of_chained(blocks, kappa)


def _halves_of_chained(blocks: Partition, kappa: int, rebuild: bool = True) -> Partition:
    """``halves_from_blocks`` for blocks already known to be in family R.

    Checks: the parity of the total against kappa (DomainError); then that
    the halves decrease, with ``rebuild`` that ``_raw_blocks`` of them
    rebuilds the input exactly (so it is in family R, and in P0 at kappa=0),
    and that no half is 0 (ContradictionError, none can happen).
    ``weyl.psi_classical`` skips the rebuild: its round trip re-encodes.
    """
    if sum(blocks) % 2 != kappa:
        raise DomainError(f"total of {blocks.text()} has the wrong parity for kappa={kappa}")
    ps = blocks
    if ps and ps[-1] == kappa:
        ps = ps[:-1]
    # (v + z)/2 at 1-based position k is v // 2 at odd k, (v + 1) // 2 at even k
    out = [(v + i % 2) // 2 for i, v in enumerate(ps)]
    if sorted(out, reverse=True) != out:
        raise ContradictionError(f"halves of {blocks.text()} not decreasing: {out}")
    if rebuild and _raw_blocks(tuple(out), kappa) != blocks:
        raise ContradictionError(f"halves_from_blocks({blocks.text()}, {kappa}) does not invert")
    if out and not out[-1]:  # before a 0 half can reach a Partition
        raise ContradictionError(f"halves of {blocks.text()} end on 0: {out}")
    return Partition._from_sorted(tuple(out))


# ---------------------------------------------------------------------------
# Splits


class Split(splits.Split):
    """(r, p) with r in family R and p in family Ptilde."""

    __slots__ = ()
    R_FAMILY = CHAINED
    R_VIOLATION = "is not in family R"


def canonical_split(c: Partition) -> Split:
    """The distinguished split of an orthogonal Jordan type (rules 1-3)."""
    splits.check_jordan(c, FAMILY)
    runs = c.runs()
    return Split.from_choices(runs, _route_choices(runs))


def _route_choices(runs) -> tuple[int, ...]:
    """The choice vector of ``canonical_split`` over the runs of c, by rules 1-3, in one pass."""
    out = []
    bit = 0  # r holds an odd number of odd entries
    for e, q in runs:
        if e % 2 == 0:
            m = q if bit else 0  # rule 1
        elif q % 2:
            m, bit = 1, bit ^ 1  # rule 2
        else:
            m = 2 if bit else 0  # rule 3
        out.append(m)
    return tuple(out)


# Family-R states of an r built from the largest value down:
# (odd entries so far, coded 0 = none, 1 = an odd number, 2 = an even number;
#  whether an even part sits below an odd entry at an even position;
#  len(r) mod 2; parity of the smallest part so far): at most 3*2*2*2 = 24.
_R_START = (0, False, 0, 0)


def _r_step(state: tuple, odd: int, m: int) -> tuple | None:
    """The state after m copies of a value of parity ``odd`` (below every part so far) join r.

    None when family R forbids it.  The rules restate the definition of R
    (``partitions._check_chained``), not the routing of ``canonical_split``:
    the largest part is odd, each even value occurs an even number of times,
    odd entries at positions (2v-1, 2v) of the odd subsequence strictly
    drop, and no part lies strictly inside the gap between positions 2v and
    2v+1.
    """
    if m == 0:
        return state
    odds, gap_used, length, _ = state
    if not odd:
        if odds == 0:
            return None  # an even part would be the largest
        if m % 2:
            return None  # family Q, inside R: an even value occurs in pairs
        return (odds, gap_used or odds == 2, length, 0)
    if gap_used:
        return None  # the even part above would sit inside an even-position gap
    if m == 1:
        return (2 if odds == 1 else 1, False, 1 - length, 1)  # one more odd entry
    if m != 2 or odds != 1:
        # equal odd entries must sit at positions (2v, 2v+1), so at most two
        return None
    return (1, False, length, 1)


def _r_accepts(state: tuple) -> bool:
    """Family R at the end: r is empty, has odd length, or ends on an odd part."""
    odds, _, length, low = state
    return odds == 0 or length == 1 or low == 1


def iter_fiber(c: Partition) -> Iterator[Split]:
    """Lazily enumerate every split of c (checked for family Q at the call)."""
    splits.check_jordan(c, FAMILY)
    return splits.iter_fiber(Split, c.runs(), (_R_START, _r_step, _r_accepts))


def _claim_and_walk(c: Partition, runs) -> tuple[Partition, Partition, Iterator[tuple[Partition, tuple[int, ...]]]]:
    """The routed (r, p) of c, tested by ``Split._check``, and the leaves of ``splits.walk`` over the sweep's ``runs``.

    c gets no Q test: rule 1 sends an even value of odd count wholly to r (R lies in Q) or to p (undoubled).
    """
    r, p = splits._choice_parts(runs, _route_choices(runs))
    Split._check(r, p)
    return r, p, splits.walk(CHAINED, runs, (_R_START, _r_step, _r_accepts))


def fiber(c: Partition) -> list[Split]:
    """All splits of c, minimal p-length first, deterministically ordered."""
    return splits.fiber(iter_fiber(c))


def fiber_minimum(c: Partition) -> tuple[int | None, int, Split | None]:
    """(least p-length, splits reaching it, the minimiser if unique): ``splits.least_split``."""
    splits.check_jordan(c, FAMILY)
    return splits.least_split(Split, c.runs(), (_R_START, _r_step, _r_accepts))


def minimal_split(c: Partition) -> Split:
    """The unique split minimizing the number of parts of p (``_minimal_parts``, which ``weyl.psi_classical`` reads)."""
    splits.check_jordan(c, FAMILY)
    return Split(*_minimal_parts(c, c.runs()))


def _minimal_parts(c: Partition, runs) -> tuple[Partition, Partition]:
    return splits.minimal_parts(c, runs, (_R_START, _r_step, _r_accepts), _route_choices)
