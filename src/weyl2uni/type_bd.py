"""Orthogonal-side rules: Jordan types vs (chained, doubled) pairs.

Two layers live here.

The block/halves bijection: ``blocks_from_halves`` stretches a partition of
half-lengths into a member of the chained family R by doubling each part and
adding +1/-1 at strict descents (odd positions gain one, even positions give
one up), appending a trailing 1 when the length-plus-kappa parity calls for
it.  ``halves_from_blocks`` inverts it exactly.  ``weyl.encode_class``
builds the r of a class's split from its negative cycle lengths this way,
and ``weyl.decode_class`` reads them back.

Over the engine in ``splits``, the split rules of series B and D, where r is
drawn from family R: ``Split`` (``R_FAMILY = CHAINED``), ``_r_counts`` (an
odd value sends 0, 1 or 2 copies to r, an even value keeps an even count for
p), the routing ``canonical_split`` (rules 1-5 below, with ``_star``) and a
finite automaton for family R read largest value first (``_R_START``,
``_r_step``, ``_r_accepts``), whose states come from the definition of R.
The engine runs its dynamic program ``fiber_minimum`` and its listing walk
``iter_fiber`` on that automaton, so the minimum needs no routing and the
listing costs time in proportion to the number of splits.  Each public
function tests c for family Q at entry, then calls a body that does not:
the routing body ``_route`` or the engine.

Routing rules of ``canonical_split`` for a value e with multiplicity q in c
(writing d for the 1-based position where e's run starts inside the odd
subsequence of c):

1. e odd, q odd: one copy to r, the rest to p.
2. e odd, q even, d even: two copies to r, the rest to p.
3. e odd, q even, d odd: all copies to p.
4. e even and ``_star`` holds against the odd entries already in r: all to p.
5. e even otherwise: all copies to r.
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
    merge,
)


def _require_kappa(kappa: int) -> None:
    if kappa not in (0, 1):
        raise DomainError(f"kappa must be 0 or 1, got {kappa!r}")


def _require_orthogonal(c: Partition) -> None:
    if not is_member(c, ORTHOGONAL):
        raise DomainError(
            f"{c.text()} is not an orthogonal Jordan type (family Q): "
            "some even value occurs an odd number of times"
        )


# ---------------------------------------------------------------------------
# The halves <-> blocks bijection


def _raw_blocks(hs: tuple[int, ...], kappa: int) -> tuple[int, ...]:
    """The arithmetic of ``blocks_from_halves`` on sorted halves, with no check."""
    s = len(hs)
    out: list[int] = []
    for t in range(1, s + 1):
        v = hs[t - 1]
        adj = 0
        # sorted input, so comparing against one neighbour decides the rule
        if t % 2 == 1 and (t == 1 or hs[t - 2] > v):
            adj = 1
        elif t % 2 == 0 and (t == s or v > hs[t]):
            adj = -1
        out.append(2 * v + adj)
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


def _halves_of_chained(blocks: Partition, kappa: int) -> Partition:
    """``halves_from_blocks`` for blocks already known to be in family R.

    Checks: the parity of the total against kappa (DomainError); then that
    every half is positive, that the halves decrease and that
    ``_raw_blocks`` of them rebuilds the input exactly (ContradictionError,
    none can happen).  Rebuilding the input exactly also implies that it
    is in family R and, at kappa=0, that the halves are in family P0.
    """
    if sum(blocks) % 2 != kappa:
        raise DomainError(f"total of {blocks.text()} has the wrong parity for kappa={kappa}")
    ps = blocks.parts
    if ps and ps[-1] == kappa:
        ps = ps[:-1]
    # (v + z)/2 at 1-based position k is v // 2 at odd k, (v + 1) // 2 at even k
    out = [(v + i % 2) // 2 for i, v in enumerate(ps)]
    if 0 in out:  # only a block 1 at an odd position halves to 0
        raise ContradictionError(f"halving {blocks.text()} at position {out.index(0) + 1} gave 0/2")
    if sorted(out, reverse=True) != out:
        raise ContradictionError(f"halves of {blocks.text()} not decreasing: {out}")
    halves = Partition._from_sorted(tuple(out))
    if _raw_blocks(halves, kappa) != blocks:
        raise ContradictionError(f"halves_from_blocks({blocks.text()}, {kappa}) does not invert")
    return halves


# ---------------------------------------------------------------------------
# Splits


class Split(splits.Split):
    """(r, p) with r in family R and p in family Ptilde."""

    __slots__ = ()
    R_FAMILY = CHAINED
    R_VIOLATION = "is not in family R"


def _star(odds: list[int], e: int) -> bool:
    """Whether an even value e belongs in p: evenly many odd entries of r exceed e.

    odds holds the odd entries already routed to r, decreasing.  Read on
    that chain, the count is even exactly when e lies above its top, inside
    a gap between positions 2v and 2v+1, or below its bottom when the chain
    has even length; e is even and the entries odd, so there are no ties.
    With no odd entries the test is vacuously true (everything even stays
    in p; anything else would break family R).
    """
    return len([v for v in odds if v > e]) % 2 == 0


def canonical_split(c: Partition) -> Split:
    """The distinguished split of an orthogonal Jordan type (rules 1-5)."""
    _require_orthogonal(c)
    return _route(c, list(c.multiplicities().items()))


def _route(c: Partition, runs) -> Split:
    """``canonical_split`` of c, already tested for family Q, from its runs.

    One pass, largest value first: when an even value is routed, the odd
    entries of r above it are all placed, and both sides come out sorted.
    """
    r_parts: list[int] = []
    p_parts: list[int] = []
    r_odds: list[int] = []  # the odd entries routed to r so far, decreasing
    d = 1  # where the next odd run starts in the odd subsequence of c
    for e, q in runs:
        if e % 2 == 0:
            m = 0 if _star(r_odds, e) else q
        else:
            m = 1 if q % 2 == 1 else 2 if d % 2 == 0 else 0  # rules 1, 2 and 3
            r_odds += [e] * m
            d += q
        r_parts += [e] * m
        p_parts += [e] * (q - m)
    # Split tests r for family R and p for family Ptilde
    r, p = Partition._from_sorted(tuple(r_parts)), Partition._from_sorted(tuple(p_parts))
    out = Split(r, p)
    if merge(r, p) != c:  # c was tested for family Q, so equality is enough
        raise ContradictionError(f"canonical split of {c.text()} does not merge back")
    return out


def _r_counts(e: int, q: int) -> list[int]:
    """Copies of a value e of multiplicity q that may go to r.

    An odd value sends 0, 1 or 2 copies with matching parity (family R
    admits at most two equal odd parts); an even value keeps an even count
    in p.
    """
    if e % 2:
        return [m for m in (0, 1, 2) if m <= q and (q - m) % 2 == 0]
    return list(range(q, -1, -2))


# Family-R states of an r built from the largest value down:
# (odd entries so far, coded 0 = none, 1 = an odd number, 2 = an even number;
#  whether an even part sits below an odd entry at an even position;
#  len(r) mod 2; parity of the smallest part so far): at most 3*2*2*2 = 24.
_R_START = (0, False, 0, 0)


def _r_step(state: tuple, e: int, m: int) -> tuple | None:
    """The state after m copies of e (below every part so far) join r.

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
    if e % 2 == 0:
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
    _require_orthogonal(c)
    return splits.iter_fiber(Split, c, _r_counts, (_R_START, _r_step, _r_accepts))


def fiber(c: Partition) -> list[Split]:
    """All splits of c, minimal p-length first, deterministically ordered."""
    return splits.fiber(iter_fiber(c))


def fiber_minimum(c: Partition) -> tuple[int | None, int, Split | None]:
    """(least p-length, splits reaching it, the minimiser if unique): ``splits.fiber_minimum``."""
    _require_orthogonal(c)
    runs = list(c.multiplicities().items())
    return splits.fiber_minimum(Split, runs, _r_counts, (_R_START, _r_step, _r_accepts))


def minimal_split(c: Partition) -> Split:
    """The unique split minimizing the number of parts of p (``splits.minimal_split``)."""
    _require_orthogonal(c)
    return splits.minimal_split(Split, c, _r_counts, (_R_START, _r_step, _r_accepts), _route)
