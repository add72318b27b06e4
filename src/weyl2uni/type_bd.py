"""Orthogonal-side rules: Jordan types vs (chained, doubled) pairs.

Two layers live here.

The block/halves bijection: ``blocks_from_halves`` stretches a partition of
half-lengths into a member of the chained family R by doubling each part and
adding +1/-1 at strict descents (odd positions gain one, even positions give
one up), appending a trailing 1 when the length-plus-kappa parity calls for
it.  ``halves_from_blocks`` inverts it exactly; ``HalfSplit`` is the
(halves, doubled, kappa) packaging of a split.

Over the engine in ``splits``, the split rules of series B and D, where r is
drawn from family R: ``Split`` (``R_FAMILY = CHAINED``), ``_r_counts`` (an
odd value sends 0, 1 or 2 copies to r, an even value keeps an even count for
p; the engine keeps a candidate only when r is in R), the routing
``canonical_split`` (rules 1-5 below, with ``_star``) and ``fiber_minimum``,
which finds the minimum without that routing: a dynamic program over the
distinct values whose states come from the definition of family R
(``_r_step``).  ``combine``, ``iter_fiber``, ``fiber`` and ``minimal_split``
are one-line calls into the engine.  ``classify_d`` tells very even types of
series D apart.

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

import enum
from dataclasses import dataclass
from typing import Iterator

from . import splits
from .partitions import (
    CHAINED,
    ContradictionError,
    DOUBLED,
    DOUBLED_EVEN,
    DomainError,
    EVEN_LENGTH,
    ORTHOGONAL,
    Partition,
    is_member,
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


def blocks_from_halves(halves: Partition, kappa: int) -> Partition:
    """Jordan blocks contributed by cycles of the given half-lengths.

    Entry t becomes 2*halves[t] + adj where adj is +1 at odd positions whose
    value strictly drops below everything earlier (vacuously at t=1), -1 at
    even positions strictly above everything later (vacuously at the end),
    else 0; a trailing 1 is appended when length+kappa is odd.
    """
    _require_kappa(kappa)
    if kappa == 0 and len(halves) % 2:
        raise DomainError("kappa=0 requires an even number of halves (family P0)")
    hs = halves.parts
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
    if any(out[i] < out[i + 1] for i in range(len(out) - 1)):
        raise ContradictionError(f"blocks of {halves.text()} (kappa={kappa}) not decreasing: {out}")
    blocks = Partition(out)
    if blocks.size != 2 * halves.size + kappa:
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
    """
    _require_kappa(kappa)
    if not is_member(blocks, CHAINED):
        raise DomainError(f"{blocks.text()} is not in family R")
    if blocks.size % 2 != kappa:
        raise DomainError(f"total of {blocks.text()} has the wrong parity for kappa={kappa}")
    ps = blocks.parts
    if ps and ps[-1] == kappa:
        ps = ps[:-1]
    out: list[int] = []
    for k, v in enumerate(ps, start=1):
        z = (-1) ** k if v % 2 else 0
        half, rem = divmod(v + z, 2)
        if rem or half < 1:
            raise ContradictionError(f"halving {blocks.text()} at position {k} gave {v + z}/2")
        out.append(half)
    if any(out[i] < out[i + 1] for i in range(len(out) - 1)):
        raise ContradictionError(f"halves of {blocks.text()} not decreasing: {out}")
    halves = Partition(out)
    if blocks_from_halves(halves, kappa) != blocks:
        raise ContradictionError(f"halves_from_blocks({blocks.text()}, {kappa}) does not invert")
    return halves


# ---------------------------------------------------------------------------
# Splits


@dataclass(frozen=True)
class Split(splits.Split):
    """(r, p) with r in family R and p in family Ptilde."""

    R_FAMILY = CHAINED
    R_VIOLATION = "is not in family R"


@dataclass(frozen=True)
class HalfSplit:
    """(halves, doubled, kappa): the compressed form of a Split.

    halves carries the half-lengths feeding blocks_from_halves (even length
    required when kappa=0); doubled is the p side unchanged.  Total size is
    2*halves.size + doubled.size + kappa.
    """

    halves: Partition
    doubled: Partition
    kappa: int

    def __post_init__(self):
        _require_kappa(self.kappa)
        if self.kappa == 0 and not is_member(self.halves, EVEN_LENGTH):
            raise DomainError("kappa=0 requires an even number of halves (family P0)")
        if not is_member(self.doubled, DOUBLED):
            raise DomainError(f"p={self.doubled.text()} is not doubled (family Ptilde violated)")

    @property
    def nu(self) -> int:
        return 2 * self.halves.size + self.doubled.size + self.kappa

    def text(self) -> str:
        return f"p'={self.halves.text()};p={self.doubled.text()};k={self.kappa}"

    @classmethod
    def from_text(cls, s: str) -> "HalfSplit":
        try:
            hpart, ppart, kpart = s.split(";")
            assert hpart.startswith("p'=") and ppart.startswith("p=") and kpart.startswith("k=")
        except (ValueError, AssertionError):
            raise DomainError(
                f"expected \"p'=<partition>;p=<partition>;k=<0|1>\", got {s!r}"
            ) from None
        return cls(Partition.from_text(hpart[3:]), Partition.from_text(ppart[2:]), int(kpart[2:]))

    def to_json(self) -> dict:
        return {"pprime": self.halves.to_json(), "p": self.doubled.to_json(), "kappa": self.kappa}


def from_halves(x: HalfSplit) -> Split:
    """Unpack a HalfSplit into the equivalent Split."""
    return Split(blocks_from_halves(x.halves, x.kappa), x.doubled)


def to_halves(x: Split, kappa: int) -> HalfSplit:
    """Inverse of from_halves for the given kappa."""
    return HalfSplit(halves_from_blocks(x.r, kappa), x.p, kappa)


def combine(x: Split) -> Partition:
    """Merge the two sides into an orthogonal Jordan type."""
    return splits.combine(x, ORTHOGONAL)


def _star(odds: tuple[int, ...], e: int) -> bool:
    """Interleaving test deciding whether an even value e belongs in p.

    odds holds the odd entries already routed to r, decreasing.  True when e
    falls strictly inside an even-position gap of that chain, above its top,
    or below its bottom with evenly many entries.  With no odd entries at
    all the test is vacuously true (everything even stays in p; anything
    else would break family R).  Equivalent closed form: the number of odd
    entries exceeding e is even.
    """
    s = len(odds)
    if s == 0:
        return True
    if e > odds[0]:
        return True
    if s % 2 == 0 and odds[-1] > e:
        return True
    for i in range(1, s - 1, 2):  # 0-based pairs (i, i+1) = 1-based (2v, 2v+1)
        if odds[i] > e > odds[i + 1]:
            return True
    return False


def canonical_split(c: Partition) -> Split:
    """The distinguished split of an orthogonal Jordan type (rules 1-5)."""
    _require_orthogonal(c)
    runs = c.multiplicities().items()
    r_parts: list[int] = []
    p_parts: list[int] = []
    d = 1  # where the next odd run starts in the odd subsequence of c
    for e, q in runs:
        if e % 2 == 0:
            continue
        if q % 2 == 1:
            m = 1
        elif d % 2 == 0:
            m = 2
        else:
            m = 0
        r_parts += [e] * m
        p_parts += [e] * (q - m)
        d += q
    r_odds = tuple(r_parts)  # already decreasing
    for e, q in runs:
        if e % 2:
            continue
        if _star(r_odds, e):
            p_parts += [e] * q
        else:
            r_parts += [e] * q
    r = Partition(r_parts)
    p = Partition(p_parts)
    if not is_member(r, CHAINED):
        raise DomainError(f"canonical split of {c.text()} produced r={r.text()} outside family R")
    out = Split(r, p)
    if combine(out) != c:
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


def iter_fiber(c: Partition) -> Iterator[Split]:
    """Lazily enumerate every split of c (checked for family Q at the call).

    Every combination of ``_r_counts`` is tried and kept when r is in
    family R; p is doubled by construction.
    """
    _require_orthogonal(c)
    return splits.iter_fiber(Split, c, _r_counts, keep=CHAINED)


def fiber(c: Partition) -> list[Split]:
    """All splits of c, minimal p-length first, deterministically ordered."""
    return splits.fiber(iter_fiber(c))


# Family-R states of an r built from the largest value down:
# (odd entries so far, coded 0 = none, 1 = an odd number, 2 = an even number;
#  whether an even part sits below an odd entry at an even position;
#  len(r) mod 2; parity of the smallest part so far).
_R_START = (0, False, 0, 0)


def _r_step(state: tuple, e: int, m: int) -> tuple | None:
    """The state after m copies of e (below every part so far) join r.

    None when family R forbids it.  The rules restate the definition of R
    (``partitions._check_chained``), not the routing of ``canonical_split``:
    the largest part is odd, odd entries at positions (2v-1, 2v) of the odd
    subsequence strictly drop, and no part lies strictly inside the gap
    between positions 2v and 2v+1.
    """
    if m == 0:
        return state
    odds, gap_used, length, _ = state
    if e % 2 == 0:
        if odds == 0:
            return None  # an even part would be the largest
        return (odds, gap_used or odds == 2, (length + m) % 2, 0)
    if gap_used:
        return None  # the even part above would sit inside an even-position gap
    if m == 2:
        if odds != 1:
            return None  # equal odd entries must sit at positions (2v, 2v+1)
        return (1, False, length, 1)
    return (2 if odds == 1 else 1, False, 1 - length, 1)  # one more odd entry


def _r_accepts(state: tuple) -> bool:
    """Family R at the end: r is empty, has odd length, or ends on an odd part."""
    odds, _, length, low = state
    return odds == 0 or length == 1 or low == 1


def fiber_minimum(c: Partition) -> tuple[int | None, int, Split | None]:
    """(minimal p-length, number of splits reaching it, the minimiser if unique).

    A dynamic program over the distinct values of c, largest first: each
    value sends one of its ``_r_counts`` to r, and the family-R state of
    ``_r_step`` is all that later values need to know.  Each state keeps its
    least p-length, how many choice sequences reach it and a backpointer, so
    the cost is linear in the number of distinct values where listing the
    fiber is exponential.  An empty fiber gives (None, 0, None).
    """
    _require_orthogonal(c)
    runs = list(c.multiplicities().items())
    layer: dict[tuple, tuple[int, int]] = {_R_START: (0, 1)}
    backs: list[dict[tuple, tuple[tuple, int]]] = []
    for e, q in runs:
        nxt: dict[tuple, tuple[int, int]] = {}
        back: dict[tuple, tuple[tuple, int]] = {}
        for state, (p_len, ways) in layer.items():
            for m in _r_counts(e, q):
                to = _r_step(state, e, m)
                if to is None:
                    continue
                cand = p_len + q - m
                have = nxt.get(to)
                if have is None or cand < have[0]:
                    nxt[to] = (cand, ways)
                    back[to] = (state, m)
                elif cand == have[0]:
                    nxt[to] = (cand, have[1] + ways)
        layer = nxt
        backs.append(back)
    ends = [(p_len, ways, state) for state, (p_len, ways) in layer.items() if _r_accepts(state)]
    if not ends:
        return None, 0, None
    p_len = min(end[0] for end in ends)
    ties = sum(ways for low, ways, _ in ends if low == p_len)
    if ties != 1:
        return p_len, ties, None
    state = next(state for low, _, state in ends if low == p_len)
    r_parts: list[int] = []
    p_parts: list[int] = []
    for (e, q), back in zip(reversed(runs), reversed(backs)):
        state, m = back[state]
        r_parts += [e] * m
        p_parts += [e] * (q - m)
    r, p = Partition(r_parts), Partition(p_parts)
    try:  # Split re-checks families R and Ptilde on the rebuilt argmin
        return p_len, 1, Split(r, p)
    except DomainError as exc:
        raise ContradictionError(f"fiber minimum over {c.text()} is not a split: {exc}") from None


def minimal_split(c: Partition) -> Split:
    """The unique split minimizing the number of parts of p (``splits.minimal_split``)."""
    return splits.minimal_split(c, fiber_minimum, canonical_split)


class DKind(enum.Enum):
    """How an even-total orthogonal Jordan type sits in the even series."""

    VERY_EVEN = "very_even"
    ORDINARY = "ordinary"


def classify_d(c: Partition) -> DKind:
    """Very even types (all parts even) are the degenerate even-series case.

    For them the fiber is the singleton (r empty, p = c) and every map here
    restricts to the identity; ordinary types use the full machinery.
    """
    if c.size % 2:
        raise DomainError(f"{c.text()} has odd total {c.size}; even series needs an even total")
    _require_orthogonal(c)
    return DKind.VERY_EVEN if is_member(c, DOUBLED_EVEN) else DKind.ORDINARY
