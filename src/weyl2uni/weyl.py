"""Signed-cycle-type classes, Jordan types, and the maps between them.

Conjugacy classes of the hyperoctahedral-type Weyl groups (series B, C, D)
are stored as a pair of partitions: positive cycle lengths and negative
cycle lengths.  ``phi_classical`` sends a class to the Jordan type of the
unipotent class it determines; ``psi_classical`` picks the preimage class
with the smallest fixed space, which is the unique one with the fewest
positive cycles.  ``fixed_space_dim`` is the closed-form count (positive
cycles); ``fixed_space_dim_from_matrix`` recomputes it as an exact matrix
nullity and serves as the independent oracle.

A class has one encoded form, its split (r, p): ``encode_class`` returns
it on every series and ``decode_class`` inverts it.  ``SIDES`` is the one
place a series picks its side (``type_c`` for C, ``type_bd`` for B and D);
a side's Jordan family ``FAMILY`` (T or Q) is tested by
``splits.check_jordan``, which ``JordanType`` shares.

Checked objects are certificates: a ``JordanType`` or ``Split`` has had its
families tested by its public constructor, so a function handed one does
not test them again.  ``JordanType`` has no trusted constructor, so every
Jordan type ``phi_classical`` returns has had its family tested.
``psi_classical`` checks its answer twice on purpose: the two routes of
``minimal_split`` and the ``phi`` round trip.  The ``splits`` docstring
counts the family tests of each call.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import splits, type_bd, type_c
from .partitions import (
    ContradictionError,
    DomainError,
    ORTHOGONAL,
    Partition,
    Record,
    SYMPLECTIC,
    check_int,
    double_parts,
    iter_members,
    iter_partitions,
    merge,
)

SIDES = {"B": type_bd, "C": type_c, "D": type_bd}
SERIES = tuple(SIDES)
LEAST_RANK = {"B": 1, "C": 1, "D": 2}  # SO(2), of series D and rank 1, is a torus
TOTAL_PARITY = {"B": 1, "C": 0, "D": 0}  # nu = 2 * rank + TOTAL_PARITY: odd on B only


class GroupKind(Record):
    """A classical series and rank; nu is the dimension of the natural module."""

    _fields = __slots__ = ("series", "rank")

    def __init__(self, series: str, rank: int) -> None:
        if series not in SERIES:
            raise DomainError(f"series must be one of {SERIES}, got {series!r}")
        check_int("rank", rank)
        if rank < LEAST_RANK[series]:
            raise DomainError(f"series {series} needs rank >= {LEAST_RANK[series]}, got {rank}")
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "rank", rank)

    @property
    def nu(self) -> int:
        return 2 * self.rank + TOTAL_PARITY[self.series]

    @property
    def kappa(self) -> int:
        return self.nu % 2

    @property
    def epsilon(self) -> int:
        """Sign of the preserved bilinear form: -1 symplectic, +1 orthogonal."""
        return -1 if self.series == "C" else 1


class SignedCycleType(Record):
    """A Weyl-group conjugacy class: positive and negative cycle lengths.

    In series D, a class with no negative cycle and all positive lengths
    even is split: the two classes that fuse into it in the full
    signed-permutation group share this one value, and ``is_split_class``
    tells such a class from its group.  ``to_json(g)`` reports it as
    ``"split"``.
    """

    _fields = __slots__ = ("positive", "negative")

    def __init__(self, positive: Partition, negative: Partition) -> None:
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "negative", negative)

    @property
    def rank(self) -> int:
        return sum(self.positive) + sum(self.negative)

    def text(self) -> str:
        return f"pos={self.positive.text()};neg={self.negative.text()}"

    @classmethod
    def from_text(cls, s: str) -> "SignedCycleType":
        pos, _, neg = s.partition(";")
        if not (pos.startswith("pos=") and neg.startswith("neg=")) or ";" in neg:
            raise DomainError(f"expected 'pos=<partition>;neg=<partition>', got {s!r}")
        return cls(Partition.from_text(pos[4:]), Partition.from_text(neg[4:]))

    def to_json(self, g: GroupKind) -> dict:
        return {
            "pos": self.positive.to_json(),
            "neg": self.negative.to_json(),
            "split": is_split_class(self, g),
        }


class JordanType(Record):
    """A unipotent class in a classical group, as its Jordan block multiset.

    epsilon = -1 demands family T (symplectic, even total); epsilon = +1
    demands family Q (orthogonal), tested by ``splits.check_jordan``.
    """

    _fields = __slots__ = ("parts", "epsilon")

    def __init__(self, parts: Partition, epsilon: int) -> None:
        if epsilon not in (1, -1):
            raise DomainError(f"epsilon must be +1 or -1, got {epsilon!r}")
        splits.check_jordan(parts, SYMPLECTIC if epsilon == -1 else ORTHOGONAL)  # T forces an even total
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "epsilon", epsilon)

    @property
    def nu(self) -> int:
        return self.parts.size

    def text(self) -> str:
        return self.parts.text()


def _check_class(w: SignedCycleType, g: GroupKind) -> None:
    if w.rank != g.rank:
        raise DomainError(f"class {w.text()} has rank {w.rank}, group expects {g.rank}")
    if g.series == "D" and len(w.negative) % 2:
        raise DomainError(
            f"class {w.text()} has an odd number of negative cycles; series D requires evenly many"
        )


def is_split_class(w: SignedCycleType, g: GroupKind) -> bool:
    """Series-D classes with no negative cycle and all positive lengths even."""
    return (
        g.series == "D"
        and not w.negative
        and bool(w.positive)
        and all(v % 2 == 0 for v in w.positive)
    )


def encode_class(w: SignedCycleType, g: GroupKind) -> type_c.Split | type_bd.Split:
    """The split (r, p) of a class: each positive cycle of length d gives p two parts d.

    Series C: each negative cycle of length d is one invariant 2d-cycle of
    the underlying permutation (r gets 2d).  Series B/D: r is
    ``type_bd.blocks_from_halves`` of the negative lengths, which tests r
    for family R (``_check_class`` gives series D, kappa=0, evenly many).
    Built trusted: p is doubled and a C r all even by construction.
    """
    _check_class(w, g)
    p = double_parts(w.positive)
    if g.series == "C":
        r = Partition._from_sorted(tuple([2 * d for d in w.negative.parts]))
        return type_c.Split._trusted(r, p)
    return type_bd.Split._trusted(type_bd.blocks_from_halves(w.negative, g.kappa), p)


def decode_class(x: type_c.Split | type_bd.Split, g: GroupKind) -> SignedCycleType:
    """Inverse of encode_class.

    x must be a ``Split`` of g's side, else DomainError.  It certifies its
    families, so p is halved and a C r divided by 2 directly; a B/D r goes
    through ``type_bd._halves_of_chained``, which checks the parity of its
    total against kappa and that the halves rebuild r exactly.
    """
    side = SIDES[g.series]
    if not isinstance(x, side.Split):
        raise DomainError(f"series {g.series} decodes a {side.__name__.rsplit('.', 1)[1]}.Split")
    if g.series == "C":
        neg = Partition._from_sorted(tuple([v // 2 for v in x.r.parts]))  # r is all even
    else:
        neg = type_bd._halves_of_chained(x.r, g.kappa)
    pos = Partition._from_sorted(x.p.parts[0::2])
    w = SignedCycleType(pos, neg)
    _check_class(w, g)
    return w


def fixed_space_dim(w: SignedCycleType) -> int:
    """Dimension of the fixed space on the rank-dimensional reflection module.

    Each positive cycle fixes a line; negative cycles fix nothing.
    """
    return len(w.positive)


def _int_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination (exact)."""
    from math import gcd

    rows = [r[:] for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col]
                rows[i] = [lead * a - f * b for a, b in zip(rows[i], rows[rank])]
                g = 0
                for a in rows[i]:
                    g = gcd(g, a)
                if g > 1:
                    rows[i] = [a // g for a in rows[i]]
        rank += 1
    return rank


def fixed_space_dim_from_matrix(w: SignedCycleType, g: GroupKind) -> int:
    """Independent oracle: nullity of (M - I) for one concrete representative.

    Cycles are laid out on consecutive coordinates; each negative cycle puts
    its single sign flip on the wrap-around step.  Exact integer arithmetic.
    """
    _check_class(w, g)
    n = g.rank
    if n > 10:
        raise DomainError(f"matrix oracle is capped at rank 10, got {n}")
    mat = [[0] * n for _ in range(n)]
    # lay out positive cycles first, then negative ones
    offset = 0
    for d in w.positive:
        for i in range(d):
            mat[(offset + (i + 1) % d)][offset + i] = 1
        offset += d
    for d in w.negative:
        for i in range(d - 1):
            mat[offset + i + 1][offset + i] = 1
        mat[offset][offset + d - 1] = -1
        offset += d
    for i in range(n):
        mat[i][i] -= 1
    return n - _int_rank(mat)


def phi_classical(w: SignedCycleType, g: GroupKind) -> JordanType:
    """Jordan type of the unipotent class attached to a Weyl class (tested by JordanType)."""
    x = encode_class(w, g)
    return JordanType(merge(x.r, x.p), g.epsilon)


def _check_jordan(j: JordanType, g: GroupKind) -> None:
    if j.epsilon != g.epsilon:
        raise DomainError(f"Jordan type sign {j.epsilon} does not match series {g.series}")
    if j.nu != g.nu:
        raise DomainError(f"Jordan type total {j.nu} does not match nu={g.nu} of {g.series}{g.rank}")


def psi_classical(j: JordanType, g: GroupKind) -> SignedCycleType:
    """The preimage class of phi_classical with strictly minimal fixed space.

    ``SIDES[g.series].minimal_split`` checks its two routes against each
    other; the decoded class is encoded again and must merge back to j's
    parts.  That equality stands for the round trip through
    ``phi_classical``: j is certified, so the family test a rebuilt
    ``JordanType`` would run adds nothing.
    """
    _check_jordan(j, g)
    w = decode_class(SIDES[g.series].minimal_split(j.parts), g)
    x = encode_class(w, g)
    if merge(x.r, x.p) != j.parts:
        raise ContradictionError(f"psi of {j.text()} does not round-trip through phi")
    return w


def enumerate_classes(g: GroupKind) -> list[SignedCycleType]:
    """All conjugacy classes of the rank-n group of the series.

    Series B/C: every pair of partitions with total rank.  Series D: evenly
    many negative cycles, each pair of fused split classes listed once.
    """
    if g.rank > 12:
        raise DomainError(f"class enumeration is capped at rank 12, got {g.rank}")
    out: list[SignedCycleType] = []
    for k in range(g.rank, -1, -1):
        for pos in iter_partitions(k):
            for neg in iter_partitions(g.rank - k):
                if g.series == "D" and len(neg) % 2:
                    continue
                out.append(SignedCycleType(pos, neg))
    return out


def iter_jordan_types(g: GroupKind) -> Iterator[JordanType]:
    """All valid Jordan types for the group, in reverse lexicographic order."""
    for c in iter_members(g.nu, SIDES[g.series].FAMILY):
        yield JordanType(c, g.epsilon)
