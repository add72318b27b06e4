"""Signed-cycle-type classes, Jordan types, and the maps between them.

Conjugacy classes of the hyperoctahedral-type Weyl groups (series B, C, D)
are stored as a pair of partitions: positive cycle lengths and negative
cycle lengths.  ``phi_classical`` sends a class to the Jordan type of the
unipotent class it determines; ``psi_classical`` picks the preimage class
with the smallest fixed space, which is the unique one with the fewest
positive cycles.  ``fixed_space_dim`` is the closed-form count (positive
cycles); ``fixed_space_dim_from_matrix`` recomputes it as an exact matrix
nullity and serves as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import type_bd, type_c
from .partitions import (
    ContradictionError,
    DomainError,
    ORTHOGONAL,
    Partition,
    SYMPLECTIC,
    double_parts,
    is_member,
    iter_members,
    iter_partitions,
    undouble_parts,
)

SERIES = ("B", "C", "D")


@dataclass(frozen=True)
class GroupKind:
    """A classical series and rank; nu is the dimension of the natural module."""

    series: str
    rank: int

    def __post_init__(self):
        if self.series not in SERIES:
            raise DomainError(f"series must be one of {SERIES}, got {self.series!r}")
        least = 2 if self.series == "D" else 1
        if self.rank < least:
            raise DomainError(f"series {self.series} needs rank >= {least}, got {self.rank}")

    @property
    def nu(self) -> int:
        return 2 * self.rank + (1 if self.series == "B" else 0)

    @property
    def kappa(self) -> int:
        return self.nu % 2

    @property
    def epsilon(self) -> int:
        """Sign of the preserved bilinear form: -1 symplectic, +1 orthogonal."""
        return -1 if self.series == "C" else 1


@dataclass(frozen=True)
class SignedCycleType:
    """A Weyl-group conjugacy class: positive and negative cycle lengths.

    ``split`` flags the series-D classes (no negative cycles, all positive
    lengths even) that fuse in the full signed-permutation group; the two
    fused classes are represented by one flagged value and the uniqueness
    checks skip them.
    """

    positive: Partition
    negative: Partition
    split: bool = False

    @property
    def rank(self) -> int:
        return self.positive.size + self.negative.size

    def text(self) -> str:
        return f"pos={self.positive.text()};neg={self.negative.text()}"

    @classmethod
    def from_text(cls, s: str) -> "SignedCycleType":
        try:
            pos, neg = s.split(";")
            assert pos.startswith("pos=") and neg.startswith("neg=")
        except (ValueError, AssertionError):
            raise DomainError(f"expected 'pos=<partition>;neg=<partition>', got {s!r}") from None
        return cls(Partition.from_text(pos[4:]), Partition.from_text(neg[4:]))

    def to_json(self) -> dict:
        return {
            "pos": self.positive.to_json(),
            "neg": self.negative.to_json(),
            "split": self.split,
        }


@dataclass(frozen=True)
class JordanType:
    """A unipotent class in a classical group, as its Jordan block multiset.

    epsilon = -1 demands family T (symplectic, even total); epsilon = +1
    demands family Q (orthogonal).
    """

    parts: Partition
    epsilon: int

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise DomainError(f"epsilon must be +1 or -1, got {self.epsilon!r}")
        if self.epsilon == -1:
            if self.parts.size % 2:
                raise DomainError(f"symplectic Jordan type {self.parts.text()} has odd total")
            if not is_member(self.parts, SYMPLECTIC):
                raise DomainError(f"{self.parts.text()} is not a symplectic Jordan type (family T)")
        elif not is_member(self.parts, ORTHOGONAL):
            raise DomainError(f"{self.parts.text()} is not an orthogonal Jordan type (family Q)")

    @property
    def nu(self) -> int:
        return self.parts.size

    def text(self) -> str:
        return self.parts.text()

    def to_json(self) -> dict:
        return {"jordan": self.parts.to_json(), "epsilon": self.epsilon}


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


def encode_class(w: SignedCycleType, g: GroupKind) -> type_c.Split | type_bd.HalfSplit:
    """Partition-pair form of a class.

    Series C: each negative cycle of length d is one invariant 2d-cycle of
    the underlying permutation (r gets 2d); each positive cycle of length d
    is a swapped pair of d-cycles (p gets d twice).  Series B/D: halves
    stores the negative lengths, p the doubled positive lengths.
    """
    _check_class(w, g)
    if g.series == "C":
        return type_c.Split(Partition(2 * d for d in w.negative), double_parts(w.positive))
    return type_bd.HalfSplit(w.negative, double_parts(w.positive), g.kappa)


def decode_class(enc: type_c.Split | type_bd.HalfSplit, g: GroupKind) -> SignedCycleType:
    """Inverse of encode_class (split flag restored for series D)."""
    if g.series == "C":
        if not isinstance(enc, type_c.Split):
            raise DomainError("series C decodes a type_c.Split")
        neg = Partition(v // 2 for v in enc.r)
        pos = undouble_parts(enc.p)
    else:
        if not isinstance(enc, type_bd.HalfSplit):
            raise DomainError(f"series {g.series} decodes a type_bd.HalfSplit")
        if enc.kappa != g.kappa:
            raise DomainError(f"kappa {enc.kappa} does not match series {g.series}")
        neg = enc.halves
        pos = undouble_parts(enc.doubled)
    w = SignedCycleType(pos, neg)
    if is_split_class(w, g):
        w = SignedCycleType(pos, neg, split=True)
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
    """Jordan type of the unipotent class attached to a Weyl class."""
    enc = encode_class(w, g)
    if g.series == "C":
        return JordanType(type_c.combine(enc), -1)
    return JordanType(type_bd.combine(type_bd.from_halves(enc)), +1)


def _check_jordan(j: JordanType, g: GroupKind) -> None:
    if j.epsilon != g.epsilon:
        raise DomainError(f"Jordan type sign {j.epsilon} does not match series {g.series}")
    if j.nu != g.nu:
        raise DomainError(f"Jordan type total {j.nu} does not match nu={g.nu} of {g.series}{g.rank}")


def psi_classical(j: JordanType, g: GroupKind) -> SignedCycleType:
    """The preimage class of phi_classical with strictly minimal fixed space.

    Uniqueness is enforced by the minimal-split machinery; the result is
    round-tripped through phi_classical before being returned.
    """
    _check_jordan(j, g)
    if g.series == "C":
        w = decode_class(type_c.minimal_split(j.parts), g)
    else:
        s = type_bd.minimal_split(j.parts)
        w = decode_class(type_bd.to_halves(s, g.kappa), g)
    if phi_classical(w, g).parts != j.parts:
        raise ContradictionError(f"psi of {j.text()} does not round-trip through phi")
    return w


def enumerate_classes(g: GroupKind) -> list[SignedCycleType]:
    """All conjugacy classes of the rank-n group of the series.

    Series B/C: every pair of partitions with total rank.  Series D: evenly
    many negative cycles, fused split classes flagged and listed once.
    """
    if g.rank > 12:
        raise DomainError(f"class enumeration is capped at rank 12, got {g.rank}")
    out: list[SignedCycleType] = []
    for k in range(g.rank, -1, -1):
        for pos in iter_partitions(k):
            for neg in iter_partitions(g.rank - k):
                if g.series == "D" and len(neg) % 2:
                    continue
                w = SignedCycleType(pos, neg)
                if is_split_class(w, g):
                    w = SignedCycleType(pos, neg, split=True)
                out.append(w)
    return out


def iter_jordan_types(g: GroupKind) -> Iterator[JordanType]:
    """All valid Jordan types for the group, in reverse lexicographic order."""
    fam = SYMPLECTIC if g.series == "C" else ORTHOGONAL
    for c in iter_members(g.nu, fam):
        yield JordanType(c, g.epsilon)
