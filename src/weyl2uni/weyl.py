"""Signed-cycle-type classes, Jordan types, and the maps between them.

Conjugacy classes of the hyperoctahedral-type Weyl groups (series B, C, D)
are stored as a pair of partitions: positive cycle lengths and negative
cycle lengths.  ``phi_classical`` sends a class to the Jordan type of the
unipotent class it determines; ``psi_classical`` picks the preimage class
with the smallest fixed space, which is the unique one with the fewest
positive cycles.  ``fixed_space_dim`` is the closed-form count (positive
cycles); ``fixed_space_dim_from_matrix`` recomputes it as an exact matrix
nullity and serves as the independent oracle.

A class has one encoded form, its split (r, p).  ``_encode_parts`` is the
one encoder: it runs ``_check_class`` once and returns (r, p) as
Partitions, p doubled by the unchecked ``partitions._sorted_union`` and a
B/D r built and tested by ``type_bd.blocks_from_halves``.
``phi_classical`` merges the two with the same core, and
``psi_classical``'s round trip compares that merge with j; neither builds
a ``Split`` or re-checks a Partition's type.  ``encode_class`` is the
trusted ``Split`` of the same parts, on every series, and
``decode_class`` inverts it.  ``SIDES`` is the one
place a series picks its side (``type_c`` for C, ``type_bd`` for B and D);
a side's Jordan family ``FAMILY`` (T or Q) is tested by
``splits.check_jordan``, which ``JordanType`` shares.

Checked objects are certificates: a ``JordanType`` or ``Split`` has had its
families tested by its public constructor, so a function handed one does
not test them again.  ``JordanType`` has no trusted constructor, so every
Jordan type ``phi_classical`` returns has had its family tested.
``psi_classical`` runs each check once; it checks its answer twice on
purpose: the two routes of the side's ``_minimal_parts`` and the ``phi``
round trip.  The ``splits`` docstring counts the checks of each call.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import splits, type_bd, type_c
from .partitions import (
    ContradictionError,
    DomainError,
    ORTHOGONAL,
    PARSE_CAP,
    Partition,
    Record,
    SYMPLECTIC,
    _sorted_union,
    check_int,
    iter_members,
    iter_partitions,
)

SIDES = {"B": type_bd, "C": type_c, "D": type_bd}
SERIES = tuple(SIDES)
LEAST_RANK = {"B": 1, "C": 1, "D": 2}  # SO(2), of series D and rank 1, is a torus
TOTAL_PARITY = {"B": 1, "C": 0, "D": 0}  # nu = 2 * rank + TOTAL_PARITY: odd on B only


class GroupKind(Record):
    """A classical series and rank; nu is the dimension of the natural module.

    ``__init__`` stores nu, kappa = nu % 2 and epsilon, the sign of the
    preserved form (-1 symplectic, +1 orthogonal), in slots that are not
    fields: reading them opens no frame, and repr, equality, hash, copy and
    pickle see only series and rank.
    """

    __slots__ = ("series", "rank", "nu", "kappa", "epsilon")
    _fields = __slots__[:2]

    def __init__(self, series: str, rank: int) -> None:
        if series not in SERIES:
            raise DomainError(f"series must be one of {SERIES}, got {series!r}")
        check_int("rank", rank)
        if rank < LEAST_RANK[series]:
            raise DomainError(f"series {series} needs rank >= {LEAST_RANK[series]}, got {rank}")
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "rank", rank)
        nu = 2 * rank + TOTAL_PARITY[series]
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "kappa", nu % 2)
        object.__setattr__(self, "epsilon", -1 if series == "C" else 1)


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
        if not isinstance(positive, Partition) or not isinstance(negative, Partition):
            name, value = ("negative", negative) if isinstance(positive, Partition) else ("positive", positive)
            raise DomainError(f"{name} must be a Partition, got {value!r}")
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
        w = cls(Partition.from_text(pos[4:]), Partition.from_text(neg[4:]))
        if w.rank > PARSE_CAP:
            raise DomainError(f"class rank {w.rank} is above the parse cap {PARSE_CAP}")
        return w

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
        if not isinstance(parts, Partition):
            raise DomainError(f"parts must be a Partition, got {parts!r}")
        if epsilon not in (1, -1) or type(epsilon) is not int:  # not True, nor 1.0
            raise DomainError(f"epsilon must be +1 or -1, got {epsilon!r}")
        splits.check_jordan(parts, SYMPLECTIC if epsilon == -1 else ORTHOGONAL)  # T forces an even total
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "epsilon", epsilon)

    @property
    def nu(self) -> int:
        return self.parts.size

    def text(self) -> str:
        return self.parts.text()


def _check_group(g: GroupKind) -> None:
    if not isinstance(g, GroupKind):
        raise DomainError(f"expected a GroupKind, got {g!r}")


def _check_class(w: SignedCycleType, g: GroupKind) -> None:
    if not isinstance(w, SignedCycleType) or not isinstance(g, GroupKind):
        raise DomainError(f"expected a SignedCycleType and a GroupKind, got {w!r} and {g!r}")
    rank = sum(w.positive) + sum(w.negative)  # ``w.rank``, without its property frame
    if rank != g.rank:
        raise DomainError(f"class {w.text()} has rank {rank}, group expects {g.rank}")
    if g.series == "D" and len(w.negative) % 2:
        raise DomainError(
            f"class {w.text()} has an odd number of negative cycles; series D requires evenly many"
        )


def is_split_class(w: SignedCycleType, g: GroupKind) -> bool:
    """Series-D classes with no negative cycle and all positive lengths even."""
    _check_group(g)
    if not isinstance(w, SignedCycleType):
        raise DomainError(f"expected a SignedCycleType, got {w!r}")
    return (
        g.series == "D"
        and not w.negative
        and bool(w.positive)
        and all(v % 2 == 0 for v in w.positive)
    )


def _encode_parts(w: SignedCycleType, g: GroupKind) -> tuple[Partition, Partition]:
    """The (r, p) of the split of a class, as Partitions: each positive cycle of length d gives p two parts d.

    Series C: each negative cycle of length d is one invariant 2d-cycle of
    the underlying permutation (r gets 2d).  Series B/D: r is
    ``type_bd.blocks_from_halves`` of the negative lengths, which tests r
    for family R (``_check_class`` gives series D, kappa=0, evenly many).
    ``_check_class`` runs once, and nothing after it checks a type: the
    fields of a ``SignedCycleType`` are Partitions, so p is their
    ``_sorted_union``, doubled by construction, as a C r is all even.
    """
    _check_class(w, g)
    pos = w.positive
    p = _sorted_union(pos, pos)
    if g.series == "C":
        return Partition._from_sorted(tuple([2 * d for d in w.negative])), p
    return type_bd.blocks_from_halves(w.negative, g.kappa), p


def encode_class(w: SignedCycleType, g: GroupKind) -> type_c.Split | type_bd.Split:
    """The split of a class: the parts of ``_encode_parts`` as a trusted ``Split`` of g's side.

    ``cli encode`` and ``verify`` read it; ``phi_classical`` and
    ``psi_classical`` read the parts alone.
    """
    r, p = _encode_parts(w, g)
    return SIDES[g.series].Split._trusted(r, p)


def decode_class(x: type_c.Split | type_bd.Split, g: GroupKind) -> SignedCycleType:
    """Inverse of encode_class.

    x must be a ``Split`` of g's side, else DomainError.  ``_class_of``
    halves it, rebuilding a B/D r; ``_check_class`` tests the class.
    """
    _check_group(g)
    side = SIDES[g.series]
    if not isinstance(x, side.Split):
        raise DomainError(f"series {g.series} decodes a {side.__name__.rsplit('.', 1)[1]}.Split")
    w = _class_of(x.r, x.p, g, rebuild=True)
    _check_class(w, g)
    return w


def _class_of(r: Partition, p: Partition, g: GroupKind, rebuild: bool) -> SignedCycleType:
    """The class of the family-tested split (r, p) of g's side; a B/D r by ``type_bd._halves_of_chained``."""
    if g.series == "C":
        neg = Partition._from_sorted(tuple([v // 2 for v in r]))  # r is all even
    else:
        neg = type_bd._halves_of_chained(r, g.kappa, rebuild)
    return SignedCycleType(Partition._from_sorted(p[0::2]), neg)


def fixed_space_dim(w: SignedCycleType) -> int:
    """Dimension of the fixed space on the rank-dimensional reflection module.

    Each positive cycle fixes a line; negative cycles fix nothing.
    """
    if not isinstance(w, SignedCycleType):
        raise DomainError(f"expected a SignedCycleType, got {w!r}")
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
    """Jordan type of the unipotent class attached to a Weyl class: the merged (r, p) of ``_encode_parts``.

    The class is checked once, by ``_encode_parts``; the merge checks no
    type, and ``JordanType`` tests its family.
    """
    r, p = _encode_parts(w, g)
    return JordanType(_sorted_union(r, p), g.epsilon)


def _check_jordan(j: JordanType, g: GroupKind) -> None:
    if not isinstance(j, JordanType) or not isinstance(g, GroupKind):
        raise DomainError(f"expected a JordanType and a GroupKind, got {j!r} and {g!r}")
    if j.epsilon != g.epsilon:
        raise DomainError(f"Jordan type sign {j.epsilon} does not match series {g.series}")
    if sum(j.parts) != g.nu:
        raise DomainError(f"Jordan type total {j.nu} does not match nu={g.nu} of {g.series}{g.rank}")


def psi_classical(j: JordanType, g: GroupKind) -> SignedCycleType:
    """The preimage class of phi_classical with strictly minimal fixed space.

    Each check runs once: j, a certificate, has its sign and total matched
    to g; ``_minimal_parts`` compares the two routes and reads (r, p), which
    ``Split._check`` tests; ``_class_of`` halves them without rebuilding r;
    the class, encoded again by ``_encode_parts`` (its one ``_check_class``,
    and on B/D ``blocks_from_halves``), must merge back to j's parts (the
    round trip).  No ``Split`` is built, and no Partition's type re-checked.
    """
    _check_jordan(j, g)
    c = j.parts
    side = SIDES[g.series]
    r, p = side._minimal_parts(c, c.runs())
    side.Split._check(r, p)
    w = _class_of(r, p, g, rebuild=False)
    try:
        back = _encode_parts(w, g)
    except DomainError as exc:  # e.g. a class of the wrong rank: a fault of psi, not of j
        raise ContradictionError(f"psi of {j.text()} does not round-trip through phi: {exc}") from None
    if _sorted_union(*back) != c:
        raise ContradictionError(f"psi of {j.text()} does not round-trip through phi")
    return w


def enumerate_classes(g: GroupKind) -> list[SignedCycleType]:
    """All conjugacy classes of the rank-n group of the series.

    Series B/C: every pair of partitions with total rank.  Series D: evenly
    many negative cycles, each pair of fused split classes listed once.
    Positive parts of size rank down to 0, each size in the order of
    ``iter_partitions``; the partitions of each size are listed once per
    call and reused for the negative parts.
    """
    _check_group(g)
    if g.rank > 12:
        raise DomainError(f"class enumeration is capped at rank 12, got {g.rank}")
    n = g.rank
    by_size = [list(iter_partitions(k)) for k in range(n + 1)]
    negs = [[neg for neg in ps if len(neg) % 2 == 0] for ps in by_size] if g.series == "D" else by_size
    return [SignedCycleType(pos, neg) for k in range(n, -1, -1) for pos in by_size[k] for neg in negs[n - k]]


def iter_jordan_types(g: GroupKind) -> Iterator[JordanType]:
    """All valid Jordan types for the group, in reverse lexicographic order; g is checked at the call."""
    _check_group(g)
    return (JordanType(c, g.epsilon) for c in iter_members(g.nu, SIDES[g.series].FAMILY))
