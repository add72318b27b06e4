"""The split engine shared by series C and series B/D.

A split of a Jordan type c is a pair (r, p) that merges back to c, with p
doubled (family Ptilde) and r in the side's r-family: S (all even) for C, R
(chained) for B and D.  Both sides find ``psi`` the same way: the fiber
minimum of the side's ``fiber_minimum``, checked against a closed-form
routing by ``minimal_split``.  This module holds that machinery once:
``Split``, ``combine``, the listing ``iter_fiber`` and ``fiber``, and the
dual-route guard ``minimal_split``.  ``type_c`` and ``type_bd`` keep only
their rules (a ``Split`` subclass naming the r-family, ``_r_counts``,
``canonical_split`` and ``fiber_minimum``, and for B/D the family-R
automaton that ``iter_fiber`` walks) and call in here with one line per
public function.  The listing costs time in proportion to its output on
both sides: C lists the plain product of its choices, every one a split,
and B/D walk the automaton, pruning dead states.

A ``Split`` is a certificate: its public constructor and ``from_text`` test
r for the r-family and p for family Ptilde, so a function handed a Split
does not test either again.  A function whose own derivation guarantees
both families builds its split with the trusted ``Split._trusted``.
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

    @classmethod
    def _trusted(cls, r: Partition, p: Partition) -> "Split":
        """Trusted constructor: skips both family tests of ``__post_init__``.

        The caller guarantees r in ``R_FAMILY`` and p in family Ptilde.
        Only ``iter_fiber``, ``type_bd.from_halves`` and
        ``weyl.encode_class`` call it, an allowlist that
        ``tests/test_certificates.py`` checks by scanning the source.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)
        return self

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


def iter_fiber(split_cls, c: Partition, r_counts, automaton=None) -> Iterator[Split]:
    """Lazily enumerate the splits of c, one per admitted combination of per-value choices.

    ``r_counts(e, q)`` lists how many copies of a value e of multiplicity q
    may go to r; the rest go to p, and every count leaves p doubled.  With
    no ``automaton`` every combination is a split (``r_counts`` admits only
    r-family counts) and the product is listed as it stands.  Otherwise
    ``automaton`` is ``(start, step, accepts)``, a finite automaton for the
    r-family read largest value first, and ``_walk`` lists only the
    combinations it accepts, in product order, at a cost that follows the
    output.  Each r it lists is tested once for the r-family: a failure is a
    ContradictionError (the automaton and the family disagree), never a
    silent skip.  Either way the splits are built trusted, from the runs of
    c, largest value first, so both sides are already sorted and skip the
    re-sort of the validating constructor.
    """
    runs = list(c.multiplicities().items())
    if automaton is None:
        for ms in itertools.product(*(r_counts(e, q) for e, q in runs)):
            r_parts: list[int] = []
            p_parts: list[int] = []
            for (e, q), m in zip(runs, ms):
                r_parts += [e] * m
                p_parts += [e] * (q - m)
            yield split_cls._trusted(
                Partition._from_sorted(tuple(r_parts)), Partition._from_sorted(tuple(p_parts))
            )
        return
    for r_parts, p_parts in _walk(runs, r_counts, *automaton):
        r = Partition._from_sorted(r_parts)
        if not is_member(r, split_cls.R_FAMILY):
            raise ContradictionError(
                f"fiber walk over {c.text()} accepted r={r.text()} "
                f"outside family {split_cls.R_FAMILY}"
            )
        yield split_cls._trusted(r, Partition._from_sorted(p_parts))


def _walk(runs, r_counts, start, step, accepts) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The (r, p) parts of the choices the automaton accepts, in the order of the product.

    A depth-first walk over the runs, trying the choices of each in
    ``r_counts`` order: a choice m for which ``step(state, value, m)`` is
    None is not followed, and a leaf is listed when ``accepts`` holds after
    the last run.  A state is all that later runs need to know, so a
    (depth, state) whose subtree listed nothing is dead wherever it is
    reached: it is remembered and never entered again.  Each depth thus
    enters at most one node per listed leaf plus one per dead state, and
    each node tries its value's choices once.
    """
    if not runs:
        if accepts(start):
            yield (), ()
        return
    counts = [r_counts(e, q) for e, q in runs]
    depth = len(runs)
    dead: set[tuple[int, object]] = set()
    listed = 0
    # per entered node: its state, the r and p parts so far, its untried
    # choices and the number of leaves listed before it was entered
    frames = [(start, (), (), iter(counts[0]), 0)]
    while frames:
        i = len(frames) - 1
        state, r, p, untried, listed_before = frames[i]
        e, q = runs[i]
        for m in untried:
            to = step(state, e, m)
            if to is None or (i + 1, to) in dead:
                continue
            if i + 1 < depth:
                frames.append(
                    (to, r + (e,) * m, p + (e,) * (q - m), iter(counts[i + 1]), listed)
                )
                break
            if accepts(to):
                listed += 1
                yield r + (e,) * m, p + (e,) * (q - m)
        else:
            frames.pop()
            if listed == listed_before:
                dead.add((i, state))


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
