"""The split engine shared by series C and series B/D.

A split of a Jordan type c is a pair (r, p) that merges back to c, with p
doubled (family Ptilde) and r in the side's r-family: S (all even) for C, R
(chained) for B and D.  Each side reads its r-family with a finite
automaton over the runs of c, largest value first: one state for S, at most
24 for R.  This module holds the machinery once: ``Split``, the listing
``iter_fiber`` (a walk of the automaton that prunes dead states) and
``fiber``, the dynamic program ``fiber_minimum`` on the same automaton, and
the dual-route guard ``minimal_split``, which checks that minimum against a
closed-form routing.  ``partitions.merge(x.r, x.p)`` merges a split back.
``type_c`` and ``type_bd`` keep only their rules (a ``Split`` subclass
naming the r-family, ``_r_counts``, the automaton and the routing body
``_route``).  Each of their public functions tests its input for family T
or Q once, at entry, and calls in here; nothing in here tests it again.

The walk and the dynamic program read the automaton through one move
table, the cache of ``_moves``, keyed by (r_counts, step, state, parity,
q): the rules read a value only through its parity, so the key fixes the
moves, and a rule replaced later is a new key, never read stale.  The
table holds at most 4,096 keys, evicting the least recently used.

A ``Split`` is a certificate: its public constructor tests r for the
r-family and p for family Ptilde, so a function handed a Split does not
test either again.  A function whose own derivation guarantees both
families builds its split with the trusted ``Split._trusted``.  So
``minimal_split`` runs, per call: one count of the runs of c, the dynamic
program (its argmin built trusted), the routing (its split validated: one
r-family and one Ptilde test) and one comparison of the two.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache

from .partitions import ContradictionError, DOUBLED, DomainError, Partition, Record, is_member, merge


class Split(Record):
    """(r, p) with r in the family ``R_FAMILY`` and p in family Ptilde.

    Subclasses set ``R_FAMILY`` and ``R_VIOLATION``, the end of the message
    raised when r is not in that family.  Splits of different subclasses
    never compare equal.
    """

    _fields = __slots__ = ("r", "p")
    R_FAMILY: str
    R_VIOLATION: str

    def __init__(self, r: Partition, p: Partition) -> None:
        if not is_member(r, self.R_FAMILY):
            raise DomainError(f"r={r.text()} {self.R_VIOLATION}")
        if not is_member(p, DOUBLED):
            raise DomainError(f"p={p.text()} is not doubled (family Ptilde violated)")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)

    @classmethod
    def _trusted(cls, r: Partition, p: Partition) -> "Split":
        """Trusted constructor: skips both family tests of ``__init__``.

        The caller guarantees r in ``R_FAMILY`` and p in family Ptilde.
        Only ``iter_fiber``, ``fiber_minimum`` (for ``minimal_split``, whose
        dual route checks the argmin) and ``weyl.encode_class`` call it, an
        allowlist that ``tests/test_certificates.py`` checks by scanning the
        source.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.r == other.r and self.p == other.p

    def __hash__(self) -> int:
        return hash((self.r, self.p))

    def text(self) -> str:
        return f"r={self.r.text()};p={self.p.text()}"

    def to_json(self) -> dict:
        return {"r": self.r.to_json(), "p": self.p.to_json()}


@lru_cache(maxsize=4096)
def _moves(r_counts, step, state, odd: int, q: int) -> tuple[tuple, tuple]:
    """(moves, cheapest moves) of ``state`` on q copies of a value of parity ``odd``, cached.

    A move (to, m) sends m copies to r, in ``r_counts`` order, and
    ``step`` takes the state to ``to``, not None.  The cheapest keep the
    largest m per target: one copy fewer in r is one part more in p, so no
    other move into that target reaches a minimum or a tie at it.  The
    cache holds at most 4,096 keys, each with q + 1 moves at most.
    """
    moves = tuple([(to, m) for m in r_counts(odd, q) if (to := step(state, odd, m)) is not None])
    # by m ascending, so the dict keeps the largest m per target
    return moves, tuple(dict(sorted(moves, key=lambda move: move[1])).items())


def iter_fiber(split_cls, runs, r_counts, automaton) -> Iterator[Split]:
    """Lazily enumerate the splits over ``runs``: the choice sequences the automaton accepts.

    ``runs`` are the (value, multiplicity) pairs of a Jordan type c, largest
    value first; ``r_counts(odd, q)`` lists how many copies of a value of
    parity ``odd`` and multiplicity q may go to r, the rest going to p, each
    count leaving p doubled; ``automaton`` is ``(start, step, accepts)``, a
    finite automaton for the r-family read largest value first.  A
    depth-first walk over the runs, reading each node's moves from
    ``_moves``, lists the accepted leaves in the order of the product of
    the choices.  A (depth, state) whose subtree listed nothing is dead
    wherever it is reached (later runs see only the state), so it is never
    entered again: per depth the walk tries at most (choices of the value)
    x (splits listed + dead states) moves.  The listing itself can be
    exponential: every one of the 2^k choice sequences over the series C
    type 2k,2k,...,2,2 is a split.

    Each r is tested once for the r-family, and a failure is a
    ContradictionError (automaton and family disagree), never a skip.  The
    splits are built trusted from the runs, both sides already sorted.
    """
    start, step, accepts = automaton
    runs = runs or [(0, 0)]  # the empty type: one run of no copies, which keeps the start state
    keys = [(e % 2, q) for e, q in runs]
    depth = len(runs)
    dead: set[tuple[int, object]] = set()
    listed = 0
    # per entered node: its state, the r and p parts so far, its untried
    # moves and the number of leaves listed before it was entered
    frames = [(start, (), (), iter(_moves(r_counts, step, start, *keys[0])[0]), 0)]
    while frames:
        i = len(frames) - 1
        state, r, p, untried, listed_before = frames[i]
        e, q = runs[i]
        for to, m in untried:
            if i + 1 < depth:
                if (i + 1, to) not in dead:
                    moves = _moves(r_counts, step, to, *keys[i + 1])[0]
                    frames.append((to, r + (e,) * m, p + (e,) * (q - m), iter(moves), listed))
                    break
            elif accepts(to):
                listed += 1
                x, y = Partition._from_sorted(r + (e,) * m), Partition._from_sorted(p + (e,) * (q - m))
                if not is_member(x, split_cls.R_FAMILY):
                    raise ContradictionError(f"fiber walk over {merge(x, y).text()} accepted "
                                             f"r={x.text()} outside family {split_cls.R_FAMILY}")
                yield split_cls._trusted(x, y)
        else:
            frames.pop()
            if listed == listed_before:
                dead.add((i, state))


def fiber_minimum(split_cls, runs, r_counts, automaton, trusted=False) -> tuple[int | None, int, Split | None]:
    """(minimal p-length, number of splits reaching it, the minimiser if unique).

    A dynamic program over ``runs``, the (value, multiplicity) pairs of a
    Jordan type c largest value first, on the choices and automaton of
    ``iter_fiber``, reading only the cheapest move per target of ``_moves``.
    Each state keeps its least p-length, how many choice sequences reach it
    and one of them as a linked (previous, m) pair, so the cost is linear in
    the number of distinct values; one pass over the accepting states picks
    the minimum and sums its ties.  An empty fiber gives (None, 0, None).
    The argmin is built by the validating ``split_cls``, a refusal being a
    ContradictionError, or with ``trusted`` by ``split_cls._trusted``: only
    ``minimal_split`` asks for that, as its dual route compares the argmin
    with the validated routing.
    """
    start, step, accepts = automaton
    layer: dict[object, tuple] = {start: (0, 1, None)}
    for e, q in runs:
        nxt: dict[object, tuple] = {}
        for state, (p_len, ways, path) in layer.items():
            for to, m in _moves(r_counts, step, state, e % 2, q)[1]:
                cand = p_len + q - m
                have = nxt.get(to)
                if have is None or cand < have[0]:
                    nxt[to] = (cand, ways, (path, m))
                elif cand == have[0]:
                    nxt[to] = (cand, have[1] + ways, have[2])
        layer = nxt
    least, ties = None, 0
    for state, end in layer.items():
        if not accepts(state):
            continue
        if least is None or end[0] < least[0]:
            least, ties = end, end[1]
        elif end[0] == least[0]:
            ties += end[1]
    if least is None:
        return None, 0, None
    if ties != 1:
        return least[0], ties, None
    path = least[2]
    r_parts, p_parts = [], []
    for e, q in reversed(runs):
        path, m = path
        r_parts += [e] * m
        p_parts += [e] * (q - m)
    # rebuilt smallest value first: reversed, both sides are sorted
    r = Partition._from_sorted(tuple(r_parts[::-1]))
    p = Partition._from_sorted(tuple(p_parts[::-1]))
    if trusted:
        return least[0], 1, split_cls._trusted(r, p)
    try:  # the validating constructor re-checks both families on the argmin
        return least[0], 1, split_cls(r, p)
    except DomainError as exc:
        raise ContradictionError(f"fiber minimum over {merge(r, p).text()} is not a split: {exc}") from None


def fiber(xs: Iterable[Split]) -> list[Split]:
    """The splits of a listing, minimal p-length first, deterministically ordered (C: 2^k over 2k,2k,...,2,2)."""
    return sorted(xs, key=lambda x: (len(x.p), x.p.parts, x.r.parts))


def minimal_split(split_cls, c: Partition, runs, r_counts, automaton, route) -> Split:
    """The unique split of c minimizing the number of parts of p.

    The caller has tested c for its family and counted its ``runs`` once,
    for both routes: the minimum of ``fiber_minimum``, its argmin
    built trusted, must exist, be unique and equal ``route(c, runs)``, the
    side's closed-form routing, which builds its split validated; else
    ContradictionError (none can happen; this is the point being verified).
    Equality with the validated split certifies the argmin's families.
    """
    p_len, ties, best = fiber_minimum(split_cls, runs, r_counts, automaton, trusted=True)
    if p_len is None:
        raise ContradictionError(f"empty fiber over {c.text()}")
    if ties != 1:
        raise ContradictionError(
            f"{ties} fiber elements over {c.text()} share the minimal p-length {p_len}"
        )
    want = route(c, runs)
    if best != want:
        raise ContradictionError(
            f"fiber minimum {best.text()} differs from canonical split {want.text()} over {c.text()}"
        )
    return best
