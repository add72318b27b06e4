"""The split engine shared by series C and series B/D.

A split of a Jordan type c is a pair (r, p) that merges back to c, with p
doubled (family Ptilde) and r in the side's r-family: S (all even) for C, R
(chained) for B and D.  Over the runs (e, q) of c, largest value first
(``Partition.runs()``), a split is a choice vector: per run, the number m of
copies that go to r.  The engine offers m = q, q - 2, ..., the counts that
leave p doubled, and each side reads its r-family with a finite automaton
over the runs (one state for S, at most 24 for R), which refuses the rest,
through one move table, the cache of ``_moves``.  This module holds the
machinery once: ``Split`` and its validated builder ``Split.from_choices``,
the one fiber walk ``walk`` and its listings ``iter_fiber`` and ``fiber``,
the dynamic program ``fiber_minimum`` and the dual-route guard
``minimal_parts``.  The sides ``type_c`` and ``type_bd``, which
``weyl.SIDES`` picks per series, keep only their rules: ``FAMILY``, a
``Split`` subclass, the automaton and the routing ``_route_choices``.

The checks, per call.  A ``Split`` is a certificate: its public constructor
tests r for the r-family and p for family Ptilde (``Split._check``).
``_choice_parts`` reads (r, p) from c's own runs, so they merge back to c
exactly when the vector has one m in 0..q per run, which it checks
(ContradictionError).  Each public function of a side tests c for its
``FAMILY``, T (C) or Q (B/D), once, at entry, by ``check_jordan``.  Then:

* ``canonical_split`` tests the routed (r, p) once; ``minimal_split``
  first compares it with the vector of the dynamic program.
* ``weyl.psi_classical`` tests no family of its certified Jordan type and
  builds no ``Split``: it runs the two routes of ``minimal_parts``,
  ``Split._check`` once and its round trip, which re-encodes the class by
  ``weyl._encode_parts``: one ``_check_class``, and on B/D
  ``blocks_from_halves``, which tests r for order, total and family R.
  ``phi_classical`` reads the same encoder.
* The scan of ``verify`` (``_claim_and_walk``) takes c with its runs from
  the sweep, tests the routed (r, p) by ``Split._check`` and reads ``walk``
  over the runs, which tests each r it lists for the r-family; it builds no
  ``Split``.  On C the claim is the public ``canonical_split``, which tests
  T and counts the runs again.  On B/D no test of c for Q runs: an even
  value of odd count goes wholly to r or to p (rule 1), so the claim's R or
  Ptilde test refuses c.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache

from .partitions import ContradictionError, DOUBLED, DomainError, Partition, Record, SYMPLECTIC, is_member, merge


def check_jordan(c: Partition, family: str) -> None:
    """Refuse c (DomainError) outside ``family``: T or Q, a side's ``FAMILY`` or a ``JordanType``'s."""
    if not is_member(c, family):
        kind = "a symplectic" if family == SYMPLECTIC else "an orthogonal"
        raise DomainError(f"{c.text()} is not {kind} Jordan type (family {family})")


class Split(Record):
    """(r, p) with r in the family ``R_FAMILY`` and p in family Ptilde.

    Subclasses set ``R_FAMILY`` and ``R_VIOLATION``, the end of the message
    raised when r is not in that family.  Equality and hash are
    ``Record``'s, over (r, p): splits of different subclasses never compare
    equal.
    """

    _fields = __slots__ = ("r", "p")
    R_FAMILY: str
    R_VIOLATION: str

    def __init__(self, r: Partition, p: Partition) -> None:
        self._check(r, p)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)

    @classmethod
    def _check(cls, r: Partition, p: Partition) -> None:
        """The family tests of the constructor: r in ``R_FAMILY`` and p in family Ptilde, else DomainError."""
        if not is_member(r, cls.R_FAMILY):
            raise DomainError(f"r={r.text()} {cls.R_VIOLATION}")
        if not is_member(p, DOUBLED):
            raise DomainError(f"p={p.text()} is not doubled (family Ptilde violated)")

    @classmethod
    def _trusted(cls, r: Partition, p: Partition) -> "Split":
        """Trusted constructor: skips both family tests of ``__init__``.

        The caller guarantees r in ``R_FAMILY`` and p in family Ptilde.
        Only ``iter_fiber`` and ``weyl.encode_class`` call it, an allowlist
        that ``tests/test_certificates.py`` checks by scanning the source.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)
        return self

    @classmethod
    def from_choices(cls, runs, choices) -> "Split":
        """The split of ``_choice_parts(runs, choices)``, its families tested by the constructor."""
        return cls(*_choice_parts(runs, choices))

    def text(self) -> str:
        return f"r={self.r.text()};p={self.p.text()}"

    def to_json(self) -> dict:
        return {"r": self.r.to_json(), "p": self.p.to_json()}


def _choice_parts(runs, choices) -> tuple[Partition, Partition]:
    """(r, p) sending m copies of each run (e, q) of c to r and q - m to p, their families untested.

    ``runs`` are c's own runs, largest value first.  A vector that does
    not merge back to c (not one m in 0..q per run) is a ContradictionError.
    """
    if len(choices) == len(runs):
        r = p = ()
        for (e, q), m in zip(runs, choices):
            if not 0 <= m <= q:
                break
            r, p = (r + (e,) * m if m else r), (p + (e,) * (q - m) if m < q else p)
        else:  # both sides are sub-sequences of c: already sorted
            return Partition._from_sorted(r), Partition._from_sorted(p)
    raise ContradictionError(f"choices {tuple(choices)} over {_type_text(runs)} do not merge back")


_LISTED_Q = 64


class _MoveList:
    """The moves of one key, listed afresh on each pass: ``_moves`` keeps these above ``_LISTED_Q`` copies."""

    __slots__ = ("key",)

    def __init__(self, step, state, odd: int, q: int) -> None:
        self.key = step, state, odd, q

    def __iter__(self) -> Iterator[tuple[object, int]]:
        step, state, odd, q = self.key
        return ((to, m) for m in range(q, -1, -2) if (to := step(state, odd, m)) is not None)


@lru_cache(maxsize=4096)
def _moves(step, state, odd: int, q: int) -> tuple[tuple | _MoveList, tuple]:
    """(moves, cheapest moves) of ``state`` on q copies of a value of parity ``odd``, cached.

    A move (to, m) sends m copies to r and q - m to p, most copies first:
    m = q, q - 2, ..., so that p keeps an even count of the value, and
    ``step`` takes the state to ``to``, not None.  The cheapest keep the
    largest m per target: one copy fewer in r is one part more in p, so no
    other move into that target reaches a minimum or a tie at it.  The key
    fixes the moves, as the rules read a value only through its parity, and
    a rule replaced later is a new key.  Each of the at most 4,096 keys
    holds its cheapest moves, and its moves only up to ``_LISTED_Q`` copies
    (at most 4,096 x 33 moves, about 10 MB): above, a ``_MoveList`` lists
    them again on each pass, which costs a walk about 1.7x the tuple's read
    (``deep_fibers`` aux_p50_ms, where q <= 2).
    """
    listed = _MoveList(step, state, odd, q)
    moves = tuple(listed)
    # by m ascending, so the dict keeps the largest m per target
    return moves if q <= _LISTED_Q else listed, tuple(dict(reversed(moves)).items())


def walk(r_family, runs, automaton) -> Iterator[tuple[Partition, tuple[int, ...]]]:
    """Lazily enumerate the splits over ``runs`` as (r, parts of p): the choice sequences the automaton accepts.

    ``runs`` are the (value, multiplicity) pairs of a Jordan type c, largest
    value first; ``automaton`` is ``(start, step, accepts)``, a finite
    automaton for the r-family read largest value first.  A depth-first
    walk over the runs, reading each node's moves from ``_moves``, lists the
    accepted leaves in the order of the product of the moves: per run, most
    copies to r first.  A (depth, state) whose subtree listed nothing is dead
    wherever it is reached (later runs see only the state), so it is never
    entered again: per depth the walk tries at most (choices of the value)
    x (splits listed + dead states) moves.  The listing itself can be
    exponential (2^k splits over the series C type 2k,2k,...,2,2).

    A leaf is handed out as r, tested for ``r_family`` (an r outside it is a
    ContradictionError: automaton and family disagree), and p's parts.
    """
    start, step, accepts = automaton
    runs = runs or [(0, 0)]  # the empty type: one run of no copies, which keeps the start state
    last = len(runs) - 1
    dead: set[tuple[int, object]] = set()
    listed = 0
    e, q = runs[0]
    # per entered node: its state, the r and p parts so far, its untried
    # moves and the number of leaves listed before it was entered
    frames = [(start, (), (), iter(_moves(step, start, e % 2, q)[0]), 0)]
    while frames:
        i = len(frames) - 1
        state, r, p, untried, listed_before = frames[i]
        e, q = runs[i]
        for to, m in untried:
            if i < last:
                if (i + 1, to) not in dead:
                    f, n = runs[i + 1]
                    frames.append((to, r + (e,) * m if m else r, p + (e,) * (q - m) if m < q else p,
                                   iter(_moves(step, to, f % 2, n)[0]), listed))
                    break
            elif accepts(to):
                listed += 1
                x, y = Partition._from_sorted(r + (e,) * m if m else r), p + (e,) * (q - m) if m < q else p
                if not is_member(x, r_family):
                    raise ContradictionError(f"fiber walk over {merge(x, Partition(y)).text()} accepted "
                                             f"r={x.text()} outside family {r_family}")
                yield x, y
        else:
            frames.pop()
            if listed == listed_before:
                dead.add((i, state))


def iter_fiber(split_cls, runs, automaton) -> Iterator[Split]:
    """The leaves of ``walk`` over ``runs``, in its order, each as a trusted ``split_cls``."""
    for r, p in walk(split_cls.R_FAMILY, runs, automaton):
        yield split_cls._trusted(r, Partition._from_sorted(p))


def fiber_minimum(runs, automaton) -> tuple[int | None, int, tuple[int, ...] | None]:
    """(minimal p-length, number of splits reaching it, the minimiser's choice vector if unique).

    A dynamic program over ``runs``, the (value, multiplicity) pairs of a
    Jordan type c largest value first, on the choices and automaton of
    ``walk``, reading only the cheapest move per target of ``_moves``.
    Each state keeps its least p-length, how many choice sequences reach it
    and the choice vector of one of them, so the cost is linear in the
    number of distinct values; one pass over the accepting states picks the
    minimum and sums its ties.  An empty fiber gives (None, 0, None).
    """
    start, step, accepts = automaton
    # A layer of one state, as most are, is kept in four variables, and a
    # run with one cheapest move from it just extends them.
    state, p_len, ways, path = start, 0, 1, ()
    layer: dict[object, tuple] | None = None
    for e, q in runs:
        if layer is None:
            cheapest = _moves(step, state, e % 2, q)[1]
            if len(cheapest) == 1:
                [(state, m)] = cheapest
                p_len, path = p_len + q - m, path + (m,)
                continue
            layer = {state: (p_len, ways, path)}
        nxt: dict[object, tuple] = {}
        for state, (p_len, ways, path) in layer.items():
            for to, m in _moves(step, state, e % 2, q)[1]:
                cand = p_len + q - m
                have = nxt.get(to)
                if have is None or cand < have[0]:
                    nxt[to] = (cand, ways, path + (m,))
                elif cand == have[0]:
                    nxt[to] = (cand, have[1] + ways, have[2])
        layer = nxt
        if len(nxt) == 1:
            [(state, (p_len, ways, path))] = nxt.items()
            layer = None
    if layer is None:  # one state at the end: no pass over a layer
        return (p_len, ways, path if ways == 1 else None) if accepts(state) else (None, 0, None)
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
    return least[0], ties, least[2] if ties == 1 else None


def least_split(split_cls, runs, automaton) -> tuple[int | None, int, Split | None]:
    """``fiber_minimum`` with its unique minimiser built by ``from_choices``; a refusal is a ContradictionError."""
    p_len, ties, best = fiber_minimum(runs, automaton)
    if best is None:
        return p_len, ties, None
    try:
        return p_len, ties, split_cls.from_choices(runs, best)
    except DomainError as exc:
        raise ContradictionError(f"fiber minimum over {_type_text(runs)} is not a split: {exc}") from None


def fiber(xs: Iterable[Split]) -> list[Split]:
    """The splits of a listing, minimal p-length first, deterministically ordered (C: 2^k over 2k,2k,...,2,2)."""
    return sorted(xs, key=lambda x: (len(x.p), x.p, x.r))


def minimal_parts(c: Partition, runs, automaton, route_choices) -> tuple[Partition, Partition]:
    """The (r, p) of the unique split of c minimizing the number of parts of p, their families untested.

    The caller has tested c and counted its ``runs`` once, for both routes:
    the minimum of ``fiber_minimum`` must exist, be unique and have the
    choice vector ``route_choices(runs)`` of the closed-form routing, else
    ContradictionError (none can happen; this is the point being verified).
    """
    p_len, ties, best = fiber_minimum(runs, automaton)
    if p_len is None:
        raise ContradictionError(f"empty fiber over {c.text()}")
    if ties != 1:
        raise ContradictionError(f"{ties} fiber elements over {c.text()} share the minimal p-length {p_len}")
    routed = route_choices(runs)
    r, p = _choice_parts(runs, routed)
    if best != routed:
        raise ContradictionError(
            f"fiber minimum {_split_text(runs, best)} differs from canonical split {_split_text(runs, routed)} "
            f"over {c.text()}"
        )
    return r, p


def _type_text(runs) -> str:
    """The text of the Jordan type with these runs, for messages."""
    return Partition([e for e, q in runs for _ in range(q)]).text()


def _split_text(runs, choices) -> str:
    """The text of the split a choice vector names, built with no check, for messages."""
    r = [e for (e, q), m in zip(runs, choices) for _ in range(m)]
    p = [e for (e, q), m in zip(runs, choices) for _ in range(q - m)]
    return f"r={Partition(r).text()};p={Partition(p).text()}"
