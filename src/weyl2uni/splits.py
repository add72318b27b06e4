"""The split engine shared by series C and series B/D.

A split of a Jordan type c is a pair (r, p) that merges back to c, with p
doubled (family Ptilde) and r in the side's r-family: S (all even) for C, R
(chained) for B and D.  Over the runs (e, q) of c, largest value first
(``Partition.runs()``), a split is a choice vector: per run, the number m of
copies that go to r.  Each side reads its r-family with a finite automaton
over the runs (one state for S, at most 24 for R) through one move table,
the cache of ``_moves``.  This module holds the machinery once: ``Split``
and its validated builder ``Split.from_choices``, the one fiber walk
``walk`` and its listings ``iter_fiber`` and ``fiber``, the dynamic program
``fiber_minimum`` and the dual-route guard ``minimal_split``.  The sides
``type_c`` and ``type_bd``, which ``weyl.SIDES`` picks per series, keep only
their rules: ``FAMILY``, a ``Split`` subclass, ``_r_counts``, the automaton
and the routing ``_route_choices``.  The two routes of ``minimal_split``
meet as choice vectors, and its answer is built once, from the routed one.

The checks, per call.  A ``Split`` is a certificate: its public constructor
tests r for the r-family and p for family Ptilde, so no function handed one
tests either again; only ``iter_fiber`` and ``weyl.encode_class``, whose
derivations guarantee both, use the trusted ``Split._trusted``.
``from_choices`` builds from c's own runs, so r and p merge back to c
exactly when the vector has one m in 0..q per run, which it checks
(ContradictionError) instead of re-sorting r + p.  Each public function of
a side tests c for its ``FAMILY``, T (C) or Q (B/D), once, at entry, by
``check_jordan``, and nothing else in here tests it again.  Then:

* ``canonical_split`` builds the routed vector: one r-family and one
  Ptilde test.
* ``minimal_split`` adds the dynamic program, which tests nothing, and
  compares its vector with the routed one before building the latter.  A
  ``weyl.psi_classical`` call adds its round trip, where on B/D
  ``blocks_from_halves`` tests r for family R: a C ``psi`` tests T, S and
  Ptilde once each, a B/D ``psi`` tests Q and Ptilde once and R twice.
* The scan of ``verify`` (``_claim_and_walk``) builds the routed split and
  reads ``walk`` itself, which tests each r it lists for the r-family once:
  the scan compares (r, p-length) and builds no ``Split`` per element.
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
        Only ``iter_fiber`` and ``weyl.encode_class`` call it, an allowlist
        that ``tests/test_certificates.py`` checks by scanning the source.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)
        return self

    @classmethod
    def from_choices(cls, runs, choices) -> "Split":
        """The split sending m copies of each run (e, q) of c to r and q - m to p, validated.

        ``runs`` are c's own runs, largest value first.  A vector that does
        not merge back to c (not one m in 0..q per run) is a ContradictionError.
        """
        if len(choices) == len(runs):
            r = p = ()
            for (e, q), m in zip(runs, choices):
                if not 0 <= m <= q:
                    break
                r += (e,) * m
                p += (e,) * (q - m)
            else:  # both sides are sub-sequences of c: already sorted
                return cls(Partition._from_sorted(r), Partition._from_sorted(p))
        raise ContradictionError(f"choices {tuple(choices)} over {_type_text(runs)} do not merge back")

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
    other move into that target reaches a minimum or a tie at it.  The key
    fixes the moves, as the rules read a value only through its parity, and
    a rule replaced later is a new key.  The cache holds at most 4,096
    keys, evicting the least recently used, each with q + 1 moves at most.
    """
    moves = tuple([(to, m) for m in r_counts(odd, q) if (to := step(state, odd, m)) is not None])
    # by m ascending, so the dict keeps the largest m per target
    return moves, tuple(dict(sorted(moves, key=lambda move: move[1])).items())


def walk(r_family, runs, r_counts, automaton) -> Iterator[tuple[Partition, tuple[int, ...]]]:
    """Lazily enumerate the splits over ``runs`` as (r, parts of p): the choice sequences the automaton accepts.

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

    A leaf is handed out as r, tested for ``r_family`` (an r outside it is a
    ContradictionError: automaton and family disagree), and p's parts.
    """
    start, step, accepts = automaton
    runs = runs or [(0, 0)]  # the empty type: one run of no copies, which keeps the start state
    keys = [(e % 2, q) for e, q in runs]
    last = len(runs) - 1
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
            if i < last:
                if (i + 1, to) not in dead:
                    moves = _moves(r_counts, step, to, *keys[i + 1])[0]
                    frames.append((to, r + (e,) * m, p + (e,) * (q - m), iter(moves), listed))
                    break
            elif accepts(to):
                listed += 1
                x, y = Partition._from_sorted(r + (e,) * m), p + (e,) * (q - m)
                if not is_member(x, r_family):
                    raise ContradictionError(f"fiber walk over {merge(x, Partition(y)).text()} accepted "
                                             f"r={x.text()} outside family {r_family}")
                yield x, y
        else:
            frames.pop()
            if listed == listed_before:
                dead.add((i, state))


def iter_fiber(split_cls, runs, r_counts, automaton) -> Iterator[Split]:
    """The leaves of ``walk`` over ``runs``, in its order, each as a trusted ``split_cls``."""
    for r, p in walk(split_cls.R_FAMILY, runs, r_counts, automaton):
        yield split_cls._trusted(r, Partition._from_sorted(p))


def fiber_minimum(runs, r_counts, automaton) -> tuple[int | None, int, tuple[int, ...] | None]:
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
            cheapest = _moves(r_counts, step, state, e % 2, q)[1]
            if len(cheapest) == 1:
                [(state, m)] = cheapest
                p_len, path = p_len + q - m, path + (m,)
                continue
            layer = {state: (p_len, ways, path)}
        nxt: dict[object, tuple] = {}
        for state, (p_len, ways, path) in layer.items():
            for to, m in _moves(r_counts, step, state, e % 2, q)[1]:
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
    if layer is None:
        layer = {state: (p_len, ways, path)}
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


def least_split(split_cls, runs, r_counts, automaton) -> tuple[int | None, int, Split | None]:
    """``fiber_minimum`` with its unique minimiser built by ``from_choices``; a refusal is a ContradictionError."""
    p_len, ties, best = fiber_minimum(runs, r_counts, automaton)
    if best is None:
        return p_len, ties, None
    try:
        return p_len, ties, split_cls.from_choices(runs, best)
    except DomainError as exc:
        raise ContradictionError(f"fiber minimum over {_type_text(runs)} is not a split: {exc}") from None


def fiber(xs: Iterable[Split]) -> list[Split]:
    """The splits of a listing, minimal p-length first, deterministically ordered (C: 2^k over 2k,2k,...,2,2)."""
    return sorted(xs, key=lambda x: (len(x.p), x.p, x.r))


def minimal_split(split_cls, c: Partition, runs, r_counts, automaton, route_choices) -> Split:
    """The unique split of c minimizing the number of parts of p.

    The caller has tested c and counted its ``runs`` once, for both routes:
    the minimum of ``fiber_minimum`` must exist, be unique and have the
    choice vector ``route_choices(runs)`` of the closed-form routing, else
    ContradictionError (none can happen; this is the point being verified).
    The answer is built once, validated, from that vector.
    """
    p_len, ties, best = fiber_minimum(runs, r_counts, automaton)
    if p_len is None:
        raise ContradictionError(f"empty fiber over {c.text()}")
    if ties != 1:
        raise ContradictionError(f"{ties} fiber elements over {c.text()} share the minimal p-length {p_len}")
    routed = route_choices(runs)
    out = split_cls.from_choices(runs, routed)
    if best != routed:
        raise ContradictionError(
            f"fiber minimum {_split_text(runs, best)} differs from canonical split {out.text()} over {c.text()}"
        )
    return out


def _type_text(runs) -> str:
    """The text of the Jordan type with these runs, for messages."""
    return Partition([e for e, q in runs for _ in range(q)]).text()


def _split_text(runs, choices) -> str:
    """The text of the split a choice vector names, built with no check, for messages."""
    r = [e for (e, q), m in zip(runs, choices) for _ in range(m)]
    p = [e for (e, q), m in zip(runs, choices) for _ in range(q - m)]
    return f"r={Partition(r).text()};p={Partition(p).text()}"
