"""The move table of ``splits``: sound, parity-blind and never stale.

``splits._moves`` caches, per (step, state, parity, q), the moves of a
side's r-family automaton on a run of q copies of a value of that parity:
the counts m = q, q - 2, ... that leave p doubled, the engine's one count
rule, less those the side's ``_r_step`` refuses.  These tests pin what makes
the cache safe: it equals the direct composition of the rules on every
reachable state, no move leaves an odd count in p, the moves are those of
the per-side count lists the engine replaced, the fibers do not depend on a
value beyond its parity, a rule replaced after the table is warm is the one
in use, and a whole sweep needs only a small table.
"""

import tracemalloc

from weyl2uni import (GroupKind, JordanType, ORTHOGONAL, Partition, SYMPLECTIC, psi_classical, splits, type_bd,
                      type_c, verify)
from weyl2uni.partitions import iter_members

SIDES = {"C": (type_c, SYMPLECTIC), "BD": (type_bd, ORTHOGONAL)}
MAX_Q = 8


def counts(q):
    """The engine's copies to r of a run of q equal values, most first."""
    return range(q, -1, -2)


def reachable_states(side, max_q=MAX_Q):
    """Every state the side's automaton reaches from its start on runs of at most ``max_q`` copies."""
    seen = {side._R_START}
    todo = [side._R_START]
    while todo:
        state = todo.pop()
        for odd in (0, 1):
            for q in range(max_q + 1):
                for m in counts(q):
                    to = side._r_step(state, odd, m)
                    if to is not None and to not in seen:
                        seen.add(to)
                        todo.append(to)
    return seen


def direct(side, state, odd, q):
    """The moves and the cheapest move per target, composed from the rules with no table."""
    moves = []
    for m in counts(q):
        to = side._r_step(state, odd, m)
        if to is not None:
            moves.append((to, m))
    cheapest = {}
    for to, m in moves:
        cheapest[to] = max(m, cheapest.get(to, m))
    return moves, cheapest


def test_the_table_equals_the_rules_on_every_reachable_state():
    splits._moves.cache_clear()
    for name, (side, _) in SIDES.items():
        states = reachable_states(side)
        assert (len(states) == 1) if name == "C" else (1 < len(states) <= 24)
        for _ in range(2):  # a cold table, then a warm one
            for state in states:
                for odd in (0, 1):
                    for q in range(MAX_Q + 1):
                        moves, cheapest = splits._moves(side._r_step, state, odd, q)
                        want_moves, want_cheapest = direct(side, state, odd, q)
                        assert list(moves) == want_moves, (name, state, odd, q)
                        assert dict(cheapest) == want_cheapest, (name, state, odd, q)
                        assert len(cheapest) == len(want_cheapest)


def test_no_move_leaves_an_odd_count_in_p():
    # p must stay doubled (family Ptilde) on any run the table is asked
    # about, including an odd count of a value the side's family pairs,
    # where the only answer is no move at all
    for name, (side, _) in SIDES.items():
        for state in reachable_states(side, 60):
            for odd in (0, 1):
                for q in range(61):
                    moves, cheapest = splits._moves(side._r_step, state, odd, q)
                    assert all((q - m) % 2 == 0 for _, m in (*moves, *cheapest)), (name, state, odd, q)
    automaton = (type_c._R_START, type_c._r_step, type_c._r_accepts)
    assert list(splits.iter_fiber(type_c.Split, [(3, 1)], automaton)) == []
    assert splits.fiber_minimum([(3, 1)], automaton) == (None, 0, None)


# The per-side count lists that the engine's one rule replaced, kept here as
# an oracle: C sent no copy of an odd value to r, B/D 0, 1 or 2 copies of an
# odd value with p left even; both kept an even count of an even value in p.
def c_counts(odd, q):
    return [0] if odd else list(range(q, -1, -2))


def bd_counts(odd, q):
    if odd:
        return [m for m in (0, 1, 2) if m <= q and (q - m) % 2 == 0]
    return list(range(q, -1, -2))


def test_the_moves_are_those_of_the_replaced_count_lists():
    # on every key a Jordan type of the side's family reaches: a value whose
    # parity the family pairs (odd in T, even in Q) comes an even number of times
    keys = 0
    for side, listed, paired in ((type_c, c_counts, 1), (type_bd, bd_counts, 0)):
        for state in reachable_states(side, 60):
            for odd in (0, 1):
                for q in range(0, 61, 2 if odd == paired else 1):
                    want = {(to, m) for m in listed(odd, q) if (to := side._r_step(state, odd, m)) is not None}
                    assert set(splits._moves(side._r_step, state, odd, q)[0]) == want, (side, state, odd, q)
                    keys += 1
    assert keys == 92 + 460


def raised(c: Partition) -> Partition:
    return Partition([v + 2 for v in c.parts])


def choice_vectors(side, c: Partition):
    """Per listed split, how many copies of each value of c went to r, in listing order."""
    values = [e for e, q in c.runs()]
    return [tuple(x.r.parts.count(v) for v in values) for x in side.iter_fiber(c)]


def test_raising_every_part_by_two_changes_no_listing_and_no_minimum():
    # independent of the table: the rules read parities only, and adding 2
    # to every part keeps each parity and the order of the values
    seen = 0
    for side, family in SIDES.values():
        for nu in range(17):
            for c in iter_members(nu, family):
                up = raised(c)
                assert choice_vectors(side, up) == choice_vectors(side, c), c.text()
                assert side.fiber_minimum(up)[:2] == side.fiber_minimum(c)[:2], c.text()
                seen += 1
    assert seen > 500


def test_a_rule_replaced_after_the_table_is_warm_is_the_one_in_use(monkeypatch):
    c = Partition([5, 3, 3, 1, 1])
    want, least = type_bd.fiber(c), type_bd.fiber_minimum(c)  # the table is warm
    original = type_bd._r_step
    calls = 0

    def strict(state, odd, m):  # too strict: never two copies to r
        nonlocal calls
        calls += 1
        return None if m == 2 else original(state, odd, m)

    monkeypatch.setattr(type_bd, "_r_step", strict)
    assert type_bd.fiber(c) != want and type_bd.fiber_minimum(c) != least
    assert calls > 0
    calls = 0
    assert type_bd.fiber(c) != want and type_bd.fiber_minimum(c) != least
    assert calls == 0  # warm for the replaced rule too
    monkeypatch.setattr(type_bd, "_r_step", original)
    assert type_bd.fiber(c) == want and type_bd.fiber_minimum(c) == least


def test_a_whole_sweep_needs_a_small_table():
    splits._moves.cache_clear()
    assert verify.run_all(verify.SweepConfig(max_nu=30, max_rank=7)).passed
    assert 0 < splits._moves.cache_info().currsize <= 200


def test_the_table_stays_bounded():
    assert splits._moves.cache_info().maxsize == 4096
    splits._moves.cache_clear()
    for state in range(5000):  # C's step keeps any state: cheap distinct keys
        splits._moves(type_c._r_step, state, 1, 2)
    assert splits._moves.cache_info().currsize == 4096
    assert list(splits._moves(type_c._r_step, 0, 0, 4)[0]) == [(0, 4), (0, 2), (0, 0)]


def test_long_runs_are_listed_afresh_with_the_same_moves():
    # above a fixed count of copies the table keeps no move tuple, only the
    # cheapest moves; the listing it hands the walk must still be the rules'
    for name, (side, _) in SIDES.items():
        for state in reachable_states(side):
            for odd in (0, 1):
                for q in (63, 64, 65, 66, 200, 201):
                    moves, cheapest = splits._moves(side._r_step, state, odd, q)
                    want_moves, want_cheapest = direct(side, state, odd, q)
                    for _ in range(2):  # a listing can be read again
                        assert list(moves) == want_moves, (name, state, odd, q)
                    assert dict(cheapest) == want_cheapest, (name, state, odd, q)


def test_the_table_is_bounded_by_the_moves_it_holds():
    # a run of q copies offers q // 2 + 1 moves: kept per key, 50 runs of
    # 2,000 to 3,000 copies held about 6 MB, and 4,096 such keys gigabytes
    splits._moves.cache_clear()
    tracemalloc.start()
    try:
        for q in range(2000, 3000, 20):
            psi_classical(JordanType(Partition([2] * q), -1), GroupKind("C", q))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert splits._moves.cache_info().currsize == 50
    assert held < 500_000
