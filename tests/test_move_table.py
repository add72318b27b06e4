"""The move table of ``splits``: sound, parity-blind and never stale.

``splits._moves`` caches, per (r_counts, step, state, parity, q), the moves
of a side's r-family automaton on a run of q copies of a value of that
parity.  These tests pin what makes the cache safe: it equals the direct
composition of the rules on every reachable state, the fibers do not depend
on a value beyond its parity, a rule replaced after the table is warm is
the one in use, and a whole sweep needs only a small table.
"""

from weyl2uni import ORTHOGONAL, Partition, SYMPLECTIC, splits, type_bd, type_c, verify
from weyl2uni.partitions import iter_members

SIDES = {"C": (type_c, SYMPLECTIC), "BD": (type_bd, ORTHOGONAL)}
MAX_Q = 8


def reachable_states(side):
    """Every state the side's automaton reaches from its start on runs of at most MAX_Q copies."""
    seen = {side._R_START}
    todo = [side._R_START]
    while todo:
        state = todo.pop()
        for odd in (0, 1):
            for q in range(MAX_Q + 1):
                for m in side._r_counts(odd, q):
                    to = side._r_step(state, odd, m)
                    if to is not None and to not in seen:
                        seen.add(to)
                        todo.append(to)
    return seen


def direct(side, state, odd, q):
    """The moves and the cheapest move per target, composed from the rules with no table."""
    moves = []
    for m in side._r_counts(odd, q):
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
                        moves, cheapest = splits._moves(side._r_counts, side._r_step, state, odd, q)
                        want_moves, want_cheapest = direct(side, state, odd, q)
                        assert list(moves) == want_moves, (name, state, odd, q)
                        assert dict(cheapest) == want_cheapest, (name, state, odd, q)
                        assert len(cheapest) == len(want_cheapest)


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
    for q in range(5000):  # an odd value has one choice: cheap distinct keys
        splits._moves(type_c._r_counts, type_c._r_step, type_c._R_START, 1, q)
    assert splits._moves.cache_info().currsize == 4096
    assert splits._moves(type_c._r_counts, type_c._r_step, 0, 0, 4)[0] == ((0, 4), (0, 2), (0, 0))
