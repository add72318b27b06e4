"""Both fiber listings walk their side's r-family automaton.

``splits.iter_fiber`` lists only the choice sequences the automaton
(``_R_START``, ``_r_step``, ``_r_accepts`` of ``type_bd`` for family R, of
``type_c`` for family S) accepts, pruning dead states, instead of filtering
the product of the engine's counts: per run of q equal values, m = q,
q - 2, ... copies to r, each leaving p doubled.  These tests pin what the
walk must keep: the same splits in the same order as the product (filtered
by family R for B/D; for C, the product of the counts family S admits per
value is all splits), a total over each rank that equals the class count of
the Weyl group, work bounded by the counts times the output on inputs whose
product is astronomically large, and a per-r family guard that turns a
wrong automaton into a ContradictionError.
"""

import contextlib
import itertools

import pytest

from conftest import brute_fiber
from weyl2uni import (
    ALL_EVEN,
    CHAINED,
    ContradictionError,
    DOUBLED,
    ORTHOGONAL,
    Partition,
    SYMPLECTIC,
    is_member,
    iter_partitions,
    splits,
    type_bd,
    type_c,
)
from weyl2uni.partitions import iter_members

MAX_RANK = 12


def counts(q):
    """The engine's copies to r of a run of q equal values, most first: each leaves p an even count."""
    return range(q, -1, -2)


def product(c, admits=lambda e, m: True):
    """Every combination of the counts ``admits`` keeps per value, as (r parts, p parts), in order."""
    runs = c.runs()
    out = []
    for ms in itertools.product(*([m for m in counts(q) if admits(e, m)] for e, q in runs)):
        r_parts, p_parts = [], []
        for (e, q), m in zip(runs, ms):
            r_parts += [e] * m
            p_parts += [e] * (q - m)
        out.append((tuple(r_parts), tuple(p_parts)))
    return out


def s_admits(e, m):
    """Family S, one value at a time: no copy of an odd value in r."""
    return e % 2 == 0 or m == 0


def product_and_filter(c):
    """The B/D listing before the walk: the product, kept when r is in R."""
    return [(r, p) for r, p in product(c) if is_member(Partition(r), CHAINED)]


def listing(c, module=type_bd):
    return [(x.r.parts, x.p.parts) for x in module.iter_fiber(c)]


def test_walk_lists_the_product_filter_in_its_order():
    seen = 0
    for nu in range(23):
        for c in iter_members(nu, ORTHOGONAL):
            assert listing(c) == product_and_filter(c), c.text()
            seen += 1
    assert seen > 1000


def test_c_walk_lists_the_whole_product_in_its_order():
    # family S asks nothing across values, so every combination of the
    # counts it admits per value is a split: the walk drops none
    seen = 0
    for nu in range(23):
        for c in iter_members(nu, SYMPLECTIC):
            assert listing(c, type_c) == product(c, s_admits), c.text()
            seen += 1
    assert seen == 987  # the C Jordan types of rank 0 to 11


def accepted(module, r):
    """Whether the module's automaton accepts r, fed whole runs of any multiplicity."""
    state = module._R_START
    for e, q in r.runs():
        state = module._r_step(state, e % 2, q)
        if state is None:
            return False
    return module._r_accepts(state)


def test_the_automaton_accepts_exactly_family_r():
    # fed whole runs of any multiplicity, not only the counts the engine offers
    for n in range(19):
        for r in iter_partitions(n):
            assert accepted(type_bd, r) == is_member(r, CHAINED), r.text()


def test_the_c_automaton_accepts_exactly_family_s():
    for n in range(19):
        for r in iter_partitions(n):
            assert accepted(type_c, r) == is_member(r, ALL_EVEN), r.text()


# ---------------------------------------------------------------------------
# Count identity: the fibers over a rank partition the classes of W


def _series_product(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _euler(sign):
    """Coefficients of prod_k 1/(1 - sign*x^k) up to x^MAX_RANK."""
    out = [1] + [0] * MAX_RANK
    for k in range(1, MAX_RANK + 1):
        for i in range(k, MAX_RANK + 1):
            out[i] += sign * out[i - k]
    return out


def class_counts(series):
    """Classes of W(B_n) = W(C_n) (bipartitions of n), or the W(B_n) classes in W(D_n).

    D keeps the bipartitions whose negative part has even length: partitions
    with an even number of parts have the generating function
    (prod 1/(1-x^k) + prod 1/(1+x^k)) / 2.
    """
    plain = _euler(1)
    if series in "BC":
        return _series_product(plain, plain)
    even_length = [(a + b) // 2 for a, b in zip(plain, _euler(-1))]
    return _series_product(plain, even_length)


def fiber_totals(series):
    """Sum of the fiber sizes over every Jordan type of each rank n <= MAX_RANK."""
    side, family = (type_c, SYMPLECTIC) if series == "C" else (type_bd, ORTHOGONAL)
    extra = 1 if series == "B" else 0
    return [
        sum(sum(1 for _ in side.iter_fiber(c)) for c in iter_members(2 * n + extra, family))
        for n in range(MAX_RANK + 1)
    ]


def test_class_counts_match_known_values():
    assert class_counts("B")[:7] == [1, 2, 5, 10, 20, 36, 65]
    assert class_counts("D")[:7] == [1, 1, 3, 5, 11, 18, 34]


@pytest.mark.parametrize("series", ["B", "C", "D"])
def test_fiber_sizes_add_up_to_the_class_count(series):
    assert fiber_totals(series) == class_counts(series)


# ---------------------------------------------------------------------------
# Seeded faults in the automaton


def oracle_mismatches(max_nu):
    return [
        c.text()
        for nu in range(max_nu + 1)
        for c in iter_members(nu, ORTHOGONAL)
        if set(listing(c)) != brute_fiber(c, CHAINED, DOUBLED)
    ]


def test_a_too_strict_automaton_fails_the_oracle_and_the_count(monkeypatch):
    assert oracle_mismatches(12) == []
    original = type_bd._r_step
    monkeypatch.setattr(
        type_bd, "_r_step", lambda state, odd, m: None if m == 2 else original(state, odd, m)
    )
    assert oracle_mismatches(12)
    for series in "BD":
        assert fiber_totals(series) != class_counts(series)


def candidate_count(c):
    out = 1
    for e, q in c.runs():
        out *= len(counts(q))
    return out


def test_a_too_loose_automaton_trips_the_family_r_guard(monkeypatch):
    # every step and every end accepted: the walk offers the whole product,
    # and the first r outside family R is an error, never a split or a skip
    want = {}
    for nu in range(17):
        for c in iter_members(nu, ORTHOGONAL):
            want[c] = len(product_and_filter(c)) < candidate_count(c)
    monkeypatch.setattr(type_bd, "_r_step", lambda state, odd, m: state)
    monkeypatch.setattr(type_bd, "_r_accepts", lambda state: True)
    for c, has_non_r in want.items():
        yielded = []
        guard = pytest.raises(ContradictionError, match="outside family R")
        with guard if has_non_r else contextlib.nullcontext():
            for x in type_bd.iter_fiber(c):
                yielded.append(x)
        assert all(is_member(x.r, CHAINED) for x in yielded), c.text()
    assert sum(want.values()) > 100


def test_an_odd_copy_in_r_trips_the_family_s_guard(monkeypatch):
    # the engine offers copies of each odd value to r: the family-S automaton
    # refuses them on its own, and with a step that refuses nothing the
    # per-r guard stops the first such r, never yielding it or skipping it
    types = [c for nu in range(0, 17, 2) for c in iter_members(nu, SYMPLECTIC)]
    original = type_c._r_step
    offered = set()

    def recording(state, odd, m):
        offered.add((odd, m > 0))
        return original(state, odd, m)

    monkeypatch.setattr(type_c, "_r_step", recording)
    assert [listing(c, type_c) for c in types] == [product(c, s_admits) for c in types]
    assert (1, True) in offered
    monkeypatch.setattr(type_c, "_r_step", lambda state, odd, m: state)
    tripped = 0
    for c in types:
        if any(e % 2 for e in c.parts):
            with pytest.raises(ContradictionError, match="outside family S"):
                listing(c, type_c)
            tripped += 1
        else:
            assert listing(c, type_c) == product(c)
    assert tripped > 100


# ---------------------------------------------------------------------------
# Adversarial listings: one split out of 2^20 to 2^30 candidates, or out of
# the 1,001 choices of one value


def odd_pairs(top):
    return [v for k in range(top, 0, -2) for v in (k, k)]


# name: (parts, least number of candidates)
ADVERSARIAL = {
    "D odd pairs 59,59,...,1,1": (odd_pairs(59), 2**20),
    "B odd pairs with one extra 1": (odd_pairs(59) + [1], 2**20),
    "83,81 over 20 doubled even values": (
        [83, 81] + [v for k in range(40, 0, -2) for v in (k, k)], 2**20
    ),
    "7,5,4^2000,1": ([7, 5] + [4] * 2000 + [1], 1001),
}


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_adversarial_listing_is_output_sensitive(monkeypatch, name):
    parts, least_candidates = ADVERSARIAL[name]
    c = Partition(parts)
    assert candidate_count(c) >= least_candidates
    # the walk reads each node it enters from the move table, then tries
    # every move there: per depth, the value's choices times (the one split
    # listed + at most 24 dead states), checked as the walk goes, so a walk
    # that stops pruning fails here instead of running for 2^20 nodes
    choices = sum(len(counts(q)) for e, q in c.runs())
    bound = choices * (1 + 24)
    tried = 0
    original = splits._moves

    def counting(*key):
        nonlocal tried
        hit = original(*key)
        tried += len(tuple(hit[0]))
        assert tried <= bound, "the walk tries more moves than its output allows"
        return hit

    monkeypatch.setattr(splits, "_moves", counting)
    found = type_bd.fiber(c)
    assert tried > 0
    monkeypatch.setattr(splits, "_moves", original)
    assert found == [type_bd.minimal_split(c)]
