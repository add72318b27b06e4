"""Checked splits and Jordan types are certificates.

A ``Split`` or ``JordanType`` built by its public constructor
has been tested for its families, so the functions of the phi/psi round trip
do not test the same fact again.  These tests pin that contract: the trusted
``_trusted`` constructors are reached only from an allowlist and only ever
certify true facts, the family tests per call are counted, and for every
re-check that was dropped a seeded mutation is caught by the check or test
that survives.
"""

import ast
import pathlib
import sys
from collections import Counter

import pytest

from conftest import brute_fiber, uses_by_function
from weyl2uni import (
    ContradictionError,
    DOUBLED,
    DomainError,
    Partition,
    is_member,
    iter_partitions,
    partitions,
    splits,
    type_bd,
    type_c,
    verify,
    weyl,
)
from weyl2uni.partitions import iter_members
from weyl2uni.weyl import (
    GroupKind,
    JordanType,
    SignedCycleType,
    enumerate_classes,
    iter_jordan_types,
    phi_classical,
    psi_classical,
)

# The only functions of src/weyl2uni allowed to call the trusted split
# constructor ``splits.Split._trusted``: each builds a split whose families
# its own derivation guarantees.
TRUSTED_SPLIT_CALLERS = {
    "splits": {"iter_fiber"},
    "weyl": {"encode_class"},
}

SMALL_GROUPS = [GroupKind(s, n) for s in "BCD" for n in range(1, 11)
                if (s, n) != ("D", 1) and GroupKind(s, n).nu <= 20]


def P(*parts):
    return Partition(parts)


def W(pos, neg):
    return SignedCycleType(Partition(pos), Partition(neg))


def test_only_allowlisted_functions_use_the_trusted_split_constructors():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "weyl2uni"
    found = {}
    for path in sorted(src.glob("*.py")):
        uses = uses_by_function(ast.parse(path.read_text(), str(path)), "_trusted")
        if uses:
            found[path.stem] = uses
    assert found == TRUSTED_SPLIT_CALLERS


def test_trusted_splits_certify_only_true_facts(monkeypatch):
    # every trusted split built on the psi, phi and fiber paths, over every
    # B/C/D Jordan type with nu <= 20, satisfies the families it certifies
    def answers():
        out = []
        for g in SMALL_GROUPS:
            fiber = type_c.fiber if g.series == "C" else type_bd.fiber
            for j in iter_jordan_types(g):
                w = psi_classical(j, g)
                out.append((w, phi_classical(w, g), fiber(j.parts)))
        return out

    want = answers()
    split_trusted = splits.Split.__dict__["_trusted"].__func__
    callers = Counter()

    def checked_split(cls, r, p):
        assert is_member(r, cls.R_FAMILY) and is_member(p, DOUBLED), (cls, r, p)
        callers[sys._getframe(1).f_code.co_name] += 1
        return split_trusted(cls, r, p)

    monkeypatch.setattr(splits.Split, "_trusted", classmethod(checked_split))
    assert answers() == want
    assert len(want) > 1000
    assert set(callers) == {f for fs in TRUSTED_SPLIT_CALLERS.values() for f in fs}


def test_decode_class_refuses_a_wrong_side_split_and_a_bad_kappa_parity():
    # a split certifies only its own side's r-family (S for C, R for B/D)
    with pytest.raises(DomainError) as exc:
        weyl.decode_class(type_c.Split(P(2, 2), Partition()), GroupKind("D", 2))
    assert str(exc.value) == "series D decodes a type_bd.Split"
    with pytest.raises(DomainError) as exc:
        weyl.decode_class(type_bd.Split(P(3, 1), Partition()), GroupKind("C", 2))
    assert str(exc.value) == "series C decodes a type_c.Split"
    # a certified type_bd.Split still has the parity of its total checked
    # against the kappa of the group
    with pytest.raises(DomainError, match="wrong parity for kappa=0"):
        weyl.decode_class(type_bd.Split(P(3), Partition()), GroupKind("D", 2))
    with pytest.raises(DomainError, match="wrong parity for kappa=1"):
        weyl.decode_class(type_bd.Split(P(3, 1), Partition()), GroupKind("B", 2))


# ---------------------------------------------------------------------------
# Family tests per call


@pytest.fixture
def tally(monkeypatch):
    """Counts of ``is_member`` calls by family tag, over every module."""
    counts = Counter()
    original = partitions.is_member

    def counting(c, family):
        counts[family] += 1
        return original(c, family)

    for module in (partitions, splits, type_c, type_bd, weyl):
        if getattr(module, "is_member", None) is original:
            monkeypatch.setattr(module, "is_member", counting)
    return counts


@pytest.mark.parametrize(
    "series, jordan, psi_tests, phi_tests",
    [
        # psi: minimal_split tests the Jordan type at entry and the one
        # split it builds (from the routed choice vector), and on B/D the round
        # trip's blocks_from_halves tests its r; phi tests its block side
        # once and its JordanType once
        ("C", (4, 2, 1, 1), {"T": 1, "S": 1, "Ptilde": 1}, {"T": 1}),
        ("B", (5, 3, 3, 1, 1), {"Q": 1, "R": 2, "Ptilde": 1}, {"Q": 1, "R": 1}),
        ("D", (5, 3, 1, 1), {"Q": 1, "R": 2, "Ptilde": 1}, {"Q": 1, "R": 1}),
    ],
)
def test_family_tests_per_call(tally, series, jordan, psi_tests, phi_tests):
    g = GroupKind(series, sum(jordan) // 2)
    j = JordanType(Partition(jordan), g.epsilon)
    tally.clear()
    w = psi_classical(j, g)
    assert dict(tally) == psi_tests
    tally.clear()
    assert phi_classical(w, g).parts == j.parts
    assert dict(tally) == phi_tests


@pytest.mark.parametrize(
    "side, family, r_family",
    [(type_c, "T", "S"), (type_bd, "Q", "R")],
    ids=["C", "BD"],
)
def test_the_unique_minimum_scan_checks_each_fact_once(tally, monkeypatch, side, family, r_family):
    # per Jordan type: one test of c's family, one validated routing (one
    # r-family and one Ptilde test) and one r-family test per listed split
    original = side._route_choices
    routes = 0

    def counting_route(runs):
        nonlocal routes
        routes += 1
        return original(runs)

    monkeypatch.setattr(side, "_route_choices", counting_route)
    seen = 0
    for nu in range(1, 17):
        for c in iter_members(nu, family):
            listed = len(side.fiber(c))
            tally.clear()
            routes = 0
            assert verify._scan_unique_minimum(side, c) is None
            assert routes == 1, c.text()
            assert dict(tally) == {family: 1, r_family: 1 + listed, DOUBLED: 1}, c.text()
            seen += 1
    assert seen > 200


# ---------------------------------------------------------------------------
# Each dropped re-check: a seeded fault is caught by what survives


def _all_types(max_nu):
    return [(j, g) for g in SMALL_GROUPS if g.nu <= max_nu for j in iter_jordan_types(g)]


def test_decode_family_r_is_implied_by_the_inversion_check():
    # decode_class does not test r of a type_bd.Split for family R; if an r
    # outside R ever skipped that test, rebuilding the blocks from the
    # halves fails instead, for every such r up to total 12.  The group only
    # supplies kappa: the halving fails before any rank check
    seen = 0
    for n in range(1, 13):
        g = GroupKind("B" if n % 2 else "D", 2)
        for r in iter_partitions(n):
            if is_member(r, "R"):
                continue
            forged = type_bd.Split._trusted(r, Partition())
            with pytest.raises(ContradictionError):
                weyl.decode_class(forged, g)
            seen += 1
    assert seen > 200


def test_a_zero_half_is_caught_by_the_rebuild_check():
    # _halves_of_chained tests no half for 0: only a block 1 at an odd
    # position halves to 0, and the rebuild of such halves never equals
    # the input.  Its callers hand it members of family R, where this
    # cannot happen; here any partition of the right total parity does
    seen = 0
    for n in range(1, 15):
        for blocks in iter_partitions(n):
            kappa = n % 2
            ps = blocks.parts[:-1] if blocks.parts[-1] == kappa else blocks.parts
            halves = [(v + i % 2) // 2 for i, v in enumerate(ps)]
            if 0 not in halves:
                continue
            decreasing = halves == sorted(halves, reverse=True)
            with pytest.raises(ContradictionError, match="does not invert" if decreasing else "not decreasing"):
                type_bd._halves_of_chained(blocks, kappa)
            seen += decreasing
    assert seen > 50


def test_a_lost_trailing_block_is_caught_only_by_the_total_check(monkeypatch):
    # without its appended 1, the block list stays decreasing and in
    # family R: only the total test of blocks_from_halves rejects it
    original = type_bd._raw_blocks
    monkeypatch.setattr(type_bd, "_raw_blocks", lambda hs, kappa: original(hs, kappa)[: len(hs)])
    seen = 0
    for n in range(1, 13):
        for halves in iter_partitions(n):
            if len(halves) % 2:
                continue  # kappa=1 appends a 1 to an even number of halves only
            out = type_bd._raw_blocks(halves.parts, 1)
            assert list(out) == sorted(out, reverse=True) and is_member(Partition(out), "R")
            with pytest.raises(ContradictionError, match="block total"):
                type_bd.blocks_from_halves(halves, 1)
            seen += 1
    assert seen > 50


def _fuse_last_pair(p):
    """p with its last pair v, v fused into one part 2v: same total, not doubled."""
    return Partition(p.parts[:-2] + (2 * p.parts[-1],))


@pytest.mark.parametrize("series", ["B", "C", "D"])
def test_undoubled_p_reaching_decode_is_caught_by_the_rank_check(monkeypatch, series):
    # decode_class does not test p for family Ptilde.  An undoubled p of
    # the right total has its odd positions summing to more than half of
    # it, so decode_class's rank check fails instead
    side = type_c if series == "C" else type_bd
    original = side.minimal_split

    def forged(c):
        x = original(c)
        return side.Split._trusted(x.r, _fuse_last_pair(x.p)) if x.p else x

    monkeypatch.setattr(side, "minimal_split", forged)
    caught = 0
    for j, g in _all_types(12):
        if g.series != series or is_member(j.parts, "S" if series == "C" else "R"):
            continue  # p is empty: nothing to forge
        with pytest.raises(DomainError, match="has rank"):
            psi_classical(j, g)
        caught += 1
    assert caught > 20


def test_bad_p_counts_in_the_dp_are_caught_by_the_split_test(monkeypatch):
    # the public fiber minimum still builds its argmin with the validating Split
    monkeypatch.setattr(type_bd, "_r_counts", lambda odd, q: list(range(q, -1, -1)))
    with pytest.raises(ContradictionError, match="not a split"):
        for j, g in _all_types(12):
            if g.series != "C":
                type_bd.fiber_minimum(j.parts)


def _forged_minima(monkeypatch, **mutations):
    """The B/D types of total <= 12 whose DP argmin leaves a family, under mutations."""
    for name, value in mutations.items():
        monkeypatch.setattr(type_bd, name, value)
    automaton = (type_bd._R_START, type_bd._r_step, type_bd._r_accepts)
    out = []
    for j, g in _all_types(12):
        if g.series == "C":
            continue
        runs = j.parts.runs()
        _, _, choices = splits.fiber_minimum(runs, type_bd._r_counts, automaton)
        if choices is None:
            continue
        r = Partition([e for (e, q), m in zip(runs, choices) for _ in range(m)])
        p = Partition([e for (e, q), m in zip(runs, choices) for _ in range(q - m)])
        if not (is_member(r, "R") and is_member(p, DOUBLED)):
            out.append((j, g))
    return out


@pytest.mark.parametrize(
    "mutations",
    [
        # odd counts of a value left in p: p undoubled
        {"_r_counts": lambda odd, q: list(range(q, -1, -1))},
        # an automaton that accepts every r: r outside family R
        {"_r_step": lambda state, odd, m: state, "_r_accepts": lambda state: True},
    ],
    ids=["p-undoubled", "r-outside-R"],
)
def test_a_trusted_dp_argmin_outside_its_families_is_caught_by_the_dual_route(monkeypatch, mutations):
    # minimal_split builds no split from the DP argmin: comparing its choice
    # vector with the routed one (or finding it tied) is what rejects it
    forged = _forged_minima(monkeypatch, **mutations)
    assert len(forged) > 20
    for j, g in forged:
        with pytest.raises(ContradictionError, match="differs from canonical split|share the minimal"):
            psi_classical(j, g)


def test_undoubled_p_from_encode_is_caught_by_the_round_trip(monkeypatch):
    # encode_class builds its splits trusted: p doubled by double_parts
    types = [(j, g) for j, g in _all_types(12) if psi_classical(j, g).positive]
    monkeypatch.setattr(weyl, "double_parts", lambda a: a)
    for j, g in types:
        # the merged type has the wrong total: the round trip rejects it
        with pytest.raises(ContradictionError, match="does not round-trip"):
            psi_classical(j, g)
    assert len(types) > 100


@pytest.mark.parametrize("series", ["B", "C", "D"])
def test_merged_type_outside_its_family_is_caught_by_the_psi_round_trip(monkeypatch, series):
    # psi's round trip builds no JordanType: comparing the merged type with
    # the certified parts of j stands in for its family test
    family = "T" if series == "C" else "Q"

    def outside(a, b):
        return next((c for c in iter_partitions(sum(a) + sum(b)) if not is_member(c, family)), None)

    types = [(j, g) for j, g in _all_types(12) if g.series == series and outside(j.parts, ())]
    monkeypatch.setattr(weyl, "merge", outside)
    for j, g in types:
        with pytest.raises(ContradictionError, match="does not round-trip"):
            psi_classical(j, g)
    assert len(types) > 20


def test_odd_halves_from_encode_are_caught_by_blocks_from_halves(monkeypatch):
    # encode_class relies on _check_class for family P0 at kappa=0
    original = weyl._check_class

    def no_d_rule(w, g):
        original(w, GroupKind("B", g.rank))

    monkeypatch.setattr(weyl, "_check_class", no_d_rule)
    with pytest.raises(DomainError) as exc:
        phi_classical(W([], [3]), GroupKind("D", 3))
    assert str(exc.value) == "kappa=0 requires an even number of halves (family P0)"


def test_blocks_outside_family_r_are_caught_by_blocks_from_halves(monkeypatch):
    # encode_class builds its B/D Split trusted: blocks_from_halves tests r
    monkeypatch.setattr(type_bd, "_raw_blocks", lambda hs, kappa: tuple(2 * v for v in hs) + (1,) * kappa)
    g = GroupKind("B", 3)
    with pytest.raises(ContradictionError, match="left family R"):
        for w in enumerate_classes(g):
            phi_classical(w, g)


@pytest.mark.parametrize("series", ["B", "C"])
def test_merged_type_outside_its_family_is_caught_by_jordan_type(monkeypatch, series):
    # phi_classical merges without a family test of its own: JordanType tests it
    monkeypatch.setattr(weyl, "merge", lambda a, b: P(4, 3, 2, 1))
    family = "family T" if series == "C" else "family Q"
    with pytest.raises(DomainError, match=family):
        phi_classical(W([1], [1]), GroupKind(series, 2))


@pytest.mark.parametrize("side", [type_c, type_bd])
def test_lost_parts_in_canonical_split_are_caught_by_the_merge_check(side, monkeypatch):
    # a split is built from c's own runs, so it merges back to c exactly
    # when the choice vector has one count per run, each within 0..q: a
    # routing that drops the smallest value fails instead of losing parts
    original = side._route_choices
    monkeypatch.setattr(side, "_route_choices", lambda runs: original(runs)[:-1])
    for build in (side.canonical_split, side.minimal_split):
        with pytest.raises(ContradictionError, match="do not merge back"):
            build(P(5, 5, 3, 3))


@pytest.mark.parametrize("bad", [lambda q: q + 1, lambda q: -1], ids=["m>q", "m<0"])
@pytest.mark.parametrize("series", ["C", "D"])
def test_a_routed_count_outside_its_run_is_a_contradiction(monkeypatch, series, bad):
    # a count above q takes copies c does not have, one below 0 hands p
    # copies c does not have: the builder refuses both, before any family
    # test, for canonical_split, minimal_split and the unique-minimum scan
    side = type_c if series == "C" else type_bd
    original = side._route_choices

    def routed(runs):
        return (bad(runs[0][1]),) + original(runs)[1:] if runs else ()

    monkeypatch.setattr(side, "_route_choices", routed)
    for build in (side.canonical_split, side.minimal_split):
        with pytest.raises(ContradictionError, match=r"choices \((3|-1), 0\) over 4,4,3,3 do not merge back"):
            build(P(4, 4, 3, 3))
    scan, bridge = verify.run_all(verify.SweepConfig(series=(series,), max_nu=8, max_rank=2)).checks
    assert (scan.name, bridge.name, bridge.passed) == (f"unique_minimum[{series}]", f"fixed_space_bridge[{series}]", True)
    # every type but the empty one, which has no run to route (D skips it as very even)
    assert len(scan.counterexamples) == scan.scanned - (series == "C") > 10
    assert all(ce["error"].endswith("do not merge back") for ce in scan.counterexamples)


@pytest.mark.parametrize(
    "side, c, forged, dp, routed",
    [
        (type_c, P(4, 4, 3, 3), (0, 0), "r=-;p=4,4,3,3", "r=4,4;p=3,3"),
        (type_bd, P(5, 3, 3, 1), (1, 0, 1), "r=5,1;p=3,3", "r=5,3,3,1;p=-"),
    ],
    ids=["C", "BD"],
)
def test_a_dp_vector_unlike_the_routed_one_names_both_splits(monkeypatch, side, c, forged, dp, routed):
    monkeypatch.setattr(splits, "fiber_minimum", lambda runs, r_counts, automaton: (4, 1, forged))
    with pytest.raises(ContradictionError) as exc:
        side.minimal_split(c)
    assert str(exc.value) == f"fiber minimum {dp} differs from canonical split {routed} over {c.text()}"


@pytest.mark.parametrize(
    "side, r_family, bad_counts",
    [
        # an odd value sent to r, or an odd count of an even value left in p
        (type_c, "S", lambda odd, q: list(range(q, -1, -1))),
        (type_bd, "R", lambda odd, q: list(range(q, -1, -1))),
    ],
)
def test_bad_choices_in_iter_fiber_are_caught_by_the_brute_oracle(
    monkeypatch, side, r_family, bad_counts
):
    # iter_fiber builds its splits trusted: the B/D automaton admits only r
    # in family R, and the side's _r_counts guarantees the rest; the
    # brute-force fiber catches a wrong _r_counts
    c = P(4, 4, 3, 3, 2, 2, 1, 1)
    want = brute_fiber(c, r_family, DOUBLED)
    assert {(x.r.parts, x.p.parts) for x in side.iter_fiber(c)} == want
    monkeypatch.setattr(side, "_r_counts", bad_counts)
    assert {(x.r.parts, x.p.parts) for x in side.iter_fiber(c)} != want
