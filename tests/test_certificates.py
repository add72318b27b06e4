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
    weyl,
)
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
    "splits": {"iter_fiber", "fiber_minimum"},
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
        # psi: minimal_split tests the Jordan type at entry and the routed
        # split (its fiber minimum is built trusted), and on B/D the round
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
    monkeypatch.setattr(type_bd, "_r_counts", lambda e, q: list(range(q, -1, -1)))
    with pytest.raises(ContradictionError, match="not a split"):
        for j, g in _all_types(12):
            if g.series != "C":
                type_bd.fiber_minimum(j.parts)


def _forged_minima(monkeypatch, **mutations):
    """The B/D types of total <= 12 whose trusted DP argmin leaves a family, under mutations."""
    for name, value in mutations.items():
        monkeypatch.setattr(type_bd, name, value)
    automaton = (type_bd._R_START, type_bd._r_step, type_bd._r_accepts)
    out = []
    for j, g in _all_types(12):
        if g.series == "C":
            continue
        runs = list(j.parts.multiplicities().items())
        _, _, x = splits.fiber_minimum(type_bd.Split, runs, type_bd._r_counts, automaton, trusted=True)
        if x is not None and not (is_member(x.r, "R") and is_member(x.p, DOUBLED)):
            out.append((j, g))
    return out


@pytest.mark.parametrize(
    "mutations",
    [
        # odd counts of a value left in p: p undoubled
        {"_r_counts": lambda e, q: list(range(q, -1, -1))},
        # an automaton that accepts every r: r outside family R
        {"_r_step": lambda state, e, m: state, "_r_accepts": lambda state: True},
    ],
    ids=["p-undoubled", "r-outside-R"],
)
def test_a_trusted_dp_argmin_outside_its_families_is_caught_by_the_dual_route(monkeypatch, mutations):
    # minimal_split builds the DP argmin trusted: comparing it with the
    # validated canonical split (or finding it tied) is what rejects it
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
def test_lost_parts_in_canonical_split_are_caught_by_the_merge_check(side):
    # canonical_split compares merge(r, p) with c instead of testing the
    # merged type for its family again: a routing that drops the smallest
    # value still fails
    class Lossy(Partition):
        __slots__ = ()

        @property
        def parts(self):
            return tuple(v for v in self if v != self[-1])

        def multiplicities(self):
            out = super().multiplicities()
            out.popitem()
            return out

    with pytest.raises(ContradictionError, match="does not merge back"):
        side.canonical_split(Lossy([5, 5, 3, 3]))


@pytest.mark.parametrize(
    "side, r_family, bad_counts",
    [
        # an odd value sent to r, or an odd count of an even value left in p
        (type_c, "S", lambda e, q: list(range(q, -1, -1))),
        (type_bd, "R", lambda e, q: list(range(q, -1, -1))),
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
