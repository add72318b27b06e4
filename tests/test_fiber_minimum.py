"""The polynomial fiber minimum behind minimal_split, against brute force.

``fiber_minimum`` in type_c (per-value argmin) and type_bd (family-R dynamic
program) must agree with the position-blind oracle of conftest on the
minimal p-length and on how many splits reach it, and ``minimal_split`` must
keep its guards: an empty fiber, a tied minimum or a disagreement with the
canonical split all raise ContradictionError.
"""

import pytest
from hypothesis import given, settings, strategies as st

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
)
from weyl2uni import type_bd, type_c
from weyl2uni.weyl import GroupKind, JordanType, phi_classical, psi_classical

ENGINES = {
    "C": (type_c, SYMPLECTIC, ALL_EVEN),
    "B": (type_bd, ORTHOGONAL, CHAINED),
    "D": (type_bd, ORTHOGONAL, CHAINED),
}


def oracle_minimum(c: Partition, r_family) -> tuple[int, int]:
    """(least p-length, number of splits reaching it) over the brute fiber."""
    lengths = [len(p) for _, p in brute_fiber(c, r_family, DOUBLED)]
    least = min(lengths)
    return least, lengths.count(least)


def jordan_types(series: str, max_nu: int):
    """Every Jordan type of the series with total size <= max_nu."""
    _, family, _ = ENGINES[series]
    parity = {"B": 1, "C": 0, "D": 0}[series]
    for nu in range(parity, max_nu + 1, 2):
        for c in iter_partitions(nu):
            if is_member(c, family):
                yield c


@pytest.mark.parametrize("series", ["B", "C", "D"])
def test_matches_brute_fiber_exhaustively(series):
    module, _, r_family = ENGINES[series]
    seen = 0
    for c in jordan_types(series, 20):
        least, ties, best = module.fiber_minimum(c)
        assert (least, ties) == oracle_minimum(c, r_family), c.text()
        assert len(best.p) == least and module.combine(best) == c
        seen += 1
    assert seen > 100


@st.composite
def repeated_types(draw, series: str) -> Partition:
    """A Jordan type with 1-8 distinct values, each occurring at least twice.

    Every value occurs twice except up to two that occur 3 or 4 times, which
    keeps the brute fiber at a few thousand candidates.
    """
    values = sorted(draw(st.sets(st.integers(1, 30), min_size=1, max_size=8)))
    more = draw(st.sets(st.sampled_from(values), max_size=2))
    parts: list[int] = []
    for v in values:
        # the series' constrained parity must occur an even number of times
        constrained = v % 2 == (1 if series == "C" else 0)
        q = 2
        if v in more:
            q = 4 if constrained else draw(st.sampled_from((3, 4)))
        parts += [v] * q
    return Partition(parts)


# the orthogonal draws have odd and even totals, so "D" stands for B too
@pytest.mark.parametrize("series", ["C", "D"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_matches_brute_fiber_on_random_types(series, data):
    module, _, r_family = ENGINES[series]
    c = data.draw(repeated_types(series))
    least, ties, best = module.fiber_minimum(c)
    assert (least, ties) == oracle_minimum(c, r_family)
    assert best == module.minimal_split(c)


@pytest.mark.parametrize(
    "module, parts",
    [
        (type_c, [4, 4, 3, 3, 2]),
        (type_c, [3, 3, 1, 1]),
        (type_bd, [5, 3, 2, 2]),
        (type_bd, [3, 3, 1, 1]),
    ],
)
def test_minimum_never_consults_the_routing(module, parts, monkeypatch):
    # the second route must stay independent of the closed-form one
    def forbidden(*args):
        raise AssertionError("fiber_minimum consulted the routing rules")

    monkeypatch.setattr(module, "canonical_split", forbidden)
    monkeypatch.setattr(type_bd, "_star", forbidden)
    assert module.fiber_minimum(Partition(parts))[1] == 1


@pytest.mark.parametrize("module", [type_c, type_bd], ids=["C", "BD"])
def test_empty_fiber_reports_contradiction(module, monkeypatch):
    monkeypatch.setattr(module, "fiber_minimum", lambda c: (None, 0, None))
    with pytest.raises(ContradictionError, match="empty fiber"):
        module.minimal_split(Partition([3, 3, 1, 1]))


@pytest.mark.parametrize("module", [type_c, type_bd], ids=["C", "BD"])
def test_tied_minimum_reports_contradiction(module, monkeypatch):
    monkeypatch.setattr(module, "fiber_minimum", lambda c: (2, 2, None))
    with pytest.raises(ContradictionError, match="share the minimal p-length"):
        module.minimal_split(Partition([3, 3, 1, 1]))


def staircase(series: str, k: int) -> Partition:
    """C: 2k,2k,...,2,2.  B/D: 2k-1,2k-1,...,1,1.  Each has 2^k fiber candidates."""
    shift = 0 if series == "C" else 1
    return Partition([v for i in range(1, k + 1) for v in (2 * i - shift,) * 2])


@pytest.mark.parametrize("series", ["C", "D"])
def test_deep_staircase_is_answered_without_enumeration(series):
    # k=40 would mean 2^40 candidate splits for a fiber scan
    module, _, _ = ENGINES[series]
    c = staircase(series, 40)
    j = JordanType(c, -1 if series == "C" else 1)
    g = GroupKind(series, c.size // 2)
    assert c.size == (3280 if series == "C" else 3200)
    w = psi_classical(j, g)
    assert module.minimal_split(c) == module.canonical_split(c)
    assert phi_classical(w, g).parts == c
