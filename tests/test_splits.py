"""The shared split engine, seen through the two sides that use it.

``type_c`` and ``type_bd`` call ``splits`` for their public functions, so
each side must keep its own function objects (tracing and monkeypatching
rebind them per module), its own ``Split`` class and its own messages.
Each public function tests its input's family once, at entry; the bodies
it calls (the engine, the routing) do not test it again.
"""

from collections import Counter

import pytest

from weyl2uni import DomainError, ORTHOGONAL, Partition, SYMPLECTIC, partitions, splits, type_bd, type_c

PUBLIC = ("Split", "canonical_split", "iter_fiber", "fiber", "fiber_minimum", "minimal_split")


def P(*parts):
    return Partition(parts)


@pytest.mark.parametrize("name", PUBLIC)
def test_each_side_keeps_its_own_public_names(name):
    assert getattr(type_c, name) is not getattr(type_bd, name)


def test_splits_of_different_sides_never_compare_equal():
    # (r empty, p = 2,2) is a split on both sides
    c_split, bd_split = type_c.Split(Partition(), P(2, 2)), type_bd.Split(Partition(), P(2, 2))
    assert c_split.text() == bd_split.text()
    assert c_split != bd_split and len({c_split, bd_split}) == 2
    assert type_c.Split(Partition(), P(2, 2)) == c_split
    with pytest.raises(AttributeError):
        c_split.r = P(2)


@pytest.mark.parametrize(
    "side, r, message",
    [
        (type_c, P(3), "r=3 has an odd part (family S violated)"),
        (type_bd, P(2), "r=2 is not in family R"),
    ],
)
def test_each_side_names_its_r_family(side, r, message):
    with pytest.raises(DomainError) as exc:
        side.Split(r, Partition())
    assert str(exc.value) == message
    with pytest.raises(DomainError) as exc:
        side.Split(Partition(), P(2, 1))
    assert str(exc.value) == "p=2,1 is not doubled (family Ptilde violated)"


@pytest.fixture
def family_tests(monkeypatch):
    """Counts of ``is_member`` calls on the Jordan type's family, T or Q, by the split sides."""
    counts = Counter()
    original = partitions.is_member

    def counting(c, family):
        if family in (SYMPLECTIC, ORTHOGONAL):
            counts[family] += 1
        return original(c, family)

    for module in (splits, type_c, type_bd):
        monkeypatch.setattr(module, "is_member", counting)
    return counts


@pytest.mark.parametrize("name", PUBLIC[1:])
@pytest.mark.parametrize(
    "side, c, good, family",
    [(type_c, P(3, 1), P(4, 3, 3, 2), SYMPLECTIC), (type_bd, P(4, 2), P(5, 4, 4, 3), ORTHOGONAL)],
    ids=["C", "BD"],
)
def test_each_public_function_checks_the_jordan_family_once(family_tests, side, c, good, family, name):
    # each public function tests its input's family at entry, when called,
    # and its body (the engine in splits, the routing) never tests it again
    fn = getattr(side, name)
    with pytest.raises(DomainError):
        fn(c)
    assert family_tests[family] == 1
    family_tests.clear()
    out = fn(good)
    if name == "iter_fiber":
        list(out)  # the walk runs lazily
    assert family_tests == {family: 1}
