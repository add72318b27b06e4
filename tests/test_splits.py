"""The shared split engine, seen through the two sides that use it.

``type_c`` and ``type_bd`` call ``splits`` for their public functions, so
each side must keep its own function objects (tracing and monkeypatching
rebind them per module), its own ``Split`` class and its own messages.
"""

import pytest

from weyl2uni import DomainError, Partition, type_bd, type_c

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


@pytest.mark.parametrize("side, c", [(type_c, P(3, 1)), (type_bd, P(4, 2))])
def test_iter_fiber_checks_the_jordan_family_when_called(side, c):
    with pytest.raises(DomainError):
        side.iter_fiber(c)
