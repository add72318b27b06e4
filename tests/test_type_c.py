import pytest

from conftest import brute_fiber, value_counts
from weyl2uni import (
    ALL_EVEN,
    ContradictionError,
    DOUBLED,
    DomainError,
    Partition,
    SYMPLECTIC,
    is_member,
    iter_partitions,
    merge,
)
from weyl2uni import type_c


def P(*parts):
    return Partition(parts)


def symplectic_types(max_nu):
    for nu in range(0, max_nu + 1, 2):
        for c in iter_partitions(nu):
            if is_member(c, SYMPLECTIC):
                yield c


class TestCombine:
    def test_values(self):
        # a split's two sides merge back to its Jordan type
        assert merge(Partition(), P(3, 3)) == P(3, 3)
        assert merge(P(2, 2), P(1, 1)) == P(2, 2, 1, 1)
        assert merge(P(4, 2), Partition()) == P(4, 2)

    def test_split_validation(self):
        with pytest.raises(DomainError):
            type_c.Split(P(3), Partition())  # odd part on the r side
        with pytest.raises(DomainError):
            type_c.Split(Partition(), P(2, 1))  # not doubled


class TestCanonicalSplit:
    def test_values(self):
        assert type_c.canonical_split(P(3, 3)) == type_c.Split(Partition(), P(3, 3))
        assert type_c.canonical_split(P(2, 2, 1, 1)) == type_c.Split(P(2, 2), P(1, 1))
        assert type_c.canonical_split(Partition()) == type_c.Split(Partition(), Partition())

    def test_rejects_non_symplectic(self):
        with pytest.raises(DomainError):
            type_c.canonical_split(P(3, 2))

    def test_combine_inverts_exhaustively(self):
        for c in symplectic_types(20):
            x = type_c.canonical_split(c)
            assert merge(x.r, x.p) == c


class TestFiber:
    def test_values(self):
        assert {s.text() for s in type_c.fiber(P(2, 2, 1, 1))} == {
            "r=2,2;p=1,1",
            "r=-;p=2,2,1,1",
        }
        assert [s.text() for s in type_c.fiber(P(3, 3))] == ["r=-;p=3,3"]
        assert [s.text() for s in type_c.fiber(Partition())] == ["r=-;p=-"]

    def test_matches_position_blind_oracle(self):
        for c in symplectic_types(14):
            got = {(s.r.parts, s.p.parts) for s in type_c.iter_fiber(c)}
            assert got == brute_fiber(c, ALL_EVEN, DOUBLED)

    def test_sorted_by_p_length(self):
        fib = type_c.fiber(P(4, 4, 2, 2, 1, 1))
        assert [len(s.p) for s in fib] == sorted(len(s.p) for s in fib)


class TestMinimalSplit:
    def test_values(self):
        assert type_c.minimal_split(P(2, 2, 1, 1)) == type_c.Split(P(2, 2), P(1, 1))
        assert type_c.minimal_split(P(3, 3)) == type_c.Split(Partition(), P(3, 3))
        assert type_c.minimal_split(P(4, 4, 2)) == type_c.Split(P(4, 4, 2), Partition())

    def test_unique_strict_minimum_exhaustively(self):
        for c in symplectic_types(16):
            best = type_c.minimal_split(c)
            for other in type_c.iter_fiber(c):
                if other != best:
                    assert len(other.p) > len(best.p)

    def test_p_multiplicities_never_below_canonical(self):
        # every fiber element keeps at least the canonical copies on the p side
        for c in symplectic_types(16):
            canon = type_c.canonical_split(c)
            for other in type_c.iter_fiber(c):
                for e in set(c.parts):
                    assert value_counts(other.p)[e] >= value_counts(canon.p)[e]

    def test_disagreement_reports_contradiction(self, monkeypatch):
        # runs 2^2, 1^2: the split (- ; 2,2,1,1)
        monkeypatch.setattr(type_c, "_route_choices", lambda runs: (0, 0))
        with pytest.raises(ContradictionError):
            type_c.minimal_split(P(2, 2, 1, 1))
