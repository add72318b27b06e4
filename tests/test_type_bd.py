import pytest

from conftest import brute_fiber
from weyl2uni import (
    CHAINED,
    ContradictionError,
    DOUBLED,
    DomainError,
    ORTHOGONAL,
    Partition,
    is_member,
    iter_partitions,
)
from weyl2uni import type_bd


def P(*parts):
    return Partition(parts)


def orthogonal_types(max_nu, start=0):
    for nu in range(start, max_nu + 1):
        for c in iter_partitions(nu):
            if is_member(c, ORTHOGONAL):
                yield c


def chained_of(nu):
    return [c for c in iter_partitions(nu) if is_member(c, CHAINED)]


def halves_domain(nu):
    """All valid inputs to blocks_from_halves with 2*size + kappa == nu."""
    kappa = nu % 2
    for h in iter_partitions((nu - kappa) // 2):
        if kappa == 1 or len(h) % 2 == 0:
            yield h, kappa


class TestBlocksFromHalves:
    def test_values(self):
        assert type_bd.blocks_from_halves(P(2), 1) == P(5)
        assert type_bd.blocks_from_halves(P(1, 1), 1) == P(3, 1, 1)
        assert type_bd.blocks_from_halves(P(2, 2), 0) == P(5, 3)
        assert type_bd.blocks_from_halves(Partition(), 0) == Partition()
        assert type_bd.blocks_from_halves(Partition(), 1) == P(1)

    def test_rejects_odd_length_for_kappa0(self):
        with pytest.raises(DomainError):
            type_bd.blocks_from_halves(P(2), 0)

    def test_rejects_bad_kappa(self):
        with pytest.raises(DomainError):
            type_bd.blocks_from_halves(P(2), 2)

    def test_image_is_exactly_the_chained_family(self):
        # both directions of the bijection, exhaustively per total size
        for nu in range(0, 19):
            image = set()
            for h, kappa in halves_domain(nu):
                b = type_bd.blocks_from_halves(h, kappa)
                assert b.size == nu and is_member(b, CHAINED)
                image.add(b.parts)
            assert image == {c.parts for c in chained_of(nu)}


class TestHalvesFromBlocks:
    def test_values(self):
        assert type_bd.halves_from_blocks(P(5), 1) == P(2)
        assert type_bd.halves_from_blocks(P(3, 1, 1), 1) == P(1, 1)
        assert type_bd.halves_from_blocks(P(5, 3), 0) == P(2, 2)

    def test_rejects_non_chained(self):
        with pytest.raises(DomainError):
            type_bd.halves_from_blocks(P(3, 3), 1)

    def test_rejects_parity_mismatch(self):
        with pytest.raises(DomainError):
            type_bd.halves_from_blocks(P(5), 0)

    def test_round_trips_exhaustively(self):
        for nu in range(0, 19):
            kappa = nu % 2
            for blocks in chained_of(nu):
                halves = type_bd.halves_from_blocks(blocks, kappa)
                assert type_bd.blocks_from_halves(halves, kappa) == blocks
            for h, k in halves_domain(nu):
                assert type_bd.halves_from_blocks(type_bd.blocks_from_halves(h, k), k) == h

    def test_adjusted_blocks_stay_even_and_decreasing(self):
        # the +-1 adjustments always land on even numbers, in order
        for nu in range(0, 17):
            for blocks in chained_of(nu):
                ps = blocks.parts
                if ps and ps[-1] == nu % 2:
                    ps = ps[:-1]
                adjusted = [v + ((-1) ** k if v % 2 else 0) for k, v in enumerate(ps, start=1)]
                assert all(a % 2 == 0 for a in adjusted)
                assert all(a >= b for a, b in zip(adjusted, adjusted[1:]))


class TestStar:
    def test_matches_parity_of_larger_odds(self):
        # closed form: the number of odd entries above e is even
        chains = {c.parts for nu in range(0, 17) for c in chained_of(nu)}
        for chain in chains:
            odds = tuple(v for v in chain if v % 2)
            for e in range(2, 20, 2):
                expected = sum(1 for v in odds if v > e) % 2 == 0
                assert type_bd._star(odds, e) == expected

    def test_empty_chain_sends_evens_to_p(self):
        assert type_bd._star((), 4)
        assert type_bd.canonical_split(P(3, 3, 2, 2)) == type_bd.Split(
            Partition(), P(3, 3, 2, 2)
        )


class TestCanonicalSplit:
    def test_values(self):
        assert type_bd.canonical_split(P(3, 2, 2)) == type_bd.Split(P(3, 2, 2), Partition())
        assert type_bd.canonical_split(P(5, 3, 2, 2)) == type_bd.Split(P(5, 3), P(2, 2))
        assert type_bd.canonical_split(P(5, 3, 3, 1)) == type_bd.Split(P(5, 3, 3, 1), Partition())
        assert type_bd.canonical_split(P(3, 3, 1, 1)) == type_bd.Split(Partition(), P(3, 3, 1, 1))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(DomainError):
            type_bd.canonical_split(P(2, 1))

    def test_combine_inverts_exhaustively(self):
        for c in orthogonal_types(17):
            assert type_bd.combine(type_bd.canonical_split(c)) == c

    def test_r_side_extremes_are_odd(self):
        for c in orthogonal_types(17):
            r = type_bd.canonical_split(c).r
            if r:
                assert r.parts[0] % 2 == 1
                if c.size % 2 == 0:
                    assert r.parts[-1] % 2 == 1


class TestFiber:
    def test_values(self):
        assert {s.text() for s in type_bd.fiber(P(5, 3, 3, 1))} == {
            "r=5,3,3,1;p=-",
            "r=5,1;p=3,3",
        }
        assert [s.text() for s in type_bd.fiber(P(5, 3, 2, 2))] == ["r=5,3;p=2,2"]
        assert [s.text() for s in type_bd.fiber(P(3, 3))] == ["r=-;p=3,3"]

    def test_matches_position_blind_oracle(self):
        for c in orthogonal_types(14):
            got = {(s.r.parts, s.p.parts) for s in type_bd.iter_fiber(c)}
            assert got == brute_fiber(c, CHAINED, DOUBLED)


class TestMinimalSplit:
    def test_values(self):
        assert type_bd.minimal_split(P(5, 3, 3, 1)).text() == "r=5,3,3,1;p=-"
        assert type_bd.minimal_split(P(3, 3, 1, 1)).text() == "r=-;p=3,3,1,1"
        assert type_bd.minimal_split(P(3, 2, 2)).text() == "r=3,2,2;p=-"

    def test_unique_strict_minimum_exhaustively(self):
        for c in orthogonal_types(16):
            best = type_bd.minimal_split(c)
            for other in type_bd.iter_fiber(c):
                if other != best:
                    assert len(other.p) > len(best.p)

    def test_p_multiplicities_never_below_canonical(self):
        for c in orthogonal_types(16):
            canon = type_bd.canonical_split(c)
            for other in type_bd.iter_fiber(c):
                for e in set(c.parts):
                    assert other.p.multiplicity(e) >= canon.p.multiplicity(e)

    def test_disagreement_reports_contradiction(self, monkeypatch):
        # a genuine fiber element, but not the minimum
        monkeypatch.setattr(
            type_bd, "canonical_split", lambda c: type_bd.Split(P(5, 1), P(3, 3))
        )
        with pytest.raises(ContradictionError):
            type_bd.minimal_split(P(5, 3, 3, 1))


class TestHalfSplit:
    def test_values(self):
        assert type_bd.from_halves(type_bd.HalfSplit(P(2), Partition(), 1)).text() == "r=5;p=-"
        assert (
            type_bd.from_halves(type_bd.HalfSplit(Partition(), P(3, 3), 0)).text() == "r=-;p=3,3"
        )
        assert (
            type_bd.from_halves(type_bd.HalfSplit(P(2, 2), P(1, 1), 0)).text() == "r=5,3;p=1,1"
        )

    def test_validation(self):
        with pytest.raises(DomainError):
            type_bd.HalfSplit(P(2), Partition(), 0)  # odd length at kappa=0
        with pytest.raises(DomainError):
            type_bd.HalfSplit(P(2), P(2, 1), 1)  # p not doubled

    def test_round_trip_with_to_halves(self):
        for nu in range(0, 15):
            kappa = nu % 2
            for c in orthogonal_types(nu, start=nu):
                s = type_bd.canonical_split(c)
                h = type_bd.to_halves(s, kappa)
                assert type_bd.from_halves(h) == s
                assert h.nu == nu

    def test_text_round_trip(self):
        h = type_bd.HalfSplit(P(2, 1), P(3, 3), 1)
        assert type_bd.HalfSplit.from_text(h.text()) == h
        assert h.text() == "p'=2,1;p=3,3;k=1"


class TestClassifyD:
    def test_values(self):
        assert type_bd.classify_d(P(2, 2)) is type_bd.DKind.VERY_EVEN
        assert type_bd.classify_d(P(5, 3, 2, 2)) is type_bd.DKind.ORDINARY
        assert type_bd.classify_d(P(4, 4, 2, 2)) is type_bd.DKind.VERY_EVEN

    def test_rejects_odd_total(self):
        with pytest.raises(DomainError):
            type_bd.classify_d(P(3, 1, 1))

    def test_very_even_fiber_is_identity_singleton(self):
        for nu in range(0, 17, 2):
            for c in iter_partitions(nu):
                if not is_member(c, ORTHOGONAL):
                    continue
                if type_bd.classify_d(c) is type_bd.DKind.VERY_EVEN:
                    fib = type_bd.fiber(c)
                    assert fib == [type_bd.Split(Partition(), c)]
                    assert type_bd.minimal_split(c) == fib[0]
