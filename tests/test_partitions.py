import pytest
from hypothesis import given, strategies as st

from conftest import value_counts
from weyl2uni import (
    ALL_EVEN,
    ANY,
    CHAINED,
    DOUBLED,
    DOUBLED_EVEN,
    DomainError,
    EVEN_LENGTH,
    ORTHOGONAL,
    Partition,
    SYMPLECTIC,
    is_member,
    iter_members,
    iter_partitions,
    merge,
    type_bd,
    type_c,
)
from weyl2uni.partitions import double_parts, undouble_parts
from weyl2uni.weyl import SignedCycleType

parts_strategy = st.lists(st.integers(min_value=1, max_value=12), max_size=10)


def P(*parts):
    return Partition(parts)


class TestPartition:
    def test_constructor_sorts(self):
        assert P(1, 3, 2).parts == (3, 2, 1)

    @pytest.mark.parametrize("bad", [0, -1, True, 1.5, "3"])
    def test_constructor_rejects_nonpositive_and_nonint(self, bad):
        with pytest.raises(DomainError):
            Partition([bad])

    def test_empty(self):
        e = Partition()
        assert len(e) == 0 and e.size == 0 and not e
        assert e.text() == "-" and e.to_json() == []
        assert Partition.from_text("-") == e

    def test_multiplicity(self):
        assert P(3, 3).multiplicity(3) == 2
        assert Partition().multiplicity(5) == 0
        assert P(5, 4, 4, 3, 3, 1).multiplicity(4) == 2

    def test_text_round_trip(self):
        for c in [P(5, 4, 4, 3, 3, 1), P(2), Partition()]:
            assert Partition.from_text(c.text()) == c

    def test_from_text_rejects_garbage(self):
        with pytest.raises(DomainError):
            Partition.from_text("3,x")

    def test_ordering_is_by_parts(self):
        assert P(2, 1) < P(3) and P(3) < P(3, 1)


class TestMerge:
    def test_values(self):
        assert merge(P(4, 2), P(3, 3)) == P(4, 3, 3, 2)
        assert merge(Partition(), P(2, 2)) == P(2, 2)
        assert merge(P(5, 1), P(3, 3)) == P(5, 3, 3, 1)

    @given(parts_strategy, parts_strategy, parts_strategy)
    def test_commutative_associative_with_identity(self, a, b, c):
        pa, pb, pc = Partition(a), Partition(b), Partition(c)
        assert merge(pa, pb) == merge(pb, pa)
        assert merge(merge(pa, pb), pc) == merge(pa, merge(pb, pc))
        assert merge(pa, Partition()) == pa
        assert merge(pa, pb).size == pa.size + pb.size


class TestFamilies:
    def test_membership_vectors(self):
        assert is_member(P(3, 3), SYMPLECTIC)
        assert not is_member(P(3, 2), SYMPLECTIC)
        assert is_member(P(5, 4, 4, 3, 3, 1), CHAINED)
        assert not is_member(P(3, 3), CHAINED)
        assert is_member(P(2, 2), DOUBLED_EVEN)
        assert not is_member(P(2, 1, 1), DOUBLED)

    def test_family_tag_validation(self):
        for bad in ("X", None, 3, ("T",)):
            with pytest.raises(DomainError):
                is_member(P(1), bad)

    def test_is_member_accepts_tag_strings(self):
        assert is_member(P(2, 2), "S")

    def test_is_member_rejects_unknown_tag_strings(self):
        with pytest.raises(DomainError):
            is_member(P(2, 2), "X")

    def test_parity_families_match_counting(self):
        # symplectic/orthogonal tags agree with plain multiplicity counting
        for n in range(21):
            for c in iter_partitions(n):
                counts = value_counts(c)
                assert is_member(c, SYMPLECTIC) == all(
                    q % 2 == 0 for v, q in counts.items() if v % 2 == 1
                )
                assert is_member(c, ORTHOGONAL) == all(
                    q % 2 == 0 for v, q in counts.items() if v % 2 == 0
                )

    def test_inclusion_chain(self):
        # E <= Ptilde <= P0 <= P1 and E <= Q, exhaustively
        for n in range(17):
            for c in iter_partitions(n):
                if is_member(c, DOUBLED_EVEN):
                    assert is_member(c, DOUBLED) and is_member(c, ORTHOGONAL)
                if is_member(c, DOUBLED):
                    assert is_member(c, EVEN_LENGTH)
                if is_member(c, EVEN_LENGTH):
                    assert is_member(c, ANY)

    def test_doubled_means_even_multiplicities(self):
        for n in range(0, 17, 2):
            for c in iter_partitions(n):
                assert is_member(c, DOUBLED) == all(
                    q % 2 == 0 for q in value_counts(c).values()
                )

    def test_nonempty_chained_has_odd_extremes(self):
        # in particular the only all-even chained partition is the empty one
        for n in range(19):
            for c in iter_partitions(n):
                if c and is_member(c, CHAINED):
                    assert c.parts[0] % 2 == 1
                    if len(c) % 2 == 0:
                        assert c.parts[-1] % 2 == 1
                    assert not is_member(c, ALL_EVEN)


def _quadratic_chained(c):
    """Family R as first written: a scan over all parts for each even-position gap."""
    if not is_member(c, ORTHOGONAL):
        return False
    ps = c.parts
    if not ps:
        return True
    if ps[0] % 2 == 0:
        return False
    if len(ps) % 2 == 0 and ps[-1] % 2 == 0:
        return False
    odds = [v for v in ps if v % 2 == 1]
    for u in range(1, len(odds)):
        hi, lo = odds[u - 1], odds[u]
        if u % 2 == 1:
            if hi <= lo:
                return False
        elif any(lo < v < hi for v in ps):
            return False
    return True


def test_chained_single_pass_matches_quadratic_definition():
    checked = members = 0
    for n in range(31):
        for c in iter_partitions(n):
            assert is_member(c, CHAINED) == _quadratic_chained(c), c.parts
            checked += 1
            members += is_member(c, CHAINED)
    assert checked == 28629
    assert 0 < members < checked


class TestDoubling:
    def test_round_trip(self):
        assert double_parts(P(3, 1)) == P(3, 3, 1, 1)
        assert undouble_parts(P(3, 3, 1, 1)) == P(3, 1)
        assert undouble_parts(double_parts(Partition())) == Partition()

    def test_undouble_rejects(self):
        with pytest.raises(DomainError):
            undouble_parts(P(3, 1))


def test_partition_counts():
    # p(n) for n = 0..10
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [sum(1 for _ in iter_partitions(n)) for n in range(11)] == expected


class TestIterMembers:
    @pytest.mark.parametrize("family", [SYMPLECTIC, ORTHOGONAL], ids=["T", "Q"])
    def test_equals_filtered_partitions_in_order(self, family):
        for n in range(25):
            want = [c for c in iter_partitions(n) if is_member(c, family)]
            assert list(iter_members(n, family)) == want

    def test_counts_at_rank_20(self):
        # the Jordan types of C20, B20 and D20
        assert sum(1 for _ in iter_members(40, SYMPLECTIC)) == 7336
        assert sum(1 for _ in iter_members(41, ORTHOGONAL)) == 5922
        assert sum(1 for _ in iter_members(40, ORTHOGONAL)) == 5096

    def test_accepts_tags(self):
        assert list(iter_members(6, "T")) == list(iter_members(6, SYMPLECTIC))
        assert list(iter_members(7, "Q")) == list(iter_members(7, ORTHOGONAL))

    @pytest.mark.parametrize(
        "bad", [(4, DOUBLED), (4, "R"), (4, "X"), (6, ("Q", 6)), (-1, SYMPLECTIC)]
    )
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            list(iter_members(*bad))


class TestTrustedConstructor:
    def test_fiber_parts_pass_the_validating_constructor(self, monkeypatch):
        built = []
        trusted = Partition.__dict__["_from_sorted"].__func__

        def record(cls, parts):
            built.append(trusted(cls, parts))
            return built[-1]

        monkeypatch.setattr(Partition, "_from_sorted", classmethod(record))
        for n in range(17):
            for c in iter_members(n, SYMPLECTIC):
                list(type_c.iter_fiber(c))
            for c in iter_members(n, ORTHOGONAL):
                list(type_bd.iter_fiber(c))
        assert len(built) > 1000
        for x in built:
            assert type(x.parts) is tuple and Partition(x.parts) == x

    def test_public_parsers_never_use_it(self, monkeypatch):
        def refuse(cls, parts):
            raise AssertionError("a parser used the trusted constructor")

        monkeypatch.setattr(Partition, "_from_sorted", classmethod(refuse))
        assert Partition.from_text("1,3,2").parts == (3, 2, 1)
        for bad in ("0", "2,-1", "x"):
            with pytest.raises(DomainError):
                Partition.from_text(bad)
        assert type_c.Split.from_text("r=2;p=1,1").p == P(1, 1)
        assert type_bd.Split.from_text("r=1,3;p=2,2").r == P(3, 1)
        assert type_bd.HalfSplit.from_text("p'=1,2;p=-;k=0").halves == P(2, 1)
        assert SignedCycleType.from_text("pos=1,2;neg=-").positive == P(2, 1)
