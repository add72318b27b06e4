import ast
import pathlib
import re
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import uses_by_function, value_counts
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
from weyl2uni.partitions import double_parts
from weyl2uni.weyl import (
    GroupKind,
    SignedCycleType,
    iter_jordan_types,
    phi_classical,
    psi_classical,
)

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

    @pytest.mark.parametrize("parts", [["a", 1], [1, "a"], [2, None, 1], [3, 2.5, "x"]])
    def test_constructor_checks_parts_before_sorting(self, parts):
        bad = next(p for p in parts if not isinstance(p, int))
        with pytest.raises(DomainError, match=re.escape(f"got {bad!r}")):
            Partition(parts)

    def test_empty(self):
        e = Partition()
        assert len(e) == 0 and e.size == 0 and not e
        assert e.text() == "-" and e.to_json() == []
        assert Partition.from_text("-") == e

    def test_multiplicity(self):
        # the count of one value lives in the tests (conftest.value_counts);
        # the library's one-pass runs() agrees, largest value first
        assert value_counts(P(3, 3))[3] == 2
        assert value_counts(Partition())[5] == 0
        assert value_counts(P(5, 4, 4, 3, 3, 1))[4] == 2
        for c in [P(3, 3), Partition(), P(5, 4, 4, 3, 3, 1)]:
            assert dict(c.runs()) == value_counts(c)
            assert [e for e, q in c.runs()] == sorted(set(c.parts), reverse=True)

    def test_text_round_trip(self):
        for c in [P(5, 4, 4, 3, 3, 1), P(2), Partition()]:
            assert Partition.from_text(c.text()) == c

    def test_from_text_rejects_garbage(self):
        with pytest.raises(DomainError):
            Partition.from_text("3,x")

    @pytest.mark.parametrize("token", ["1_0", "+3", "-3", "\u0663", "3.0", "0x3", "3 1", ""])
    def test_from_text_takes_only_ascii_digits(self, token):
        # int() alone would read "1_0" as 10, "+3" as 3 and an Arabic-Indic
        # three as 3; every rejected token gets int()'s own message
        with pytest.raises(DomainError) as exc:
            Partition.from_text(f"3,{token},1")
        assert str(exc.value) == (
            f"cannot parse partition from {f'3,{token},1'!r}: "
            f"invalid literal for int() with base 10: {token!r}"
        )

    def test_from_text_allows_whitespace_around_each_part(self):
        assert Partition.from_text(" 3 ,\t1 , 1 ") == P(3, 1, 1)
        with pytest.raises(DomainError):
            Partition.from_text("\u0663,\u0661,\u0661")

    def test_ordering_is_by_parts(self):
        assert P(2, 1) < P(3) and P(3) < P(3, 1)
        assert P(2, 1) < (3,) and (3,) < P(3, 1)
        assert sorted([P(3, 1), P(1, 1, 1, 1), P(4)]) == [(1, 1, 1, 1), (3, 1), (4,)]

    def test_a_partition_is_the_tuple_of_its_parts(self):
        c = P(1, 3)
        assert isinstance(c, tuple) and c.parts is c
        assert c == (3, 1) and (3, 1) == c and c != (1, 3)
        assert hash(c) == hash((3, 1))
        assert {(3, 1): "x"}[c] == "x" and len({c, (3, 1)}) == 1

    def test_attributes_cannot_be_set(self):
        c = P(2, 1)
        for name in ("parts", "size", "_parts", "extra"):
            with pytest.raises(AttributeError):
                setattr(c, name, (1,))
        assert c == (2, 1)

    @given(st.lists(st.one_of(
        st.integers(min_value=-3, max_value=20),
        st.booleans(),
        st.floats(allow_nan=True),
        st.text(max_size=2),
        st.none(),
    ), max_size=6))
    def test_any_mix_is_sorted_positive_ints_or_a_domain_error(self, xs):
        try:
            c = Partition(xs)
        except DomainError as exc:
            assert str(exc).startswith("partition parts must be positive integers, got ")
            assert any(type(x) is not int or x < 1 for x in xs)
        else:
            assert all(type(x) is int and x >= 1 for x in xs)
            assert c == tuple(sorted(xs, reverse=True))


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
        for bad in ("X", None, 3, ("T",), ["T"]):
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


def test_partition_counts():
    """p(n) for n = 0..40 (OEIS A000041), each item a partition of n, strictly decreasing."""
    expected = [
        1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297, 385, 490,
        627, 792, 1002, 1255, 1575, 1958, 2436, 3010, 3718, 4565, 5604, 6842, 8349, 10143,
        12310, 14883, 17977, 21637, 26015, 31185, 37338,
    ]
    counts = []
    for n in range(41):
        items = list(iter_partitions(n))
        assert all(type(c) is Partition and sum(c) == n for c in items)
        assert all(sorted(c, reverse=True) == list(c) and (not c or c[-1] >= 1) for c in items)
        assert all(a > b for a, b in zip(items, items[1:]))  # reverse lexicographic
        counts.append(len(items))
    assert counts == expected


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


# The only functions of src/weyl2uni allowed to call Partition._from_sorted:
# each builds parts derived from partitions that were already validated.
# Parsers (``from_text``) and the ``__init__`` of the public records must
# never appear here.
TRUSTED_CALLERS = {
    "partitions": {"merge", "double_parts", "iter_members"},
    "splits": {"walk", "iter_fiber", "from_choices"},
    "type_bd": {"blocks_from_halves", "_halves_of_chained"},
    "weyl": {"encode_class", "decode_class"},
}


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
        for x in built:  # the validating constructor accepts each and moves no part
            assert Partition(x) == x

    def test_public_parsers_never_use_it(self, monkeypatch):
        def refuse(cls, parts):
            raise AssertionError("a parser used the trusted constructor")

        monkeypatch.setattr(Partition, "_from_sorted", classmethod(refuse))
        assert Partition.from_text("1,3,2").parts == (3, 2, 1)
        for bad in ("0", "2,-1", "x"):
            with pytest.raises(DomainError):
                Partition.from_text(bad)
        assert SignedCycleType.from_text("pos=1,2;neg=-").positive == P(2, 1)

    def test_psi_path_keeps_the_contract(self, monkeypatch):
        # every trusted site on the psi, phi and fiber paths, over every B/C/D
        # Jordan type with nu <= 20, gets a sorted tuple of positive ints
        groups = [GroupKind(s, n) for s in "BCD" for n in range(1, 11)
                  if (s, n) != ("D", 1) and GroupKind(s, n).nu <= 20]

        def answers():
            out = []
            for g in groups:
                fiber = type_c.fiber if g.series == "C" else type_bd.fiber
                for j in iter_jordan_types(g):
                    w = psi_classical(j, g)
                    out.append((w, phi_classical(w, g), fiber(j.parts)))
            return out

        want = answers()
        trusted = Partition.__dict__["_from_sorted"].__func__
        callers = set()

        def checked(cls, parts):
            assert type(parts) is tuple, parts
            assert all(type(v) is int and v >= 1 for v in parts), parts
            assert all(a >= b for a, b in zip(parts, parts[1:])), parts
            callers.add(sys._getframe(1).f_code.co_name)
            return trusted(cls, parts)

        monkeypatch.setattr(Partition, "_from_sorted", classmethod(checked))
        assert answers() == want
        assert len(want) > 1000
        assert callers == {f for fs in TRUSTED_CALLERS.values() for f in fs}

    def test_only_allowlisted_functions_use_it(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "weyl2uni"
        found = {}
        for path in sorted(src.glob("*.py")):
            uses = uses_by_function(ast.parse(path.read_text(), str(path)), "_from_sorted")
            if uses:
                found[path.stem] = uses
        assert found == TRUSTED_CALLERS

