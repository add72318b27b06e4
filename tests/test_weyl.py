import pytest

from conftest import cycle_split_by_flip
from weyl2uni import (
    DomainError,
    ORTHOGONAL,
    Partition,
    is_member,
    iter_partitions,
    type_bd,
)
from weyl2uni.weyl import (
    GroupKind,
    JordanType,
    SignedCycleType,
    decode_class,
    encode_class,
    enumerate_classes,
    fixed_space_dim,
    fixed_space_dim_from_matrix,
    is_split_class,
    iter_jordan_types,
    phi_classical,
    psi_classical,
)


def P(*parts):
    return Partition(parts)


def W(pos, neg):
    return SignedCycleType(Partition(pos), Partition(neg))


class TestGroupKind:
    def test_nu_and_kappa(self):
        assert GroupKind("B", 3).nu == 7 and GroupKind("B", 3).kappa == 1
        assert GroupKind("C", 3).nu == 6 and GroupKind("D", 4).nu == 8

    def test_validation(self):
        with pytest.raises(DomainError):
            GroupKind("A", 3)
        with pytest.raises(DomainError):
            GroupKind("D", 1)


class TestEncode:
    def test_values(self):
        assert encode_class(W([2], []), GroupKind("C", 2)).text() == "r=-;p=2,2"
        assert encode_class(W([], [2]), GroupKind("C", 2)).text() == "r=4;p=-"
        # B/D: r is the blocks of the negative cycle lengths
        assert encode_class(W([1], [1]), GroupKind("B", 2)).text() == "r=3;p=1,1"
        assert encode_class(W([], [2]), GroupKind("B", 2)).text() == "r=5;p=-"
        assert encode_class(W([3], []), GroupKind("D", 3)).text() == "r=-;p=3,3"
        assert encode_class(W([1], [2, 2]), GroupKind("D", 5)).text() == "r=5,3;p=1,1"
        assert isinstance(encode_class(W([3], []), GroupKind("D", 3)), type_bd.Split)

    def test_rank_mismatch(self):
        with pytest.raises(DomainError):
            encode_class(W([2], []), GroupKind("C", 3))

    def test_d_parity(self):
        with pytest.raises(DomainError):
            encode_class(W([1], [1]), GroupKind("D", 2))

    def test_against_signed_permutation_oracle(self):
        # expand each class to a concrete permutation of [1, nu] and read the
        # flip-invariant cycle sizes directly
        for series in ("B", "C", "D"):
            least = 2 if series == "D" else 1
            for n in range(least, 5):
                g = GroupKind(series, n)
                for w in enumerate_classes(g):
                    invariant, rest = cycle_split_by_flip(w, g)
                    enc = encode_class(w, g)
                    if series == "C":
                        assert list(enc.r.parts) == invariant
                        assert list(enc.p.parts) == rest
                    else:
                        non_fixed = [d for d in invariant if d > 1]
                        halves = type_bd.halves_from_blocks(enc.r, g.kappa)
                        assert [2 * h for h in halves.parts] == non_fixed
                        assert list(enc.p.parts) == rest

    def test_injective_and_onto_the_pair_sets(self):
        # series C at each rank: encodings hit every (all-even, doubled) pair
        for n in range(1, 9):
            g = GroupKind("C", n)
            encs = {(e.r.parts, e.p.parts) for e in
                    (encode_class(w, g) for w in enumerate_classes(g))}
            assert len(encs) == len(enumerate_classes(g))
            expected = set()
            for k in range(0, n + 1):
                for r_half in iter_partitions(k):
                    for pos in iter_partitions(n - k):
                        r = Partition(2 * d for d in r_half)
                        p = Partition([d for d in pos for _ in range(2)])
                        expected.add((r.parts, p.parts))
            assert encs == expected

    def test_halves_onto_for_bd(self):
        # series B at each rank: every (halves, doubled) pair with the right
        # total arises exactly once
        for n in range(1, 7):
            g = GroupKind("B", n)
            encs = {(type_bd.halves_from_blocks(e.r, g.kappa).parts, e.p.parts) for e in
                    (encode_class(w, g) for w in enumerate_classes(g))}
            assert len(encs) == len(enumerate_classes(g))
            expected = set()
            for k in range(0, n + 1):
                for halves in iter_partitions(k):
                    for pos in iter_partitions(n - k):
                        expected.add(
                            (halves.parts, tuple(sorted((d for d in pos for _ in range(2)), reverse=True)))
                        )
            assert encs == expected

    def test_halves_onto_for_d_nonsplit(self):
        # series D: non-split classes hit exactly the evenly-long halves
        # pairs that are not (empty, all-even doubled)
        for n in range(2, 7):
            g = GroupKind("D", n)
            nonsplit = [w for w in enumerate_classes(g) if not is_split_class(w, g)]
            encs = {(type_bd.halves_from_blocks(e.r, g.kappa).parts, e.p.parts) for e in
                    (encode_class(w, g) for w in nonsplit)}
            assert len(encs) == len(nonsplit)
            expected = set()
            for k in range(0, n + 1):
                for halves in iter_partitions(k):
                    if len(halves) % 2:
                        continue
                    for pos in iter_partitions(n - k):
                        doubled = tuple(sorted((d for d in pos for _ in range(2)), reverse=True))
                        if not halves and doubled and all(v % 2 == 0 for v in doubled):
                            continue  # the fused very even pairs
                        expected.add((halves.parts, doubled))
            assert encs == expected

    def test_round_trip_through_decode(self):
        # every canonical split of a B/D Jordan type decodes to a class
        # that encodes back to it
        for nu in range(3, 15):
            g = GroupKind("B" if nu % 2 else "D", nu // 2)
            for c in iter_partitions(nu):
                if not is_member(c, ORTHOGONAL):
                    continue
                x = type_bd.canonical_split(c)
                assert encode_class(decode_class(x, g), g) == x


class TestFixedSpaceDim:
    def test_values(self):
        assert fixed_space_dim(W([2, 1], [])) == 2
        assert fixed_space_dim(W([], [3])) == 0
        assert fixed_space_dim(W([1, 1, 1], [])) == 3

    def test_matrix_values(self):
        g = GroupKind("C", 2)
        assert fixed_space_dim_from_matrix(W([1, 1], []), g) == 2
        assert fixed_space_dim_from_matrix(W([], [1, 1]), g) == 0
        assert fixed_space_dim_from_matrix(W([2], []), g) == 1

    def test_formula_equals_matrix_exhaustively(self):
        for series in ("B", "C", "D"):
            least = 2 if series == "D" else 1
            for n in range(least, 8):
                g = GroupKind(series, n)
                for w in enumerate_classes(g):
                    assert fixed_space_dim(w) == fixed_space_dim_from_matrix(w, g)

    def test_equals_half_p_length(self):
        for series in ("B", "C", "D"):
            least = 2 if series == "D" else 1
            for n in range(least, 7):
                g = GroupKind(series, n)
                for w in enumerate_classes(g):
                    assert fixed_space_dim(w) == len(encode_class(w, g).p) // 2

    def test_rank_cap(self):
        with pytest.raises(DomainError):
            fixed_space_dim_from_matrix(W([11], []), GroupKind("C", 11))


class TestPhi:
    def test_values(self):
        assert phi_classical(W([], [2]), GroupKind("C", 2)).text() == "4"
        assert phi_classical(W([2], []), GroupKind("C", 2)).text() == "2,2"
        assert phi_classical(W([1], [1]), GroupKind("B", 2)).text() == "3,1,1"

    def test_jordan_validity(self):
        for series in ("B", "C", "D"):
            least = 2 if series == "D" else 1
            for n in range(least, 6):
                g = GroupKind(series, n)
                for w in enumerate_classes(g):
                    j = phi_classical(w, g)
                    assert j.nu == g.nu and j.epsilon == g.epsilon


class TestPsi:
    def test_values(self):
        assert psi_classical(JordanType(P(2, 2), -1), GroupKind("C", 2)).text() == "pos=-;neg=1,1"
        assert psi_classical(JordanType(P(3, 1, 1), 1), GroupKind("B", 2)).text() == "pos=-;neg=1,1"
        assert (
            psi_classical(JordanType(P(1, 1, 1, 1, 1), 1), GroupKind("B", 2)).text()
            == "pos=1,1;neg=-"
        )

    def test_phi_psi_is_identity(self):
        for series in ("B", "C", "D"):
            least = 2 if series == "D" else 1
            for n in range(least, 11):
                g = GroupKind(series, n)
                for j in iter_jordan_types(g):
                    w = psi_classical(j, g)
                    assert phi_classical(w, g).parts == j.parts

    def test_very_even_returns_split_class(self):
        g = GroupKind("D", 4)
        w = psi_classical(JordanType(P(4, 4), 1), g)
        assert is_split_class(w, g) and w.text() == "pos=4;neg=-"
        w2 = psi_classical(JordanType(P(2, 2, 2, 2), 1), g)
        assert is_split_class(w2, g) and w2.text() == "pos=2,2;neg=-"
        # the class built from its parts is the listed class and psi's answer
        assert w2 == SignedCycleType(P(2, 2), P()) and w2 in enumerate_classes(g)

    def test_epsilon_mismatch(self):
        with pytest.raises(DomainError):
            psi_classical(JordanType(P(2, 2), -1), GroupKind("D", 2))

    def test_unique_fixed_space_minimum_over_class_fibers(self):
        # group classes by their image; the section must be the strict
        # minimizer of the fixed-space dimension in each fiber
        for series in ("B", "C", "D"):
            least = 2 if series == "D" else 1
            for n in range(least, 9):
                g = GroupKind(series, n)
                fibers: dict[tuple, list] = {}
                for w in enumerate_classes(g):
                    fibers.setdefault(phi_classical(w, g).parts.parts, []).append(w)
                for jordan, classes in fibers.items():
                    if series == "D" and all(v % 2 == 0 for v in jordan):
                        continue  # split images: singleton fibers, nothing to rank
                    chosen = psi_classical(JordanType(Partition(jordan), g.epsilon), g)
                    assert chosen in classes
                    for other in classes:
                        if other != chosen:
                            assert fixed_space_dim(other) > fixed_space_dim(chosen)


class TestEnumerate:
    def test_counts(self):
        assert len(enumerate_classes(GroupKind("C", 2))) == 5
        assert len(enumerate_classes(GroupKind("B", 1))) == 2
        g = GroupKind("D", 4)
        d4 = enumerate_classes(g)
        assert len(d4) == 11 and sum(1 for w in d4 if is_split_class(w, g)) == 2

    def test_split_flag(self):
        g = GroupKind("D", 4)
        assert is_split_class(W([2, 2], []), g)
        assert not is_split_class(W([2, 1, 1], []), g)
        assert not is_split_class(W([2], [1, 1]), g)

    def test_rank_cap(self):
        with pytest.raises(DomainError):
            enumerate_classes(GroupKind("C", 13))


class TestJordanType:
    def test_validation(self):
        with pytest.raises(DomainError):
            JordanType(P(3, 2), -1)  # odd total: 3 occurs once, outside family T
        with pytest.raises(DomainError):
            JordanType(P(3, 2, 1), -1)  # 3 occurs once: not symplectic
        with pytest.raises(DomainError):
            JordanType(P(2, 1), 1)  # 2 occurs once: not orthogonal
        assert JordanType(P(3, 3), -1).nu == 6
        assert JordanType(P(3, 1, 1), 1).nu == 5

    def test_text_round_trip(self):
        w = W([2, 1], [3])
        assert SignedCycleType.from_text(w.text()) == w
