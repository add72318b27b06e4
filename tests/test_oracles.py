"""Oracles for the classical maps that share no code with what they check.

* Elliptic classes (Lusztig 2011, "From conjugacy classes in the Weyl group
  to unipotent classes", Represent. Theory 15).  For an elliptic class C (no
  positive cycle) and u in Phi(C), dim Z_G(u) equals the least length of an
  element of C.  The centraliser dimension comes from the Jordan type alone
  (Collingwood-McGovern 1993, ch. 6), with a dual-partition helper of this
  file; the least length from the negative cycle lengths.  The least-length
  formula itself is confirmed by brute force over signed permutations with
  the Bjorner-Brenti lengths (ch. 8), and G2's three elliptic labels are
  pinned against its standard centraliser dimensions.
* Solomon's identity (Solomon 1963): sum over classes C of |C| t^(dim Fix C)
  equals the product of (t + e_i) over the exponents e_i.

Neither is part of ``verify.run_all``, whose check names and counts the
benchmark compares with its recorded values.
"""

from collections import Counter
from itertools import permutations, product
from math import factorial

import pytest

from weyl2uni import Partition, iter_partitions, load_table, weyl
from weyl2uni.weyl import GroupKind, SignedCycleType, enumerate_classes, fixed_space_dim, phi_classical

GROUPS = [GroupKind(s, n) for s in "BCD" for n in range(1, 13) if (s, n) != ("D", 1)]


def dual(parts) -> list[int]:
    """The conjugate partition: entry i counts the parts larger than i."""
    return [sum(1 for p in parts if p > i) for i in range(max(parts, default=0))]


def centraliser_dim(parts, series: str) -> int:
    """dim Z_G(u) for u of Jordan type ``parts``: Sp adds, O subtracts, half the odd parts."""
    squares, odd = sum(s * s for s in dual(parts)), sum(p % 2 for p in parts)
    total = squares + odd if series == "C" else squares - odd
    assert total % 2 == 0
    return total // 2


def least_length(neg, series: str) -> int:
    """The least length in the elliptic class of negative cycle lengths ``neg``."""
    neg = sorted(neg, reverse=True)
    length = sum((2 * i + 1) * m for i, m in enumerate(neg))
    return length - len(neg) if series == "D" else length


def elliptic_classes(g: GroupKind) -> list[SignedCycleType]:
    return [SignedCycleType(Partition(), neg) for neg in iter_partitions(g.rank)
            if g.series != "D" or len(neg) % 2 == 0]


def elliptic_mismatches(groups) -> list[tuple[str, str, int, int]]:
    out = []
    for g in groups:
        for w in elliptic_classes(g):
            dim_z = centraliser_dim(phi_classical(w, g).parts, g.series)
            ell = least_length(w.negative, g.series)
            if dim_z != ell:
                out.append((f"{g.series}{g.rank}", w.text(), dim_z, ell))
    return out


def test_centraliser_dimension_equals_least_length_on_elliptic_classes():
    assert sum(len(elliptic_classes(g)) for g in GROUPS) == 678
    assert elliptic_mismatches(GROUPS) == []


def test_a_conjugated_negative_cycle_type_fails_the_oracle(monkeypatch):
    # the fault the recorded-value tests alone caught: series B encodes the
    # conjugate of the negative cycle type, a map that stays self-consistent
    original = weyl._encode_parts

    def conjugated(w, g):
        if g.series == "B":
            w = SignedCycleType(w.positive, Partition(dual(w.negative)))
        return original(w, g)

    monkeypatch.setattr(weyl, "_encode_parts", conjugated)
    b_groups = [g for g in GROUPS if g.series == "B"]
    broken = elliptic_mismatches(b_groups)  # 254 of the 271
    assert len(broken) > 0.9 * sum(len(elliptic_classes(g)) for g in b_groups)


def signed_cycle_type(v) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(positive, negative) cycle lengths of a signed permutation in window notation."""
    seen, cycles = set(), {True: [], False: []}
    for start in range(1, len(v) + 1):
        if start in seen:
            continue
        i, length, sign = start, 0, 1
        while i not in seen:
            seen.add(i)
            length += 1
            sign *= 1 if v[i - 1] > 0 else -1
            i = abs(v[i - 1])
        cycles[sign > 0].append(length)
    return tuple(sorted(cycles[True], reverse=True)), tuple(sorted(cycles[False], reverse=True))


def length_b(v) -> int:
    """inv(v) minus the sum of the negative entries (Bjorner-Brenti, Prop. 8.1.1)."""
    n = len(v)
    inversions = sum(1 for i in range(n) for j in range(i + 1, n) if v[i] > v[j])
    return inversions - sum(x for x in v if x < 0)


@pytest.mark.parametrize("series, n", [(s, n) for s in "BD" for n in range(1, 6) if (s, n) != ("D", 1)])
def test_least_length_formula_by_brute_force(series, n):
    # over every signed permutation of rank n (W(D_n): evenly many signs),
    # the least length in each elliptic class; D's length drops neg(v)
    least: dict[tuple[int, ...], int] = {}
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            v = [s * x for s, x in zip(signs, perm)]
            negatives = signs.count(-1)
            if series == "D" and negatives % 2:
                continue
            pos, neg = signed_cycle_type(v)
            if pos:
                continue
            ell = length_b(v) - (negatives if series == "D" else 0)
            least[neg] = min(ell, least.get(neg, ell))
    g = GroupKind(series, n)
    assert sorted(least) == sorted(w.negative.parts for w in elliptic_classes(g))
    assert least == {neg: least_length(neg, series) for neg in least}


# dim Z_G(u) of the unipotent classes of G2 in good characteristic: dim G2
# is 14, and the orbits G_2, G_2(a_1), A~_1 have dimensions 12, 10 and 8
G2_CENTRALISER_DIMS = {"G_2": 2, "G_2(a_1)": 4, "Ã_1": 6}


def test_g2_elliptic_classes():
    # W(G2) as 2x2 integer matrices on the simple roots (a short, b long),
    # lengths by breadth-first search over the two simple reflections
    s_a, s_b = ((-1, 3), (0, 1)), ((1, 0), (1, -1))

    def mul(x, y):
        return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)) for i in range(2))

    identity = ((1, 0), (0, 1))
    lengths, frontier = {identity: 0}, [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s in (s_a, s_b):
                y = mul(x, s)
                if y not in lengths:
                    lengths[y] = lengths[x] + 1
                    nxt.append(y)
        frontier = nxt
    assert len(lengths) == 12
    # the elliptic classes are the rotations by 60, 120 and 180 degrees,
    # told apart by their trace: the Coxeter class G_2, A_2 and -1 = A_1+Ã_1
    least = {}
    for x, ell in lengths.items():
        det, trace = x[0][0] * x[1][1] - x[0][1] * x[1][0], x[0][0] + x[1][1]
        if det == 1 and trace != 2:
            least[trace] = min(ell, least.get(trace, ell))
    labels = {1: "G_2", -1: "A_2", -2: "A_1+Ã_1"}
    table = load_table("G2", "good")
    assert {labels[t]: ell for t, ell in least.items()} == {"G_2": 2, "A_2": 4, "A_1+Ã_1": 6}
    for trace, ell in least.items():
        assert G2_CENTRALISER_DIMS[table.phi(labels[trace])] == ell, labels[trace]


def exponents(g: GroupKind) -> list[int]:
    odd = list(range(1, 2 * g.rank, 2))
    return odd[:-1] + [g.rank - 1] if g.series == "D" else odd


def class_size_b(w: SignedCycleType) -> int:
    """|W(B_n)| / |Z(w)|, with |Z(w)| the product over d of (2d)^(a_d+b_d) a_d! b_d!."""
    pos, neg = Counter(w.positive.parts), Counter(w.negative.parts)
    centraliser = 1
    for d in set(pos) | set(neg):
        centraliser *= (2 * d) ** (pos[d] + neg[d]) * factorial(pos[d]) * factorial(neg[d])
    return 2 ** w.rank * factorial(w.rank) // centraliser


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("g", GROUPS, ids=lambda g: f"{g.series}{g.rank}")
def test_solomon_identity(g):
    # coefficients by power of t; a fused pair of D classes, listed once,
    # carries the whole B class, and every other D class is a B class
    lhs = [0] * (g.rank + 1)
    for w in enumerate_classes(g):
        lhs[fixed_space_dim(w)] += class_size_b(w)
    rhs = [1]
    for e in exponents(g):
        rhs = poly_mul(rhs, [e, 1])
    assert lhs == rhs
