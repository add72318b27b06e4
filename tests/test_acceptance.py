"""Acceptance suite: every criterion at its stated size cap and tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` or ``-rP`` to
see them all).  Everything is exact integer arithmetic; the only tolerances
are the two runtime budgets.
"""

import time

from weyl2uni import (
    CHAINED,
    DOUBLED_EVEN,
    ORTHOGONAL,
    Partition,
    SYMPLECTIC,
    is_member,
    iter_partitions,
    merge,
)
from weyl2uni import exceptional, type_bd, type_c
from weyl2uni.exceptional import CarterLabel, load_table
from weyl2uni.weyl import (
    GroupKind,
    enumerate_classes,
    fixed_space_dim,
    fixed_space_dim_from_matrix,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_unique_minimum_symplectic():
    """Every symplectic Jordan type with total <= 30: unique p-minimal split."""
    start = time.perf_counter()
    scanned = 0
    for nu in range(0, 31, 2):
        for c in iter_partitions(nu):
            if not is_member(c, SYMPLECTIC):
                continue
            scanned += 1
            best = type_c.minimal_split(c)  # raises on ties or route disagreement
            assert best == type_c.canonical_split(c)
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: unique minimum, symplectic side, nu <= 30",
        elapsed < 60.0,
        f"{scanned} Jordan types, {elapsed:.1f}s < 60s, zero counterexamples",
    )


def test_criterion_2_unique_minimum_orthogonal():
    """Every orthogonal Jordan type with total <= 25 (very even skipped)."""
    start = time.perf_counter()
    scanned = skipped = 0
    for nu in range(1, 26):
        for c in iter_partitions(nu):
            if not is_member(c, ORTHOGONAL):
                continue
            if nu % 2 == 0 and is_member(c, DOUBLED_EVEN):
                skipped += 1
                continue
            scanned += 1
            best = type_bd.minimal_split(c)
            assert best == type_bd.canonical_split(c)
    elapsed = time.perf_counter() - start
    report(
        "criterion 2: unique minimum, orthogonal side, nu <= 25",
        elapsed < 300.0,
        f"{scanned} Jordan types ({skipped} very even skipped), {elapsed:.1f}s < 300s",
    )


def test_criterion_3_bijections_are_exact():
    """Round trips: halves<->blocks for nu <= 25, split/merge on both sides."""
    checked = 0
    for nu in range(0, 26):
        kappa = nu % 2
        for h in iter_partitions((nu - kappa) // 2):
            if kappa == 0 and len(h) % 2:
                continue
            blocks = type_bd.blocks_from_halves(h, kappa)
            assert is_member(blocks, CHAINED) and blocks.size == nu
            assert type_bd.halves_from_blocks(blocks, kappa) == h
            checked += 1
        for c in iter_partitions(nu):
            if is_member(c, CHAINED):
                halves = type_bd.halves_from_blocks(c, kappa)
                assert type_bd.blocks_from_halves(halves, kappa) == c
                checked += 1
            if is_member(c, ORTHOGONAL):
                x = type_bd.canonical_split(c)
                assert merge(x.r, x.p) == c
                checked += 1
    for nu in range(0, 31, 2):
        for c in iter_partitions(nu):
            if is_member(c, SYMPLECTIC):
                x = type_c.canonical_split(c)
                assert merge(x.r, x.p) == c
                checked += 1
    report("criterion 3: bijection round trips, exact", True, f"{checked} round trips")


def test_criterion_4_fixed_space_bridge():
    """Closed form == exact matrix nullity on every class, ranks <= 6."""
    per_series = {}
    for series in ("B", "C", "D"):
        least = 2 if series == "D" else 1
        total = 0
        for n in range(least, 7):
            g = GroupKind(series, n)
            classes = enumerate_classes(g)
            if n == 6 and series in ("B", "C"):
                assert len(classes) == 65
            for w in classes:
                assert fixed_space_dim(w) == fixed_space_dim_from_matrix(w, g)
                total += 1
        per_series[series] = total
    report(
        "criterion 4: fixed-space dimension formula == matrix oracle, n <= 6",
        True,
        ", ".join(f"{s}: {k} classes" for s, k in per_series.items()),
    )


def test_criterion_5_class_counts():
    """Series B and C have 2, 5, 10, 20, 36, 65 classes at ranks 1..6."""
    expected = [2, 5, 10, 20, 36, 65]
    got_b = [len(enumerate_classes(GroupKind("B", n))) for n in range(1, 7)]
    got_c = [len(enumerate_classes(GroupKind("C", n))) for n in range(1, 7)]
    report(
        "criterion 5: class counts at ranks 1..6",
        got_b == expected and got_c == expected,
        f"B: {got_b}, C: {got_c}",
    )


def test_criterion_6_exceptional_tables():
    """Label/name counts, section identity, strict rank dominance per line."""
    labels = {"G2": 6, "F4": 25, "E6": 25, "E7": 60, "E8": 112}
    names = {"G2": 5, "F4": 16, "E6": 21, "E7": 45, "E8": 70}
    ok = True
    details = []
    for group in exceptional.GROUPS:
        t = load_table(group)
        ok &= len(t.labels()) == labels[group] and len(t.names()) == names[group]
        details.append(f"{group}: {len(t.labels())}/{len(t.names())}")
    for group in exceptional.GROUPS:
        for characteristic in exceptional.SUPPORTED_CHARACTERISTICS[group]:
            t = load_table(group, characteristic)
            for line in t.lines:
                assert t.phi(t.psi(line.name)) == line.name
                head = line.labels[0]
                for other in line.labels[1:]:
                    assert head.rank > other.rank
    f4 = load_table("F4")
    line = next(l for l in f4.lines if l.name == "A_1+Ã_1")
    fiber = [str(lab) for lab in line.labels]
    assert fiber == ["4A_1", "3A_1", "2A_1+Ã_1", "A_1+Ã_1"]
    assert [CarterLabel.parse(lab).rank for lab in fiber] == [4, 3, 3, 2]
    report("criterion 6: exceptional tables", ok, "; ".join(details))


def test_criterion_7_bad_characteristic_patches():
    """The five patched tables contain exactly the quoted replacement lines."""
    expected_patch_lines = {
        ("G2", "p3"): [("A_1+Ã_1", "Ã_1"), ("Ã_1", "(Ã_1)_3")],
        ("F4", "p2"): [
            ("2A_1", "Ã_1"),
            ("Ã_1", "(Ã_1)_2"),
            ("A_2+Ã_2", "Ã_2+A_1"),
            ("Ã_2+A_1", "(Ã_2+A_1)_2"),
            ("A_3", "B_2"),
            ("B_2", "(B_2)_2"),
            ("A_3+Ã_1", "C_3(a_1)"),
            ("B_2+A_1", "(C_3(a_1))_2"),
        ],
        ("E7", "p2"): [("D_4(a_1)+2A_1", "A_3+A_2"), ("A_3+A_2", "(A_3+A_2)_2")],
        ("E8", "p2"): [
            ("2A_3'", "A_3+A_2"),
            ("A_3+A_2", "(A_3+A_2)_2"),
            ("D_4+A_3", "D_4+A_2"),
            ("D_4+A_2", "(D_4+A_2)_2"),
            ("A_7+A_1", "D_5+A_2"),
            ("D_5+A_2", "(D_5+A_2)_2"),
            ("D_8(a_2)", "D_7(a_1)"),
            ("D_7(a_1)", "(D_7(a_1))_2"),
        ],
        ("E8", "p3"): [("D_8(a_3)", "A_7"), ("A_7''", "(A_7)_3")],
    }
    for (group, characteristic), patch_lines in expected_patch_lines.items():
        good = load_table(group)
        patched = load_table(group, characteristic)
        rendered = [(",".join(map(str, l.labels)), l.name) for l in patched.lines]
        for patch in patch_lines:
            assert patch in rendered, f"{patch} missing from ({group}, {characteristic})"
        good_rendered = [(",".join(map(str, l.labels)), l.name) for l in good.lines]
        new = [line for line in rendered if line not in good_rendered]
        assert sorted(new) == sorted(patch_lines), (group, characteristic)
        assert exceptional.verify_table(patched) == []
        assert {l.raw for l in patched.labels()} == {l.raw for l in good.labels()}
    report("criterion 7: bad-characteristic patches", True, "5 patched tables, exact lines")


def test_criterion_8_spot_vectors():
    checks = [
        load_table("F4").phi("A_3") == "B_2",
        str(load_table("F4").psi("C_3(a_1)")) == "A_3+Ã_1",
        str(load_table("E7").psi("4A_1")) == "7A_1",
        load_table("E8").phi("E_8(a_8)") == "2A_4",
    ]
    report("criterion 8: spot vectors", all(checks), "4 quoted values")


def test_criterion_9_mutation_sensitivity(monkeypatch):
    """Seeded mutations must flip a check above to a failure."""
    # mutation A: route the even value 2 into r ("keep" branch) everywhere
    original = type_bd._star

    def mutated(odds, e):
        return original(odds, e) if e != 2 else False

    caught_rule = False
    monkeypatch.setattr(type_bd, "_star", mutated)
    try:
        c = Partition([5, 3, 2, 2])
        try:
            best = type_bd.minimal_split(c)
            caught_rule = best != type_bd.Split(Partition([5, 3]), Partition([2, 2]))
        except Exception:
            caught_rule = True  # criterion-2 machinery rejects the mutated split
    finally:
        monkeypatch.setattr(type_bd, "_star", original)
    assert type_bd.minimal_split(Partition([5, 3, 2, 2]))  # restored

    # mutation B: swap two labels inside one line of a table
    t = load_table("E8")
    lines = list(t.lines)
    i = next(k for k, l in enumerate(lines) if len(l.labels) > 1)
    swapped = exceptional.TableLine(
        (lines[i].labels[1], lines[i].labels[0]) + lines[i].labels[2:], lines[i].name
    )
    mutated_table = exceptional.MapTable(
        t.group, t.weyl_rank, t.characteristic, tuple(lines[:i] + [swapped] + lines[i + 1:])
    )
    caught_table = bool(exceptional.verify_table(mutated_table))

    report(
        "criterion 9: mutation sensitivity",
        caught_rule and caught_table,
        "routing flip and label swap both detected",
    )
