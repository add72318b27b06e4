import dataclasses
import os

import pytest

from weyl2uni import DomainError, UnknownLabel, exceptional
from weyl2uni.exceptional import (
    EXPECTED_LABELS,
    EXPECTED_NAMES,
    GROUPS,
    SUPPORTED_CHARACTERISTICS,
    CarterLabel,
    MapTable,
    TableLine,
    carter_rank,
    load_all_tables,
    load_table,
    normalize_name,
    verify_table,
)


class TestNormalize:
    @pytest.mark.parametrize("alias", ["Ã_1", "A~_1", "~A_1", "tA_1", "Ã_1"])
    def test_tilde_aliases(self, alias):
        assert normalize_name(alias) == "Ã_1"

    def test_prime_aliases(self):
        assert normalize_name("A_3+2A_1′") == "A_3+2A_1'"
        assert normalize_name("D_8″") == "D_8''"
        assert normalize_name('D_8"') == "D_8''"

    def test_compound_alias(self):
        assert normalize_name("A_1+tA_1") == "A_1+Ã_1"
        assert normalize_name("(tA_1)_3") == "(Ã_1)_3"


class TestCarterLabel:
    def test_rank_values(self):
        assert carter_rank("4A_1") == 4
        assert carter_rank("A_0") == 0
        assert carter_rank("D_6(a_2)+A_1") == 7
        assert carter_rank("D_4(a_1)+2A_1") == 6
        assert carter_rank("A_7+A_1") == 8
        assert carter_rank("2D_4(a_1)") == 8
        assert carter_rank("A_3+2A_1''") == 5

    def test_raw_round_trips(self):
        for s in ["D_4(a_1)+2A_1", "A_3+2A_1''", "Ã_2+A_1", "E_8(a_8)", "G_2"]:
            label = CarterLabel.parse(s)
            assert label.raw == s
            assert CarterLabel.parse(label.raw) == label

    def test_parse_rejects_garbage(self):
        for bad in ["", "X_1", "A_", "A1", "A_1)))", "A_1+"]:
            with pytest.raises(DomainError):
                CarterLabel.parse(bad)

    def test_primes_and_parens_do_not_change_rank(self):
        assert carter_rank("A_5") == carter_rank("A_5'") == carter_rank("A_5''") == 5
        assert carter_rank("E_7(a_4)") == carter_rank("E_7(a_1)") == 7


class TestLoadTable:
    def test_all_supported_pairs_load_and_validate(self):
        for table in load_all_tables():
            report = verify_table(table)
            assert report.passed, report.failures

    def test_good_counts(self):
        expected_lines = {"G2": 5, "F4": 16, "E6": 21, "E7": 45, "E8": 70}
        for group in GROUPS:
            t = load_table(group)
            assert len(t.lines) == expected_lines[group]
            assert len(t.labels()) == EXPECTED_LABELS[group]
            assert len(t.names()) == EXPECTED_NAMES[group]

    def test_patched_counts_and_label_preservation(self):
        expected_lines = {
            ("G2", "p3"): 6,
            ("F4", "p2"): 20,
            ("E7", "p2"): 46,
            ("E8", "p2"): 74,
            ("E8", "p3"): 71,
        }
        for (group, ch), lines in expected_lines.items():
            t = load_table(group, ch)
            assert len(t.lines) == lines
            good = load_table(group)
            assert {l.raw for l in t.labels()} == {l.raw for l in good.labels()}

    def test_unsupported_pair_rejected(self):
        with pytest.raises(DomainError):
            load_table("G2", "p2")
        with pytest.raises(DomainError):
            load_table("E6", "p3")
        with pytest.raises(DomainError):
            load_table("H4")

    def test_env_override(self, monkeypatch, tmp_path):
        data = tmp_path / "tables.tsv"
        data.write_text(
            "G2\tgood\tA_0\tA_0\n", encoding="utf-8"
        )
        monkeypatch.setenv("WEYL2UNI_TABLE_PATH", str(data))
        with pytest.raises(DomainError):  # one line cannot satisfy the counts
            load_table("G2")

    def test_explicit_path_argument(self, tmp_path):
        data = tmp_path / "tables.tsv"
        lines = ["G2\tgood\tA_0\tA_0"]
        # a fake but internally consistent G2 table: 6 labels, 5 names
        lines = [
            "G2\tgood\tA_0\tA_0",
            "G2\tgood\tA_1\tA_1",
            "G2\tgood\tA_1+Ã_1,Ã_1\tÃ_1",
            "G2\tgood\tA_2\tG_2(a_1)",
            "G2\tgood\tG_2\tG_2",
        ]
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        t = load_table("G2", path=str(data))
        assert t.phi("A_2") == "G_2(a_1)"


# a fake but internally consistent G2 table (6 labels, 5 names) and a copy
# of the same byte length that maps A_2 elsewhere
FAKE_G2 = (
    "G2\tgood\tA_0\tA_0\n"
    "G2\tgood\tA_1\tA_1\n"
    "G2\tgood\tA_1+Ã_1,Ã_1\tÃ_1\n"
    "G2\tgood\tA_2\tG_2(a_1)\n"
    "G2\tgood\tG_2\tG_2\n"
)
OTHER_G2 = FAKE_G2.replace("G_2(a_1)", "G_2(a_7)")
# same length again, but the first label no longer dominates its line
BROKEN_G2 = FAKE_G2.replace("A_1+Ã_1,Ã_1", "Ã_1,A_1+Ã_1")


def counting(monkeypatch, name):
    """Wrap exceptional.<name> so that its calls are counted."""
    calls = []
    original = getattr(exceptional, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(exceptional, name, wrapper)
    return calls


class TestTableCache:
    def test_unchanged_text_returns_the_same_object(self, tmp_path):
        assert load_table("E8", "p2") is load_table("E8", "p2")
        data = tmp_path / "tables.tsv"
        data.write_text(FAKE_G2, encoding="utf-8")
        assert load_table("G2", path=str(data)) is load_table("G2", path=str(data))

    def test_rewrite_with_the_same_mtime_is_reloaded(self, tmp_path):
        data = tmp_path / "tables.tsv"
        data.write_text(FAKE_G2, encoding="utf-8")
        stamp = data.stat()

        def rewrite(text):
            data.write_text(text, encoding="utf-8")
            os.utime(data, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
            assert (data.stat().st_mtime_ns, data.stat().st_size) == (
                stamp.st_mtime_ns, stamp.st_size)

        assert load_table("G2", path=str(data)).phi("A_2") == "G_2(a_1)"
        rewrite(OTHER_G2)
        assert load_table("G2", path=str(data)).phi("A_2") == "G_2(a_7)"
        rewrite(BROKEN_G2)
        with pytest.raises(DomainError, match="strictly dominate"):
            load_table("G2", path=str(data))

    def test_switching_the_env_var_gives_each_file_its_table(self, monkeypatch, tmp_path):
        first, second = tmp_path / "first.tsv", tmp_path / "second.tsv"
        first.write_text(FAKE_G2, encoding="utf-8")
        second.write_text(OTHER_G2, encoding="utf-8")
        for data, name in [(first, "G_2(a_1)"), (second, "G_2(a_7)"), (first, "G_2(a_1)")]:
            monkeypatch.setenv("WEYL2UNI_TABLE_PATH", str(data))
            assert load_table("G2").phi("A_2") == name
        monkeypatch.delenv("WEYL2UNI_TABLE_PATH")
        assert load_table("G2").phi("A_2") == "G_2(a_1)"
        assert len(load_table("G2").labels()) == EXPECTED_LABELS["G2"]

    def test_bad_data_raises_every_time_and_caches_nothing(self, monkeypatch, tmp_path):
        good = load_table("F4")
        cached = exceptional._cache
        checks = counting(monkeypatch, "verify_table")
        bad = tmp_path / "tables.tsv"
        bad.write_text(BROKEN_G2, encoding="utf-8")
        for attempt in range(3):
            with pytest.raises(DomainError):
                load_table("G2", path=str(bad))
            assert len(checks) == attempt + 1
            assert exceptional._cache is cached
        assert load_table("F4") is good
        assert len(checks) == 3

    def test_load_all_tables_parses_the_records_once(self, monkeypatch):
        monkeypatch.setattr(exceptional, "_cache", None)
        parses = counting(monkeypatch, "_parse_records")
        checks = counting(monkeypatch, "verify_table")
        first = load_all_tables()
        assert len(parses) == 1 and len(checks) == len(first) == 10
        second = load_all_tables()
        assert len(parses) == 1 and len(checks) == 10
        assert all(a is b for a, b in zip(first, second))


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_table_file_is_a_domain_error(tmp_path, kind):
    path = tmp_path / "tables.tsv"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(FAKE_G2.encode("utf-8") + b"G2\tgood\t\xff\xfe\tA_0\n")
    for _ in range(2):
        with pytest.raises(DomainError, match="tables.tsv"):
            load_table("G2", path=str(path))


class TestLookups:
    def test_phi_spot_values(self):
        assert load_table("F4").phi("A_3") == "B_2"
        assert load_table("E6").phi("E_6(a_2)") == "A_5+A_1"
        assert load_table("E8").phi("E_8(a_8)") == "2A_4"

    def test_psi_spot_values(self):
        assert str(load_table("F4").psi("C_3(a_1)")) == "A_3+Ã_1"
        assert str(load_table("E7").psi("4A_1")) == "7A_1"
        assert str(load_table("G2").psi("Ã_1")) == "A_1+Ã_1"

    def test_phi_psi_identity_everywhere(self):
        for table in load_all_tables():
            for line in table.lines:
                label = table.psi(line.name)
                assert label == line.labels[0]
                assert table.phi(label) == line.name

    def test_fixed_space_dim(self):
        assert load_table("E7").fixed_space_dim("4A_1") == 3
        assert load_table("E8").fixed_space_dim("A_0") == 8
        e7 = load_table("E7")
        fiber = [str(l) for l in e7.lines[6].labels]
        assert fiber == ["7A_1", "6A_1", "5A_1", "4A_1'"]
        assert [e7.fixed_space_dim(l) for l in fiber] == [0, 1, 2, 3]

    def test_unknown_label_and_name(self):
        t = load_table("G2")
        with pytest.raises(UnknownLabel):
            t.phi("E_8")
        with pytest.raises(UnknownLabel):
            t.psi("F_4(a_3)")


class TestPatchLines:
    def test_g2_p3_replacement(self):
        t = load_table("G2", "p3")
        rendered = [(",".join(map(str, l.labels)), l.name) for l in t.lines]
        assert ("A_1+Ã_1", "Ã_1") in rendered
        assert ("Ã_1", "(Ã_1)_3") in rendered
        assert ("A_1+Ã_1,Ã_1", "Ã_1") not in rendered

    def test_f4_p2_replacements(self):
        t = load_table("F4", "p2")
        rendered = [(",".join(map(str, l.labels)), l.name) for l in t.lines]
        for pair in [
            ("2A_1", "Ã_1"),
            ("Ã_1", "(Ã_1)_2"),
            ("A_2+Ã_2", "Ã_2+A_1"),
            ("Ã_2+A_1", "(Ã_2+A_1)_2"),
            ("A_3", "B_2"),
            ("B_2", "(B_2)_2"),
            ("A_3+Ã_1", "C_3(a_1)"),
            ("B_2+A_1", "(C_3(a_1))_2"),
        ]:
            assert pair in rendered

    def test_e8_p2_has_quoted_line(self):
        t = load_table("E8", "p2")
        rendered = [(",".join(map(str, l.labels)), l.name) for l in t.lines]
        assert ("A_7+A_1", "D_5+A_2") in rendered
        assert ("D_5+A_2", "(D_5+A_2)_2") in rendered

    def test_replacement_preserves_position(self):
        good = load_table("F4")
        patched = load_table("F4", "p2")
        # the two lines replacing [A_3, B_2] -> B_2 sit where it used to be,
        # shifted by the two earlier lines that were also split in two
        idx = [l.name for l in good.lines].index("B_2")
        pidx = [l.name for l in patched.lines].index("B_2")
        assert pidx == idx + 2
        assert str(patched.lines[pidx].labels[0]) == "A_3"
        assert patched.lines[pidx + 1].name == "(B_2)_2"


class TestVerifyTableCatchesMutations:
    def test_swapped_labels_fail(self):
        t = load_table("F4")
        lines = list(t.lines)
        i = next(k for k, l in enumerate(lines) if len(l.labels) > 1)
        swapped = TableLine((lines[i].labels[1], lines[i].labels[0]) + lines[i].labels[2:],
                            lines[i].name)
        mutated = dataclasses.replace(t, lines=tuple(lines[:i] + [swapped] + lines[i + 1:]))
        report = verify_table(mutated)
        assert not report.passed
        assert any("strictly dominate" in f for f in report.failures)

    def test_duplicate_label_fails(self):
        t = load_table("G2")
        lines = list(t.lines)
        dup = TableLine((lines[0].labels[0],), "bogus_name")
        mutated = dataclasses.replace(t, lines=tuple(lines + [dup]))
        report = verify_table(mutated)
        assert not report.passed
        assert any("duplicate label" in f for f in report.failures)

    def test_wrong_counts_fail(self):
        t = load_table("E6")
        mutated = dataclasses.replace(t, lines=t.lines[:-1])
        report = verify_table(mutated)
        assert not report.passed


def test_supported_characteristics_cover_spec():
    assert SUPPORTED_CHARACTERISTICS == {
        "G2": ("good", "p3"),
        "F4": ("good", "p2"),
        "E6": ("good",),
        "E7": ("good", "p2"),
        "E8": ("good", "p2", "p3"),
    }
