import copy
import os
import pickle

import pytest

from conftest import outcome, parse_first
from weyl2uni import DomainError, UnknownLabel, exceptional
from weyl2uni.exceptional import (
    EXPECTED_LABELS,
    EXPECTED_NAMES,
    GROUPS,
    SUPPORTED_CHARACTERISTICS,
    CarterLabel,
    MapTable,
    TableLine,
    load_table,
    normalize_name,
    verify_table,
)


def all_tables():
    """Every supported (group, characteristic) table, loaded as ``check_exceptional`` does."""
    return [load_table(g, ch) for g in GROUPS for ch in SUPPORTED_CHARACTERISTICS[g]]


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
        assert CarterLabel.parse("4A_1").rank == 4
        assert CarterLabel.parse("10A_1").rank == 10
        assert CarterLabel.parse("A_0").rank == 0
        assert CarterLabel.parse("A_01+010A_1").rank == 11
        assert CarterLabel.parse("D_6(a_2)+A_1").rank == 7
        assert CarterLabel.parse("D_4(a_1)+2A_1").rank == 6
        assert CarterLabel.parse("A_7+A_1").rank == 8
        assert CarterLabel.parse("2D_4(a_1)").rank == 8
        assert CarterLabel.parse("A_3+2A_1''").rank == 5
        assert CarterLabel.parse("F_4(a_01)").rank == 4

    def test_leading_zeros_are_dropped_everywhere(self):
        # count, subscript and parenthetical index spell one label each way
        want = CarterLabel.parse("2D_4(a_1)")
        for s in ["02D_4(a_1)", "2D_04(a_1)", "2D_4(a_01)", "002D_004(a_001)"]:
            assert CarterLabel.parse(s) == want
            assert CarterLabel.parse(s).raw == "2D_4(a_1)"
        assert CarterLabel.parse("E_8(b_010)").raw == "E_8(b_10)"

    def test_raw_round_trips(self):
        for s in ["D_4(a_1)+2A_1", "A_3+2A_1''", "Ã_2+A_1", "E_8(a_8)", "G_2"]:
            label = CarterLabel.parse(s)
            assert label.raw == s
            assert CarterLabel.parse(label.raw) == label

    def test_parse_rejects_garbage(self):
        for bad in ["", "X_1", "A_", "A1", "A_1)))", "A_1+", "0A_1", "A_2+00A_1"]:
            with pytest.raises(DomainError):
                CarterLabel.parse(bad)
        # subscript 0 only as the whole label A_0
        for bad in ["2A_0", "A_1+A_0", "A_0+A_1", "D_0", "A_0'", "tA_0", "A_00"]:
            with pytest.raises(DomainError, match="cannot parse Carter label component"):
                CarterLabel.parse(bad)
        # a parenthetical index starts at 1, as a subscript does
        for bad in ["E_6(a_0)", "D_4(b_00)", "A_3(a_0)'", "A_1+D_4(a_0)"]:
            with pytest.raises(DomainError, match="cannot parse Carter label component"):
                CarterLabel.parse(bad)
        assert [CarterLabel.parse(s).rank for s in ("D_4(a_01)", "E_8(b_10)")] == [4, 8]

    def test_primes_and_parens_do_not_change_rank(self):
        assert [CarterLabel.parse(s).rank for s in ("A_5", "A_5'", "A_5''")] == [5, 5, 5]
        assert CarterLabel.parse("E_7(a_4)").rank == CarterLabel.parse("E_7(a_1)").rank == 7


class TestStoredRank:
    """rank is computed once by ``__init__`` into a slot that is not a field."""

    def test_every_shipped_label_stores_its_component_sum(self):
        for table in all_tables():
            for lab in table.labels():
                assert lab.rank == sum(count * sub for count, _, sub, _, _ in lab.components)
                assert type(lab.rank) is int

    def test_rank_is_out_of_repr_equality_and_hash(self):
        lab = CarterLabel.parse("D_4(a_1)+2A_1")
        assert "rank" not in repr(lab)
        other = CarterLabel.parse("D_4(a_1)+2A_1")
        object.__setattr__(other, "rank", lab.rank + 1)  # a rank no __init__ would store
        assert other == lab and hash(other) == hash(lab)
        assert hash(lab) == hash((lab.raw, lab.components))

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda lab: pickle.loads(pickle.dumps(lab))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_rank_survives_copies_and_pickles(self, clone):
        for lab in load_table("E8", "p2").labels():
            twin = clone(lab)
            assert (twin, twin.rank) == (lab, lab.rank)

    def test_rank_cannot_be_assigned_or_deleted(self):
        lab = CarterLabel.parse("A_1")
        with pytest.raises(AttributeError):
            lab.rank = 2
        with pytest.raises(AttributeError):
            del lab.rank
        assert lab.rank == 1


class TestLoadTable:
    def test_all_supported_pairs_load_and_validate(self):
        for table in all_tables():
            failures = verify_table(table)
            assert not failures, failures

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


@pytest.mark.parametrize(
    "patch, message",
    [
        (  # drops the label Ã_1 of its base line
            "G2\tp3\tA_1+Ã_1\tÃ_1\n",
            "patch lines for base line 'Ã_1' of G2 cover ['A_1+Ã_1'], "
            "expected exactly ['A_1+Ã_1', 'Ã_1']",
        ),
        (  # spans the base lines of A_1 and A_2
            "G2\tp3\tA_1,A_2\tA_1\n",
            "patch line for 'A_1' does not sit inside a single base line of G2",
        ),
        (  # adds the label A_3, which no base line holds
            "G2\tp3\tA_1+Ã_1\tÃ_1\nG2\tp3\tÃ_1,A_3\t(Ã_1)_3\n",
            "patch line for '(Ã_1)_3' does not sit inside a single base line of G2",
        ),
    ],
    ids=["drops_a_label", "spans_two_lines", "adds_a_label"],
)
def test_a_patch_that_changes_the_label_set_is_refused(monkeypatch, tmp_path, patch, message):
    data = tmp_path / "tables.tsv"
    data.write_text(FAKE_G2 + patch, encoding="utf-8")
    monkeypatch.setenv("WEYL2UNI_TABLE_PATH", str(data))
    with pytest.raises(DomainError) as err:
        load_table("G2", "p3")
    assert str(err.value) == message


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
    def test_unchanged_text_returns_the_same_object(self, monkeypatch, tmp_path):
        assert load_table("E8", "p2") is load_table("E8", "p2")
        data = tmp_path / "tables.tsv"
        data.write_text(FAKE_G2, encoding="utf-8")
        monkeypatch.setenv("WEYL2UNI_TABLE_PATH", str(data))
        assert load_table("G2") is load_table("G2")

    def test_rewrite_with_the_same_mtime_is_reloaded(self, monkeypatch, tmp_path):
        data = tmp_path / "tables.tsv"
        data.write_text(FAKE_G2, encoding="utf-8")
        monkeypatch.setenv("WEYL2UNI_TABLE_PATH", str(data))
        stamp = data.stat()

        def rewrite(text):
            data.write_text(text, encoding="utf-8")
            os.utime(data, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
            assert (data.stat().st_mtime_ns, data.stat().st_size) == (
                stamp.st_mtime_ns, stamp.st_size)

        assert load_table("G2").phi("A_2") == "G_2(a_1)"
        rewrite(OTHER_G2)
        assert load_table("G2").phi("A_2") == "G_2(a_7)"
        rewrite(BROKEN_G2)
        with pytest.raises(DomainError, match="strictly dominate"):
            load_table("G2")

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
        monkeypatch.setenv("WEYL2UNI_TABLE_PATH", str(bad))
        for attempt in range(3):
            with pytest.raises(DomainError):
                load_table("G2")
            assert len(checks) == attempt + 1
            assert exceptional._cache is cached
        monkeypatch.delenv("WEYL2UNI_TABLE_PATH")
        assert load_table("F4") is good
        assert len(checks) == 3

    def test_load_all_tables_parses_the_records_once(self, monkeypatch):
        monkeypatch.setattr(exceptional, "_cache", None)
        parses = counting(monkeypatch, "_parse_records")
        checks = counting(monkeypatch, "verify_table")
        first = all_tables()
        assert len(parses) == 1 and len(checks) == len(first) == 10
        second = all_tables()
        assert len(parses) == 1 and len(checks) == 10
        assert all(a is b for a, b in zip(first, second))


def test_a_cache_hit_compares_bytes_and_decodes_nothing(monkeypatch, tmp_path):
    data = tmp_path / "tables.tsv"
    data.write_text(FAKE_G2, encoding="utf-8")
    monkeypatch.setenv("WEYL2UNI_TABLE_PATH", str(data))
    decodes = counting(monkeypatch, "_decode")
    first = load_table("G2")
    assert len(decodes) == 1
    assert load_table("G2") is first
    assert len(decodes) == 1
    # the same text with other line endings is other bytes: decoded again,
    # and it parses to the same table
    data.write_bytes(FAKE_G2.replace("\n", "\r\n").encode("utf-8"))
    again = load_table("G2")
    assert len(decodes) == 2 and again is not first and again == first


def test_a_file_longer_than_one_read_gives_the_packaged_tables(monkeypatch, tmp_path):
    with open(exceptional._PACKAGED_TABLES, encoding="utf-8") as f:
        text = f.read()
    comments = "# a comment line, repeated to push the records past the first read of the file\n" * 1000
    data = tmp_path / "tables.tsv"
    data.write_text(comments + text + comments, encoding="utf-8")
    assert len(comments) > exceptional._READ_CHUNK >= 64 * 1024
    packaged = all_tables()
    monkeypatch.setenv("WEYL2UNI_TABLE_PATH", str(data))
    assert all_tables() == packaged


def test_each_load_of_an_unchanged_file_opens_it_again(monkeypatch, tmp_path):
    data = tmp_path / "tables.tsv"
    data.write_text(FAKE_G2, encoding="utf-8")
    monkeypatch.setenv("WEYL2UNI_TABLE_PATH", str(data))
    opened = []
    os_open = os.open
    monkeypatch.setattr(os, "open", lambda path, *args: opened.append(path) or os_open(path, *args))
    first = load_table("G2")
    assert load_table("G2") is first
    assert opened == [str(data)] * 2


def test_a_non_utf8_table_names_the_byte(monkeypatch, tmp_path):
    path = tmp_path / "tables.tsv"
    head = FAKE_G2.encode("utf-8") + b"G2\tgood\t"
    path.write_bytes(head + b"\xff\xfe\tA_0\n")
    monkeypatch.setenv("WEYL2UNI_TABLE_PATH", str(path))
    with pytest.raises(DomainError) as exc:
        load_table("G2")
    assert str(exc.value) == (
        f"table file {path} is not UTF-8 text (byte {len(head)}: invalid start byte)"
    )


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_table_file_is_a_domain_error(monkeypatch, tmp_path, kind):
    path = tmp_path / "tables.tsv"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(FAKE_G2.encode("utf-8") + b"G2\tgood\t\xff\xfe\tA_0\n")
    monkeypatch.setenv("WEYL2UNI_TABLE_PATH", str(path))
    for _ in range(2):
        with pytest.raises(DomainError, match="tables.tsv"):
            load_table("G2")


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
        for table in all_tables():
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

    def test_fixed_space_dim_refuses_a_label_above_the_weyl_rank(self):
        assert load_table("G2").fixed_space_dim("A_2") == 0
        with pytest.raises(DomainError) as exc:
            load_table("G2").fixed_space_dim("A_7")
        assert str(exc.value) == "label A_7 has rank 7 above the Weyl rank"

    def test_unknown_label_and_name(self):
        t = load_table("G2")
        with pytest.raises(UnknownLabel):
            t.phi("E_8")
        with pytest.raises(UnknownLabel):
            t.psi("F_4(a_3)")


def spellings(table):
    """Canonical, alias, padded, unknown and unparseable spellings, and non-strings."""
    keys = [str(lab) for lab in table.labels()] + table.names()
    aliases = [
        key.replace("Ã", tilde).replace("''", quote)
        for key in keys
        if "Ã" in key or "''" in key
        for tilde, quote in (("tA", '"'), ("A~", "''"), ("~A", "″"))
    ]
    padded = [f" {key}\t" for key in keys[::7]]
    odd = ["E_8", "A_7", "F_4(a_3)", "A_01", "2A_01''", "A_00", "", "  ", "A_", "X_1", "A_1+"]
    objects = [None, 7, b"A_1", ("A_1",), ["A_1"]]
    objects += [CarterLabel.parse("A_1"), CarterLabel.parse("E_8")]
    return keys + aliases + padded + odd + objects


class TestIndexProbe:
    """A string that is a key of the index is answered from it, with the parse-first answer."""

    def test_every_shipped_label_and_name_is_a_fixed_point(self):
        labels = [lab for t in all_tables() for lab in t.labels()]
        names = [name for t in all_tables() for name in t.names()]
        assert (len(labels), len(names)) == (543, 374)
        for lab in labels:
            assert CarterLabel.parse(lab.raw) == lab
        for name in names:
            assert normalize_name(name) == name

    @pytest.mark.parametrize("kind", ["phi", "psi", "fixed_space_dim"])
    def test_every_spelling_gets_the_parse_first_answer(self, kind):
        for table in all_tables():
            for arg in spellings(table):
                expected = outcome(parse_first, table, kind, arg)
                assert outcome(getattr(table, kind), arg) == expected, (table.group, arg)

    def test_a_canonical_spelling_is_not_parsed(self, monkeypatch):
        table = load_table("E8")
        calls = []
        parse = CarterLabel.parse.__func__
        monkeypatch.setattr(
            CarterLabel, "parse", classmethod(lambda cls, s: calls.append(s) or parse(cls, s))
        )
        names = counting(monkeypatch, "normalize_name")
        for lab in table.labels():
            table.phi(lab.raw)
            table.fixed_space_dim(lab.raw)
        for name in table.names():
            table.psi(name)
        assert (calls, names) == ([], [])
        # an ASCII alias is a key too: neither normalized nor parsed
        assert (table.phi('A_3+2A_1"'), table.fixed_space_dim('A_3+2A_1"')) == ("A_3+2A_1", 3)
        assert (calls, names) == ([], [])
        # a miss whose normal form is a key is normalized once and not parsed
        assert table.phi("A_1 ") == "A_1"
        assert table.fixed_space_dim("A_3+2A_1″") == 3
        assert table.psi("A_1 ").raw == "A_1"
        assert calls == []
        assert names == [("A_1 ",), ("A_3+2A_1″",), ("A_1 ",)]
        del names[:]
        # a normal form outside the index is parsed once, and parse normalizes too
        assert table.fixed_space_dim("tA_1+A_1") == 6  # Ã_1+A_1 is no E8 class, but parses
        assert table.phi("A_01") == "A_1"
        with pytest.raises(DomainError) as err:
            table.phi("X_1")
        assert (type(err.value), str(err.value)) == (
            DomainError,
            "cannot parse Carter label component 'X_1' of 'X_1'",
        )
        assert calls == ["tA_1+A_1", "A_01", "X_1"]
        assert names == [(s,) for s in ("tA_1+A_1", "A_01", "X_1") for _ in range(2)]

    @pytest.mark.parametrize("arg", [None, b"A_1", 3], ids=["None", "bytes", "int"])
    def test_an_argument_that_is_not_text_is_refused(self, arg):
        table = load_table("E8")
        for kind in ("phi", "psi", "fixed_space_dim"):
            with pytest.raises(DomainError) as err:
                getattr(table, kind)(arg)
            assert (type(err.value), str(err.value)) == (DomainError, f"expected text, got {arg!r}"), kind
        with pytest.raises(DomainError, match="^expected text, got CarterLabel"):
            table.psi(CarterLabel.parse("A_1"))

    def test_every_alias_of_a_key_is_answered_without_a_parse(self, monkeypatch):
        keyed = [
            (table, arg, parse_first(table, "phi", arg), parse_first(table, "fixed_space_dim", arg))
            for table in all_tables()
            for arg in spellings(table)
            if isinstance(arg, str) and normalize_name(arg) in {lab.raw for lab in table.labels()}
        ]
        assert len(keyed) > 1000
        monkeypatch.setattr(CarterLabel, "parse", None)  # any parse would raise TypeError
        for table, arg, name, dim in keyed:
            assert (table.phi(arg), table.fixed_space_dim(arg)) == (name, dim), arg


# The documented ASCII spellings of each mark, written here independently of
# the library: every Ã as tA, A~ or ~A, and every '' as ", one by one.
ASCII = {"Ã": ("Ã", "tA", "A~", "~A"), "''": ("''", '"')}


def ascii_spellings(key):
    """Every spelling of key with each mark replaced on its own, the key first."""
    out = [""]
    i = 0
    while i < len(key):
        mark = "''" if key.startswith("''", i) else key[i]
        out = [head + s for head in out for s in ASCII.get(mark, (mark,))]
        i += len(mark)
    return out


def table_keys(table):
    return [lab.raw for lab in table.labels()] + table.names()


class TestAnswerIndex:
    """Each key and each ASCII alias of it is answered by one probe, as the parse-first route answers."""

    def test_every_key_and_alias_gets_the_parse_first_answer_without_normalizing(self, monkeypatch):
        cases = [
            (table, kind, arg)
            for table in all_tables()
            for key in table_keys(table)
            for arg in ascii_spellings(key)
            for kind in ("phi", "psi", "fixed_space_dim")
        ]
        expected = [outcome(parse_first, *case) for case in cases]
        keyed = {
            (table.group, table.characteristic, kind): ascii_spellings_of_kind(table, kind)
            for table in all_tables()
            for kind in ("phi", "psi", "fixed_space_dim")
        }
        names = counting(monkeypatch, "normalize_name")
        seen = 0
        for (table, kind, arg), want in zip(cases, expected):
            before = len(names)
            assert outcome(getattr(table, kind), arg) == want, (table.group, kind, arg)
            if arg in keyed[table.group, table.characteristic, kind]:
                assert len(names) == before, (table.group, kind, arg)  # one probe, no normal form
                seen += 1
        assert seen > 1500

    def test_a_label_is_answered_by_one_probe_as_its_text_is(self, monkeypatch):
        # phi and fixed_space_dim also key each answer by the table's label:
        # that label, or an equal one built apart, is neither normalized nor
        # parsed, and is answered by one probe of the answer dict, a hit
        probes = []

        class Probed(dict):
            def __getitem__(self, key):
                probes.append((key, key in self))
                return dict.__getitem__(self, key)

            def get(self, key, default=None):
                probes.append((key, key in self))
                return dict.get(self, key, default)

        cases = []
        for shared in all_tables():
            table = MapTable(shared.group, shared.weyl_rank, shared.characteristic, shared.lines)
            for slot in ("_phi", "_dims"):
                object.__setattr__(table, slot, Probed(getattr(table, slot)))
            cases += [(table, lab) for lab in table.labels()]
            cases += [(table, CarterLabel(lab.raw, lab.components)) for lab in table.labels()]

        def refuse(*args):
            raise AssertionError("a label lookup normalized or parsed its argument")

        monkeypatch.setattr(exceptional, "normalize_name", refuse)
        monkeypatch.setattr(CarterLabel, "parse", classmethod(refuse))
        for table, lab in cases:
            for kind in ("phi", "fixed_space_dim"):
                lookup = getattr(table, kind)
                probes.clear()
                assert lookup(lab) == lookup(lab.raw), (table.group, kind, lab.raw)
                assert probes == [(lab, True), (lab.raw, True)], (table.group, kind, lab.raw)
        assert len(cases) > 1000

    def test_no_alias_is_a_key(self):
        seen = 0
        for table in all_tables():
            keys = set(table_keys(table))
            aliases = {a for key in keys for a in ascii_spellings(key)[1:]}
            assert not aliases & keys, table.group
            assert all(normalize_name(a) in keys for a in aliases)
            seen += len(aliases)
        assert seen > 100

    @pytest.mark.parametrize("kind", ["phi", "psi", "fixed_space_dim"])
    def test_unicode_padded_and_non_text_arguments_take_the_miss_path(self, monkeypatch, kind):
        args = []
        for table in all_tables():
            for key in table_keys(table):
                nfd = key.replace("Ã", "A\u0303")
                primes = key.replace("''", "″").replace("'", "′")
                args += [(table, a) for a in {nfd, primes, f"{key} ", f"\t{key}"} - {key}]
            args += [(table, lab) for lab in table.labels()[::3]]
            args += [(table, a) for a in (["A_1"], {"A_1": 1}, {"A_1"}, bytearray(b"A_1"))]
        expected = [outcome(parse_first, table, kind, arg) for table, arg in args]
        names = counting(monkeypatch, "normalize_name")
        for (table, arg), want in zip(args, expected):
            before = len(names)
            assert outcome(getattr(table, kind), arg) == want, (table.group, arg)
            if not isinstance(arg, CarterLabel) or kind == "psi":
                assert len(names) > before, (table.group, arg)  # probed again in normal form
        assert any(v[0] is DomainError and v[1].startswith("expected text") for v in expected)


def ascii_spellings_of_kind(table, kind):
    """The spellings a lookup of this kind answers by one probe: its keys and their ASCII aliases."""
    if kind == "psi":
        keys = table.names()
    else:
        keys = [lab.raw for lab in table.labels() if lab.rank <= table.weyl_rank]
    return {a for key in keys for a in ascii_spellings(key)}


class TestSharedLabels:
    def test_tables_of_one_content_share_their_labels(self):
        shared = {}
        for table in all_tables():
            for lab in table.labels():
                assert shared.setdefault(lab.raw, lab) is lab, (table.group, lab.raw)

    def test_each_label_text_is_parsed_once_per_content(self, monkeypatch, tmp_path):
        with open(exceptional._PACKAGED_TABLES, encoding="utf-8") as f:
            text = f.read()
        distinct = {
            label
            for line in text.splitlines()
            if line.strip() and not line.startswith("#")
            for label in line.split("\t")[2].split(",")
        }
        assert len(distinct) == 140
        calls = []
        parse = CarterLabel.parse.__func__
        monkeypatch.setattr(
            CarterLabel, "parse", classmethod(lambda cls, s: calls.append(s) or parse(cls, s))
        )
        monkeypatch.setattr(exceptional, "_cache", None)
        first = all_tables()
        assert sorted(calls) == sorted(distinct)
        del calls[:]
        all_tables()
        assert calls == []
        # the same records in a new content: parsed afresh, once each
        data = tmp_path / "tables.tsv"
        data.write_text(text + "# one more comment\n", encoding="utf-8")
        monkeypatch.setenv("WEYL2UNI_TABLE_PATH", str(data))
        fresh = all_tables()
        assert sorted(calls) == sorted(distinct)
        assert fresh == first and fresh[0].labels()[0] is not first[0].labels()[0]


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
        mutated = MapTable(t.group, t.weyl_rank, t.characteristic, tuple(lines[:i] + [swapped] + lines[i + 1:]))
        failures = verify_table(mutated)
        assert any("strictly dominate" in f for f in failures)

    def test_duplicate_label_fails(self):
        t = load_table("G2")
        lines = list(t.lines)
        dup = TableLine((lines[0].labels[0],), "bogus_name")
        mutated = MapTable(t.group, t.weyl_rank, t.characteristic, tuple(lines + [dup]))
        failures = verify_table(mutated)
        assert any("duplicate label" in f for f in failures)

    def test_wrong_counts_fail(self):
        t = load_table("E6")
        mutated = MapTable(t.group, t.weyl_rank, t.characteristic, t.lines[:-1])
        assert verify_table(mutated)


def test_supported_characteristics_cover_spec():
    assert SUPPORTED_CHARACTERISTICS == {
        "G2": ("good", "p3"),
        "F4": ("good", "p2"),
        "E6": ("good",),
        "E7": ("good", "p2"),
        "E8": ("good", "p2", "p3"),
    }
