"""No input ends in a traceback: every parser, every CLI subcommand, every rank and cap.

The library parsers either return a value or raise ``DomainError``;
``cli.main`` exits 0, 1 or 2, and an exit 1 prints one ``error:`` line.
Generated partitions keep their totals at 20 or below, so that the
exponential type C fiber (2^k splits over ``2,2,4,4,...,2k,2k``) cannot
make an example slow.  Past that total, up to 60, only ``psi`` and ``phi``
are driven, on Jordan types drawn as values with multiplicities.
"""

from __future__ import annotations

import re
import unicodedata

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import outcome, parse_first
from test_cli_golden import run_cli
from weyl2uni import (
    ORTHOGONAL,
    SYMPLECTIC,
    DomainError,
    GroupKind,
    Partition,
    SignedCycleType,
    SweepConfig,
    iter_members,
    iter_partitions,
    load_table,
)
from weyl2uni.exceptional import GROUPS, SUPPORTED_CHARACTERISTICS, CarterLabel, normalize_name
from weyl2uni.weyl import SERIES

SUBCOMMANDS = ("phi", "psi", "fiber", "encode", "mc", "table", "verify")

TABLES = [load_table(g, c) for g in GROUPS for c in SUPPORTED_CHARACTERISTICS[g]]
LABELS = sorted({str(lab) for t in TABLES for lab in t.labels()})
NAMES = sorted({name for t in TABLES for name in t.names()})

junk = st.text(max_size=12)
# label-like text: the alphabet of Carter labels and unipotent names, with the aliases
label_junk = st.text(alphabet="ABCDEFG0123456789_()ab+'\"~t′″Ã", max_size=14)
JORDAN_TYPES = [c for n in range(21) for fam in (SYMPLECTIC, ORTHOGONAL) for c in iter_members(n, fam)]
partition_text = st.one_of(
    st.sampled_from(JORDAN_TYPES).map(Partition.text),
    st.sampled_from([c for n in range(21) for c in iter_partitions(n)]).map(Partition.text),
    st.lists(st.integers(-1, 21), max_size=8).map(lambda ps: ",".join(map(str, ps))),
)
small_partition_text = st.sampled_from([c.text() for n in range(11) for c in iter_partitions(n)])
class_text = st.one_of(
    st.builds("pos={};neg={}".format, small_partition_text, small_partition_text),
    st.builds("pos={};neg={}".format, junk, junk),
)

FLAG_VALUES = {
    "--series": st.sampled_from(SERIES),
    "--class": class_text,
    "--jordan": partition_text,
    "--nu": st.integers(-1, 21).map(str),
    "--group": st.sampled_from(GROUPS),
    "--p": st.sampled_from(("good", "0", "2", "3", "p2", "p3")),
    "--label": st.one_of(st.sampled_from(LABELS), label_junk),
    "--name": st.one_of(st.sampled_from(NAMES), label_junk),
    "--format": st.sampled_from(("text", "json", "tsv")),
    "--max-nu": st.integers(-1, 12).map(str),
    "--max-rank": st.integers(-1, 4).map(str),
}
# each subcommand's required flags, one tuple per form, and its optional flags
# (verify's --series and --all are drawn apart)
FORMS = {
    "phi": [("--series", "--class"), ("--group", "--label")],
    "psi": [("--series", "--jordan"), ("--group", "--name")],
    "fiber": [("--series", "--jordan")],
    "encode": [("--series", "--class")],
    "mc": [("--series", "--class"), ("--group", "--label")],
    "table": [("--group",)],
    "verify": [()],
}
OPTIONAL = {
    "phi": ("--p", "--format"),
    "psi": ("--nu", "--p", "--format"),
    "fiber": ("--nu", "--format"),
    "encode": ("--format",),
    "mc": ("--p", "--format"),
    "table": ("--p", "--format"),
    "verify": ("--max-nu", "--max-rank", "--format"),
}
verify_series = st.lists(st.sampled_from(SERIES + GROUPS), max_size=3).map(lambda s: ["--series", *s])


def value_of(flag: str):
    """A value of the flag's own kind, or junk where argparse does not check a choice."""
    if flag in ("--series", "--group", "--p", "--format"):
        return FLAG_VALUES[flag]
    return st.one_of(FLAG_VALUES[flag], FLAG_VALUES[flag], FLAG_VALUES[flag], junk)


def argv_of(sub: str):
    """One form's required flags (one of them dropped now and then), optional flags, rare junk."""
    required = st.sampled_from(FORMS[sub]).flatmap(
        lambda form: st.tuples(*[value_of(f).map(lambda v, f=f: [f, v]) for f in form]))
    optional = st.lists(st.sampled_from(OPTIONAL[sub]).flatmap(
        lambda f: value_of(f).map(lambda v: [f, v])), max_size=len(OPTIONAL[sub]))
    extras = st.just([])
    if sub == "verify":
        extras = st.lists(st.one_of(st.just(["--all"]), verify_series), max_size=2)
    drop = st.sampled_from([None] * 5 + [0, 1])
    foreign = st.sampled_from([[]] * 9 + [["--bogus"]])

    def assemble(req, opt, more, dropped, other):
        pairs = [pair for i, pair in enumerate(req) if i != dropped] + opt + more
        return [sub] + [tok for pair in pairs for tok in pair] + other

    return st.builds(assemble, required, optional, extras, drop, foreign)


argv = st.sampled_from(SUBCOMMANDS).flatmap(argv_of)


@pytest.fixture(scope="module", autouse=True)
def packaged_tables():
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("WEYL2UNI_TABLE_PATH", raising=False)
        mp.setenv("COLUMNS", "80")
        yield


def parses_or_refuses(parse, text):
    try:
        parse(text)
    except DomainError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.one_of(junk, partition_text))
def test_partition_from_text(text):
    parses_or_refuses(Partition.from_text, text)


@settings(max_examples=200, deadline=None)
@given(st.one_of(junk, class_text))
def test_signed_cycle_type_from_text(text):
    parses_or_refuses(SignedCycleType.from_text, text)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SERIES), st.one_of(st.integers(), st.floats(), st.booleans(), junk, st.none()))
def test_a_rank_or_cap_constructs_or_is_refused(series, x):
    for build in (lambda: GroupKind(series, x), lambda: SweepConfig(max_nu=x), lambda: SweepConfig(max_rank=x)):
        try:
            build()
        except DomainError:
            continue
        assert type(x) is int, x


@st.composite
def large_jordan_types(draw):
    """(series, Jordan type) of total up to 60: C, else B on an odd total and D on an even one, rank >= 1 (D: 2).

    Values are drawn largest first, each with a multiplicity of 1-4 that the
    remaining total allows, even for a value of the paired parity (odd on C,
    even on B and D), as in ``test_fiber_minimum.repeated_types``.
    """
    symplectic = draw(st.booleans())
    parts: list[int] = []
    for v in sorted(draw(st.sets(st.integers(1, 30), min_size=1, max_size=10)), reverse=True):
        step = 2 if v % 2 == symplectic else 1
        most = min(4, (60 - sum(parts)) // v)
        if most >= step:
            parts += [v] * draw(st.sampled_from(range(step, most + 1, step)))
    total = sum(parts)
    assume(total >= (2 if symplectic else 3))  # the least ranks: C1, B1 and D2
    return "C" if symplectic else "B" if total % 2 else "D", Partition(parts).text()


@settings(max_examples=200, deadline=None)
@given(large_jordan_types())
def test_psi_then_phi_round_trips_past_total_20(drawn):
    series, jordan = drawn
    psi = run_cli(["psi", "--series", series, "--jordan", jordan])
    assert (psi["exit"], psi["stderr"]) == (0, ""), drawn
    phi = run_cli(["phi", "--series", series, "--class", psi["stdout"].strip()])
    assert (phi["exit"], phi["stdout"], phi["stderr"]) == (0, jordan + "\n", ""), drawn


@settings(max_examples=200, deadline=None)
@given(st.one_of(junk, label_junk, st.sampled_from(LABELS)))
def test_carter_label_parse_and_normalize_name(text):
    assert isinstance(normalize_name(text), str)
    parses_or_refuses(CarterLabel.parse, text)


# The table lookups answer a string that is already an index key without
# parsing it; that is exact only while raw and normalize_name are fixed points.
@settings(max_examples=1000, deadline=None)
@given(label_junk)
def test_parse_is_a_fixed_point_on_raw(text):
    try:
        label = CarterLabel.parse(text)
    except DomainError:
        return
    assert CarterLabel.parse(label.raw) == label


@settings(max_examples=1000, deadline=None)
@given(st.one_of(junk, label_junk))
def test_normalize_name_is_idempotent(text):
    once = normalize_name(text)
    assert normalize_name(once) == once


def nfc_first(s: str) -> str:
    """The normal form with NFC and every replacement applied, whatever the text."""
    s = unicodedata.normalize("NFC", s.strip())
    s = s.replace("′", "'").replace("″", "''").replace('"', "''")
    s = s.replace("A~", "Ã").replace("~A", "Ã")
    return re.sub(r"(?<![A-Za-z_])tA(?=_)", "Ã", s)


def aliased(key: str, tilde: str, double: str, single: str, pad: str) -> str:
    return pad + key.replace("Ã", tilde).replace("''", double).replace("'", single) + pad


# every shipped label and name in a documented alias: an ASCII or Unicode
# tilde or prime, the NFD tilde "A\u0303", and padding
alias_text = st.builds(
    aliased,
    st.sampled_from(LABELS + NAMES),
    st.sampled_from(["Ã", "tA", "A~", "~A", "A\u0303"]),
    st.sampled_from(["''", '"', "″", "′′"]),
    st.sampled_from(["'", "′"]),
    st.sampled_from(["", " ", "\t", " \n"]),
)
lookup_text = st.one_of(label_junk, alias_text)
UNICODE_SPELLINGS = ["A\u0303_1", "Ã_1", "A_3+2A_1′", "D_8″", "A_5+A_1″", "(A\u0303_1)_3"]


@settings(max_examples=300, deadline=None)
@given(lookup_text)
def test_every_lookup_gets_the_parse_first_answer(text):
    for table in TABLES:
        for kind in ("phi", "psi", "fixed_space_dim"):
            expected = outcome(parse_first, table, kind, text)
            assert outcome(getattr(table, kind), text) == expected, (table.group, table.characteristic, kind)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(junk, lookup_text))
def test_normalize_name_matches_the_nfc_first_reference(text):
    assert normalize_name(text) == nfc_first(text)


@pytest.mark.parametrize("text", UNICODE_SPELLINGS)
def test_unicode_spellings_normalize_and_are_answered(text):
    assert normalize_name(text) == nfc_first(text)
    for table in TABLES:
        for kind in ("phi", "psi", "fixed_space_dim"):
            assert outcome(getattr(table, kind), text) == outcome(parse_first, table, kind, text)
    # each spells a label or name of some table
    assert any(outcome(t.phi, text)[0] == "value" or outcome(t.psi, text)[0] == "value" for t in TABLES)


@settings(max_examples=300, deadline=None)
@given(argv)
def test_cli_exits_0_1_or_2(args):
    result = run_cli(args)
    assert result["exit"] in (0, 1, 2), args
    if result["exit"] == 1:
        assert result["stdout"] == "", args
        assert result["stderr"].startswith("error: ") and result["stderr"].count("\n") == 1, args
