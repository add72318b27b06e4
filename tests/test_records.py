"""The value records: equality, hashing, frozenness and repr, and what importing costs.

The records are hand-written classes on ``partitions.Record``.  Each case
builds two equal records and one that differs in the named field, and pins
the repr the library has always printed.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from weyl2uni import CarterLabel, GroupKind, JordanType, MapTable, Partition, SignedCycleType, SweepConfig
from weyl2uni import type_bd, type_c
from weyl2uni.exceptional import TableLine

SRC = Path(__file__).resolve().parents[1] / "src"


def P(*parts):
    return Partition(parts)


def line(label="A_1", name="A_1"):
    return TableLine((CarterLabel.parse(label),), name)


CASES = {
    "type_c.Split": (
        lambda: type_c.Split(P(2), P(1, 1)),
        type_c.Split(P(), P(1, 1)),
        "r",
        "Split(r=Partition([2]), p=Partition([1, 1]))",
    ),
    "type_bd.Split": (
        lambda: type_bd.Split(P(3, 1), P(2, 2)),
        type_bd.Split(P(3, 1), P()),
        "p",
        "Split(r=Partition([3, 1]), p=Partition([2, 2]))",
    ),
    "GroupKind": (lambda: GroupKind("B", 3), GroupKind("C", 3), "series", "GroupKind(series='B', rank=3)"),
    "SignedCycleType": (
        lambda: SignedCycleType(P(2, 1), P(1)),
        SignedCycleType(P(1), P(2, 1)),
        "negative",
        "SignedCycleType(positive=Partition([2, 1]), negative=Partition([1]))",
    ),
    "JordanType": (
        lambda: JordanType(P(3, 1), 1),
        JordanType(P(3, 1, 1), 1),
        "parts",
        "JordanType(parts=Partition([3, 1]), epsilon=1)",
    ),
    "CarterLabel": (
        lambda: CarterLabel.parse("D_4(a_1)+2A_1"),
        CarterLabel.parse("D_4(a_1)+A_1"),
        "raw",
        "CarterLabel(raw='D_4(a_1)+2A_1', components=((1, 'D', 4, '(a_1)', ''), (2, 'A', 1, '', '')))",
    ),
    "TableLine": (
        line,
        line(name="A_2"),
        "name",
        "TableLine(labels=(CarterLabel(raw='A_1', components=((1, 'A', 1, '', ''),)),), name='A_1')",
    ),
    "MapTable": (
        lambda: MapTable("G2", 2, "good", (line(),)),
        MapTable("G2", 2, "p3", (line(),)),
        "characteristic",
        "MapTable(group='G2', weyl_rank=2, characteristic='good', lines=(TableLine(labels="
        "(CarterLabel(raw='A_1', components=((1, 'A', 1, '', ''),)),), name='A_1'),))",
    ),
    "SweepConfig": (
        lambda: SweepConfig(series=("C",), max_nu=4, max_rank=2),
        SweepConfig(series=("C",), max_nu=6, max_rank=2),
        "max_nu",
        "SweepConfig(series=('C',), max_nu=4, max_rank=2)",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_record_semantics(name):
    build, other, field, text = CASES[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and len({a, b, other}) == 2
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b
    assert copy.copy(a) == copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a
    assert repr(a) == text


def test_keyword_construction_and_class_level_defaults():
    # the verify defaults are class attributes; the CLI leaves unset caps to the constructor
    assert type_c.Split(r=P(2), p=P()) == type_c.Split(P(2), P())
    assert GroupKind(series="D", rank=4) == GroupKind("D", 4)
    assert SweepConfig() == SweepConfig(SweepConfig.series, 16, 5)
    assert (SweepConfig.max_nu, SweepConfig.max_rank) == (16, 5)


HEAVY = ("dataclasses", "inspect", "json", "typing", "importlib.resources", "pathlib",
         "zipfile", "tempfile")

COLD_PROBE = """
import sys
sys.path.insert(0, {src!r})
import weyl2uni
from weyl2uni import exceptional
exceptional.load_table("E8")
j = weyl2uni.JordanType(weyl2uni.Partition([8, 8, 6, 6, 5, 5, 2]), -1)
print(weyl2uni.psi_classical(j, weyl2uni.GroupKind("C", 20)).text())
print(",".join(m for m in {heavy!r} if m in sys.modules) or "-")
"""

CLI_COLD_PROBE = """
import sys
sys.path.insert(0, {src!r})
import weyl2uni.cli
print(",".join(m for m in {heavy!r} if m in sys.modules) or "-")
"""


LAZY_PROBE = """
import sys
sys.path.insert(0, {src!r})
import weyl2uni
print("weyl2uni.verify" in sys.modules)
weyl2uni.run_all
print("weyl2uni.verify" in sys.modules)
"""


def run_cold(probe: str) -> list[str]:
    """The words a probe prints; -S: no site packages, so only weyl2uni itself imports anything."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe.format(src=str(SRC), heavy=HEAVY)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cold_import_loads_only_the_stdlib_modules_it_uses():
    assert run_cold(COLD_PROBE) == ["pos=5;neg=4,4,3,3,1", "-"]


def test_cold_import_of_the_cli_loads_none_of_the_heavy_modules():
    # json is imported only when a command prints JSON
    assert run_cold(CLI_COLD_PROBE) == ["-"]


def test_cold_import_leaves_the_sweeps_unimported_until_first_use():
    assert run_cold(LAZY_PROBE) == ["False", "True"]


def test_every_exported_name_resolves_and_star_binds_them_all():
    import weyl2uni
    from weyl2uni import verify

    for name in weyl2uni.__all__:
        assert getattr(weyl2uni, name) is not None, name
    assert (weyl2uni.verify, weyl2uni.run_all) == (verify, verify.run_all)
    assert (weyl2uni.SweepConfig, weyl2uni.VerificationReport) == (verify.SweepConfig, verify.VerificationReport)
    namespace = {}
    exec("from weyl2uni import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(weyl2uni.__all__)
    assert not hasattr(weyl2uni, "no_such_name")
