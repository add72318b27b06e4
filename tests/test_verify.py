import json

import pytest

from weyl2uni import DomainError, Partition
from weyl2uni import exceptional, type_bd, verify
from weyl2uni.cli import main


def scrub(report_json: dict) -> dict:
    for check in report_json["checks"]:
        check["seconds"] = 0.0
    return report_json


class TestSweepConfig:
    def test_caps(self):
        with pytest.raises(DomainError):
            verify.SweepConfig(max_nu=31)
        with pytest.raises(DomainError):
            verify.SweepConfig(max_rank=8)
        with pytest.raises(DomainError):
            verify.SweepConfig(series=("Z",))


class TestReports:
    def test_full_run_passes(self):
        report = verify.run_all(verify.SweepConfig(max_nu=12, max_rank=4))
        assert report.passed
        assert report.counterexamples == []
        names = [c.name for c in report.checks]
        assert "unique_minimum[C]" in names and "table[E8,p3]" in names

    def test_deterministic(self):
        cfg = verify.SweepConfig(max_nu=10, max_rank=3)
        a = scrub(verify.run_all(cfg).to_json())
        b = scrub(verify.run_all(cfg).to_json())
        assert a == b

    def test_very_even_skip_note(self):
        report = verify.check_classical(verify.SweepConfig(series=("D",), max_nu=8))
        (check,) = report.checks
        assert check.passed
        assert any("very even" in note for note in check.notes)

    def test_series_selection(self):
        report = verify.run_all(verify.SweepConfig(series=("C", "G2"), max_nu=8, max_rank=3))
        names = [c.name for c in report.checks]
        assert names == ["unique_minimum[C]", "fixed_space_bridge[C]",
                         "table[G2,good]", "table[G2,p3]"]

    def test_text_rendering(self):
        report = verify.run_all(verify.SweepConfig(series=("C",), max_nu=6, max_rank=2))
        text = report.text()
        assert text.startswith("PASS unique_minimum[C]")
        assert text.endswith("OVERALL PASS")


class TestMutationSensitivity:
    def test_flipping_even_routing_is_caught(self, monkeypatch):
        # force the "keep in r" branch for the even value 2: the canonical
        # split of (5,3,2,2) then leaves the chained family and the sweep
        # must report it
        original = type_bd._star

        def mutated(odds, e):
            if e == 2:
                return False
            return original(odds, e)

        monkeypatch.setattr(type_bd, "_star", mutated)
        with pytest.raises(DomainError):
            type_bd.canonical_split(Partition([5, 3, 2, 2]))
        report = verify.check_classical(verify.SweepConfig(series=("D",), max_nu=12))
        assert not report.passed
        assert any(ce.get("jordan") == "5,3,2,2" for ce in report.counterexamples)

    def test_flipping_odd_routing_is_caught(self, monkeypatch):
        # the opposite flip: push the 2s of (3,2,2) into p; the canonical
        # split is then valid but no longer the fiber minimum
        original = type_bd._star

        def mutated(odds, e):
            if e == 2:
                return True
            return original(odds, e)

        monkeypatch.setattr(type_bd, "_star", mutated)
        report = verify.check_classical(verify.SweepConfig(series=("B",), max_nu=7))
        assert not report.passed
        assert any(ce.get("jordan") == "3,2,2" for ce in report.counterexamples)

    def test_a_fault_in_the_fiber_walk_is_a_counterexample(self, monkeypatch, capsys):
        # an automaton step that accepts any r makes the walk raise its
        # family-R guard: the sweep records it and goes on to its other checks
        monkeypatch.setattr(type_bd, "_r_step", lambda state, e, m: state)
        report = verify.run_all(verify.SweepConfig(series=("D",), max_nu=8, max_rank=2))
        walk, bridge = report.checks
        assert (walk.name, walk.passed) == ("unique_minimum[D]", False)
        assert (bridge.name, bridge.passed) == ("fixed_space_bridge[D]", True)
        assert walk.counterexamples[0] == {
            "jordan": "1,1",
            "error": "fiber walk over 1,1 accepted r=1,1 outside family R",
            "series": "D",
            "reproduce": "weyl2uni fiber --series D --jordan 1,1",
        }
        assert all("fiber walk over" in ce["error"] for ce in walk.counterexamples)
        # the command line dumps the failing report, not an error line
        assert main(["verify", "--series", "D", "--max-nu", "8", "--max-rank", "2"]) == 1
        out, err = capsys.readouterr()
        assert err == "" and scrub(json.loads(out)) == scrub(report.to_json())

    def test_each_counterexample_carries_a_command_that_reproduces_it(self, monkeypatch, capsys):
        original = type_bd._star
        monkeypatch.setattr(type_bd, "_star", lambda odds, e: e == 2 or original(odds, e))
        report = verify.check_classical(verify.SweepConfig(series=("B", "D"), max_nu=9))
        assert len(report.counterexamples) >= 4
        for ce in report.counterexamples:
            command = ce["reproduce"].split()
            assert command == ["weyl2uni", "fiber", "--series", ce["series"], "--jordan", ce["jordan"]]
            assert main(command[1:]) == 0
            # the listing puts the true minimum first, and the claim is not it
            listing = capsys.readouterr().out.splitlines()
            assert ce["claimed"] in listing and listing[0] != ce["claimed"]

    def test_table_mutation_is_caught(self):
        t = exceptional.load_table("E7")
        lines = list(t.lines)
        i = next(k for k, l in enumerate(lines) if len(l.labels) > 1)
        swapped = exceptional.TableLine(
            (lines[i].labels[-1],) + lines[i].labels[1:-1] + (lines[i].labels[0],),
            lines[i].name,
        )
        mutated = exceptional.MapTable(
            t.group, t.weyl_rank, t.characteristic, tuple(lines[:i] + [swapped] + lines[i + 1:])
        )
        assert exceptional.verify_table(mutated)

    def test_corrupted_data_file_is_caught(self, monkeypatch, tmp_path):
        # swap two labels of one line in a copy of the shipped data
        from importlib import resources

        text = resources.files("weyl2uni").joinpath("data/phi_tables.tsv").read_text("utf-8")
        out = []
        for line in text.splitlines():
            if line.startswith("F4\tgood\tA_3,B_2"):
                line = line.replace("A_3,B_2", "B_2,A_3")
            out.append(line)
        bad = tmp_path / "tables.tsv"
        bad.write_text("\n".join(out) + "\n", encoding="utf-8")
        monkeypatch.setenv("WEYL2UNI_TABLE_PATH", str(bad))
        report = verify.check_exceptional(verify.SweepConfig(series=("F4",)))
        assert not report.passed
