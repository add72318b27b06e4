import json
import shlex

import pytest

from conftest import route_twos
from weyl2uni import DomainError, Partition
from weyl2uni import cli, exceptional, type_bd, type_c, verify
from weyl2uni.cli import main
from weyl2uni.partitions import iter_members
from weyl2uni.weyl import SIDES, TOTAL_PARITY


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

    def test_the_scan_and_the_listing_read_one_walk(self, monkeypatch):
        # the (r, p-length) pairs the scan reads are, in order, those of the
        # public listing: both come from one walk
        read = []

        def recording(original):
            def claim_and_walk(c):
                claimed, walk = original(c)
                return claimed, (read.append((r, len(p))) or (r, p) for r, p in walk)
            return claim_and_walk

        for side in (type_c, type_bd):
            monkeypatch.setattr(side, "_claim_and_walk", recording(side._claim_and_walk))
        seen = 0
        for series, side in SIDES.items():
            for nu in range(TOTAL_PARITY[series], 17, 2):
                for c in iter_members(nu, side.FAMILY):
                    read.clear()
                    assert verify._scan_unique_minimum(side, c) is None
                    assert read == [(x.r, len(x.p)) for x in side.iter_fiber(c)], c.text()
                    seen += 1
        assert seen > 400


class TestMutationSensitivity:
    def test_flipping_even_routing_is_caught(self, monkeypatch):
        # force the "keep in r" branch for the even value 2: the canonical
        # split of (5,3,2,2) then leaves the chained family and the sweep
        # must report it
        route_twos(monkeypatch, lambda q: q)
        with pytest.raises(DomainError):
            type_bd.canonical_split(Partition([5, 3, 2, 2]))
        report = verify.check_classical(verify.SweepConfig(series=("D",), max_nu=12))
        assert not report.passed
        assert any(ce.get("jordan") == "5,3,2,2" for ce in report.counterexamples)

    def test_flipping_odd_routing_is_caught(self, monkeypatch):
        # the opposite flip: push the 2s of (3,2,2) into p; the canonical
        # split is then valid but no longer the fiber minimum
        route_twos(monkeypatch, lambda q: 0)
        report = verify.check_classical(verify.SweepConfig(series=("B",), max_nu=7))
        assert not report.passed
        assert any(ce.get("jordan") == "3,2,2" for ce in report.counterexamples)

    def test_a_fault_in_the_fiber_walk_is_a_counterexample(self, monkeypatch, capsys):
        # an automaton step that accepts any r makes the walk raise its
        # family-R guard: the sweep records it and goes on to its other checks
        monkeypatch.setattr(type_bd, "_r_step", lambda state, odd, m: state)
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

    @pytest.mark.parametrize(
        "side, jordan, claim, tie, expected",
        [
            (type_c, (4, 4, 2, 2), ((4, 4), (2, 2)), (2, 2),
             '{"jordan": "4,4,2,2", "claimed": "r=4,4;p=2,2", "tied": "r=2,2;p=4,4"}'),
            (type_bd, (3, 2, 2, 1, 1), ((3, 2, 2), (1, 1)), (3, 1, 1),
             '{"jordan": "3,2,2,1,1", "claimed": "r=3,2,2;p=1,1", "tied": "r=3,1,1;p=2,2"}'),
        ],
        ids=["C", "BD"],
    )
    def test_a_tie_at_the_claimed_length_is_a_counterexample(self, monkeypatch, side, jordan, claim, tie, expected):
        # the routing mutations always meet a smaller element first, so the
        # tie branch is reached with a forged claim: a non-minimal split of c,
        # handed with c's real walk less the true minimum (and less the tie)
        c = Partition(jordan)
        minimum = side.minimal_split(c).r
        original = side._claim_and_walk

        def forged(dropped):
            def claim_and_walk(c):
                walk = original(c)[1]
                return side.Split(*map(Partition, claim)), (leaf for leaf in walk if leaf[0] not in dropped)
            return claim_and_walk

        monkeypatch.setattr(side, "_claim_and_walk", forged({minimum}))
        assert json.dumps(verify._scan_unique_minimum(side, c)) == expected
        # left as the only element at its length, the claim passes
        monkeypatch.setattr(side, "_claim_and_walk", forged({minimum, tie}))
        assert verify._scan_unique_minimum(side, c) is None

    def test_each_counterexample_carries_a_command_that_reproduces_it(self, monkeypatch, capsys):
        route_twos(monkeypatch, lambda q: 0)
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

    def test_a_bridge_counterexample_carries_a_command_that_reproduces_it(self, monkeypatch, capsys):
        # a formula that counts negative cycles as fixed lines: the sweep
        # names the class, and its mc command prints the faulty formula
        def wrong(w):
            return len(w.positive) + len(w.negative)

        monkeypatch.setattr(verify, "fixed_space_dim", wrong)
        monkeypatch.setattr(cli, "fixed_space_dim", wrong)
        report = verify.check_bridge(verify.SweepConfig(series=("B", "C"), max_rank=3))
        assert len(report.counterexamples) > 10
        for ce in report.counterexamples:
            command = shlex.split(ce["reproduce"])
            assert command == ["weyl2uni", "mc", "--series", ce["series"], "--class", ce["class"]]
            assert main(command[1:]) == 0
            assert capsys.readouterr().out == f"{ce['formula']}\n"

    def test_a_table_counterexample_carries_a_command_that_reproduces_it(self, monkeypatch, tmp_path, capsys):
        # a data file with a record dropped: the table command fails the same way
        from importlib import resources

        text = resources.files("weyl2uni").joinpath("data/phi_tables.tsv").read_text("utf-8")
        lines = text.splitlines()
        lines.remove(next(line for line in lines if line.startswith("G2\tgood\t")))
        bad = tmp_path / "tables.tsv"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.setenv("WEYL2UNI_TABLE_PATH", str(bad))
        report = verify.check_exceptional(verify.SweepConfig(series=("G2",)))
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["table[G2,good]", "table[G2,p3]"]  # p3 patches good
        for check, characteristic in zip(failed, ("good", "p3")):
            (ce,) = check.counterexamples
            assert ce["reproduce"] == f"weyl2uni table --group G2 --p {characteristic}"
            assert main(shlex.split(ce["reproduce"])[1:]) == 1
            assert capsys.readouterr().err == f"error: {ce['error']}\n"
