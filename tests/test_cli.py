import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weyl2uni.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out.rstrip("\n"), out.err.rstrip("\n")


class TestPhi:
    def test_exceptional(self, capsys):
        rc, out, _ = run(capsys, "phi", "--group", "F4", "--label", "A_3")
        assert rc == 0 and out == "B_2"

    def test_exceptional_alias_and_characteristic(self, capsys):
        rc, out, _ = run(capsys, "phi", "--group", "G2", "--label", "tA_1", "--p", "p3")
        assert rc == 0 and out == "(Ã_1)_3"

    def test_parenthetical_leading_zero_finds_the_class(self, capsys):
        want = run(capsys, "phi", "--group", "F4", "--label", "F_4(a_1)")
        assert want[0] == 0 and want[1]
        assert run(capsys, "phi", "--group", "F4", "--label", "F_4(a_01)") == want

    def test_bare_digit_characteristic(self, capsys):
        rc, out, _ = run(capsys, "phi", "--group", "F4", "--label", "B_2", "--p", "2")
        assert rc == 0 and out == "(B_2)_2"

    def test_classical(self, capsys):
        rc, out, _ = run(capsys, "phi", "--series", "B", "--class", "pos=1;neg=1")
        assert rc == 0 and out == "3,1,1"

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "phi", "--series", "C", "--class", "pos=2;neg=-",
                         "--format", "json")
        assert rc == 0 and json.loads(out)["jordan"] == [2, 2]


class TestPsi:
    def test_classical(self, capsys):
        rc, out, _ = run(capsys, "psi", "--series", "C", "--nu", "4", "--jordan", "2,2")
        assert rc == 0 and out == "pos=-;neg=1,1"

    def test_nu_mismatch(self, capsys):
        rc, _, err = run(capsys, "psi", "--series", "C", "--nu", "6", "--jordan", "2,2")
        assert rc == 1 and "contradicts" in err

    def test_exceptional(self, capsys):
        rc, out, _ = run(capsys, "psi", "--group", "E7", "--name", "4A_1")
        assert rc == 0 and out == "7A_1"

    def test_round_trip_into_phi(self, capsys):
        rc, out, _ = run(capsys, "psi", "--series", "B", "--jordan", "3,1,1")
        assert rc == 0
        rc, out2, _ = run(capsys, "phi", "--series", "B", "--class", out)
        assert rc == 0 and out2 == "3,1,1"

    def test_d_split_flag_agrees_across_commands(self, capsys):
        # a fused series-D class prints "split": true whichever command names it
        cls = {"pos": [2, 2], "neg": [], "split": True}
        for argv in (("psi", "--series", "D", "--jordan", "2,2,2,2"),
                     ("phi", "--series", "D", "--class", "pos=2,2;neg=-"),
                     ("mc", "--series", "D", "--class", "pos=2,2;neg=-")):
            rc, out, _ = run(capsys, *argv, "--format", "json")
            assert rc == 0 and json.loads(out)["class"] == cls, argv


class TestFiber:
    def test_type_c(self, capsys):
        rc, out, _ = run(capsys, "fiber", "--series", "C", "--jordan", "2,2,1,1")
        assert rc == 0
        assert out.splitlines() == ["r=2,2;p=1,1", "r=-;p=2,2,1,1"]

    def test_type_d(self, capsys):
        rc, out, _ = run(capsys, "fiber", "--series", "D", "--jordan", "5,3,2,2")
        assert rc == 0 and out == "r=5,3;p=2,2"

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "fiber", "--series", "C", "--jordan", "3,3",
                         "--format", "json")
        assert rc == 0 and json.loads(out) == [{"r": [], "p": [3, 3]}]

    def test_nu_is_checked_as_in_psi(self, capsys):
        rc, out, _ = run(capsys, "fiber", "--series", "B", "--jordan", "3,1,1", "--nu", "5")
        assert rc == 0 and out.splitlines() == ["r=3,1,1;p=-", "r=3;p=1,1"]
        rc, out, err = run(capsys, "fiber", "--series", "B", "--jordan", "3,1,1", "--nu", "99")
        assert rc == 1 and out == ""
        assert err == "error: --nu 99 contradicts the block total 5"


class TestEncodeAndMc:
    def test_encode_c(self, capsys):
        rc, out, _ = run(capsys, "encode", "--series", "C", "--class", "pos=2;neg=-")
        assert rc == 0 and out == "r=-;p=2,2"

    def test_encode_b(self, capsys):
        rc, out, _ = run(capsys, "encode", "--series", "B", "--class", "pos=1;neg=1")
        assert rc == 0 and out == "p'=1;p=1,1;k=1"

    def test_mc_classical(self, capsys):
        rc, out, _ = run(capsys, "mc", "--series", "C", "--class", "pos=2,1;neg=3")
        assert rc == 0 and out == "2"

    def test_mc_rejects_odd_negative_cycles_in_d(self, capsys):
        rc, out, err = run(capsys, "mc", "--series", "D", "--class", "pos=-;neg=3")
        assert rc == 1 and out == "" and "negative cycles" in err

    def test_mc_exceptional(self, capsys):
        rc, out, _ = run(capsys, "mc", "--group", "E7", "--label", "4A_1")
        assert rc == 0 and out == "3"

    def test_mc_refuses_a_label_above_the_weyl_rank(self, capsys):
        rc, out, err = run(capsys, "mc", "--group", "G2", "--label", "A_7")
        assert rc == 1 and out == ""
        assert err == "error: label A_7 has rank 7 above the Weyl rank"

    def test_mc_refuses_a_zero_count(self, capsys):
        rc, out, err = run(capsys, "mc", "--group", "G2", "--label", "0A_1")
        assert rc == 1 and out == ""
        assert err == "error: cannot parse Carter label component '0A_1' of '0A_1'"

    @pytest.mark.parametrize("label", ["2A_0", "A_1+A_0", "D_0", "A_0'", "tA_0"])
    def test_mc_refuses_subscript_zero_outside_a0(self, capsys, label):
        rc, out, err = run(capsys, "mc", "--group", "G2", "--label", label)
        assert rc == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: cannot parse Carter label component ")


    @pytest.mark.parametrize("label", ["E_6(a_0)", "D_4(b_00)"])
    def test_mc_refuses_parenthetical_index_zero(self, capsys, label):
        rc, out, err = run(capsys, "mc", "--group", "E8", "--label", label)
        assert rc == 1 and out == ""
        assert err == f"error: cannot parse Carter label component {label!r} of {label!r}"


class TestTable:
    def test_tsv_round_trips_through_loader(self, capsys, monkeypatch, tmp_path):
        rc, out, _ = run(capsys, "table", "--group", "F4")
        assert rc == 0
        dump = tmp_path / "dump.tsv"
        dump.write_text(out + "\n", encoding="utf-8")
        from weyl2uni.exceptional import load_table

        monkeypatch.setenv("WEYL2UNI_TABLE_PATH", str(dump))
        t = load_table("F4")
        assert t.phi("A_3") == "B_2"

    def test_patched_dump(self, capsys):
        rc, out, _ = run(capsys, "table", "--group", "F4", "--p", "2", "--format", "tsv")
        assert rc == 0
        assert "F4\tp2\tB_2\t(B_2)_2" in out.splitlines()

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "table", "--group", "G2", "--format", "json")
        payload = json.loads(out)
        assert payload["weyl_rank"] == 2 and len(payload["lines"]) == 5


class TestVerify:
    def test_small_pass(self, capsys):
        rc, out, _ = run(capsys, "verify", "--series", "C", "G2", "--max-nu", "8",
                         "--max-rank", "2")
        assert rc == 0 and "OVERALL PASS" in out

    def test_json_report(self, capsys):
        rc, out, _ = run(capsys, "verify", "--series", "C", "--max-nu", "6",
                         "--max-rank", "2", "--format", "json")
        assert rc == 0 and json.loads(out)["passed"] is True

    def test_bad_cap(self, capsys):
        rc, _, err = run(capsys, "verify", "--all", "--max-nu", "99")
        assert rc == 1 and "max_nu" in err

    def test_failure_dumps_json_counterexamples(self, capsys, tmp_path, monkeypatch):
        from importlib import resources

        text = resources.files("weyl2uni").joinpath("data/phi_tables.tsv").read_text("utf-8")
        bad = tmp_path / "tables.tsv"
        bad.write_text(text.replace("F4\tgood\tA_3,B_2", "F4\tgood\tB_2,A_3"), encoding="utf-8")
        monkeypatch.setenv("WEYL2UNI_TABLE_PATH", str(bad))
        rc, out, _ = run(capsys, "verify", "--series", "F4")
        assert rc == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert any(c["counterexamples"] for c in payload["checks"])


class TestErrors:
    def test_domain_error_exit_1(self, capsys):
        rc, _, err = run(capsys, "psi", "--series", "C", "--jordan", "3,2,1")
        assert rc == 1 and "not a symplectic" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["phi", "--series", "C", "--class", "pos=99999999999999999999;neg=-"],
             "partition total 99999999999999999999 is above the parse cap 100000"),
            (["phi", "--series", "B", "--class", "pos=50000;neg=50001"],
             "class rank 100001 is above the parse cap 100000"),
            (["psi", "--series", "B", "--jordan", "100001"], "partition total 100001 is above the parse cap 100000"),
        ],
        ids=["huge-part", "rank", "jordan"],
    )
    def test_input_above_the_parse_cap_exit_1(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"error: {message}")

    def test_unknown_label_exit_1(self, capsys):
        rc, _, err = run(capsys, "phi", "--group", "G2", "--label", "E_8")
        assert rc == 1 and "no class" in err

    def test_unsupported_characteristic_exit_1(self, capsys):
        rc, _, err = run(capsys, "table", "--group", "E6", "--p", "p2")
        assert rc == 1 and "tables for" in err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_table_file_exit_1(self, capsys, monkeypatch, tmp_path, kind):
        path = tmp_path / "tables.tsv"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"G2\tgood\t\xff\tA_0\n")
        monkeypatch.setenv("WEYL2UNI_TABLE_PATH", str(path))
        rc, out, err = run(capsys, "psi", "--group", "E8", "--name", "E_8")
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and str(path) in err and "\n" not in err
        rc, out, _ = run(capsys, "verify", "--all")
        assert rc == 1
        tables = [c for c in json.loads(out)["checks"] if c["name"].startswith("table[")]
        assert len(tables) == 10
        for check in tables:
            assert not check["passed"]
            assert str(path) in check["counterexamples"][0]["error"]

    def test_class_text_is_refused_under_python_o(self):
        # -O strips assert statements, so no refusal may rest on one
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "weyl2uni.cli", "phi", "--series", "C", "--class", "xxx=2;yyy=-"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: expected 'pos=<partition>;neg=<partition>', got 'xxx=2;yyy=-'\n"

    def test_the_package_holds_no_assert_statement(self):
        for path in sorted((SRC / "weyl2uni").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert lines == [], f"{path.name}: assert statements at lines {lines}"

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["phi", "--series", "Z", "--class", "pos=1;neg=-"])
        assert exc.value.code == 2

    def test_missing_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["phi"])
        assert exc.value.code == 2
