import json
import subprocess
import sys
from importlib import resources

import pytest

from fdek import analysis
from fdek.cli import main
from fdek.semantics import model_from_dict


def data_file(name: str) -> str:
    return str(resources.files("fdek.data").joinpath(name + ".json"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProve:
    def test_proved_exit_zero(self, capsys):
        code, out, _ = run(capsys, "prove", "#p |- #~p")
        assert code == 0 and "PROVED" in out

    def test_refuted_exit_one_with_countermodel(self, capsys):
        code, out, _ = run(capsys, "prove", "q | ~q |- #(q | ~q)")
        assert code == 1 and "REFUTED" in out
        payload = out[out.index("{"):]
        data = json.loads(payload)
        assert data["designated"] == "w0"
        model_from_dict(data)  # round-trips through the loader

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "prove", "--json", "p & q |- p")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "proved"
        assert data["tree"]["add"][0]["world"] == "w0"

    def test_tree_uses_glyphs_unless_disabled(self, capsys, monkeypatch):
        monkeypatch.delenv("FDEK_ASCII", raising=False)
        monkeypatch.delenv("NO_COLOR", raising=False)
        _, out, _ = run(capsys, "prove", "--tree", "#p |- #~p")
        assert "▲" in out
        monkeypatch.setenv("FDEK_ASCII", "1")
        _, out, _ = run(capsys, "prove", "--tree", "#p |- #~p")
        assert "▲" not in out and "#p" in out

    def test_nonfalsity_start(self, capsys):
        code, out, _ = run(capsys, "prove", "--start", "nonfalsity", "#p |- #~p")
        assert code == 0 and "PROVED" in out

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(capsys, "prove", "p |- q |- r")
        assert code == 2 and "duplicate" in err

    def test_box_rejected_exit_two(self, capsys):
        code, _, err = run(capsys, "prove", "[]p |- p")
        assert code == 2 and "#-fragment" in err

    def test_too_deep_exit_two(self, capsys):
        code, _, err = run(capsys, "prove", "#" * 600 + "p |- p")
        assert code == 2 and err.startswith("error:") and "recursion" in err


class TestEval:
    def test_figure_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--model", data_file("fig1"),
                           "--world", "w0", "--formula", "#p")
        assert code == 0 and out.strip() == "F"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "eval", "--json", "--model", data_file("fig5_left"),
                           "--world", "w0", "--formula", "#p")
        assert json.loads(out)["value"] == "B"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "eval", "--model", "/nonexistent.json",
                           "--world", "w0", "--formula", "p")
        assert code == 2 and err.startswith("error:")

    def test_unknown_world(self, capsys):
        code, _, err = run(capsys, "eval", "--model", data_file("fig1"),
                           "--world", "w9", "--formula", "p")
        assert code == 2

    def test_too_deep_exit_two(self, capsys):
        code, _, err = run(capsys, "eval", "--model", data_file("fig1"),
                           "--world", "w0", "--formula", "#" * 600 + "p")
        assert code == 2 and err.startswith("error:") and "recursion" in err


class TestValidOnFrame:
    def test_valid_sequent(self, capsys):
        code, out, _ = run(capsys, "valid-on-frame", "--frame", data_file("fig11"),
                           "@p |- ##p")
        assert code == 0 and "VALID" in out

    def test_invalid_sequent(self, capsys):
        code, out, _ = run(capsys, "valid-on-frame", "--frame", data_file("fig8_right"),
                           "#(p | ~p) |- p | ~p")
        assert code == 0 and "VALID" in out
        code, out, _ = run(capsys, "valid-on-frame", "--frame", data_file("fig11"),
                           "#(p | ~p) |- p | ~p")
        assert code == 1 and "INVALID" in out

    def test_formula_claim(self, capsys):
        code, out, _ = run(capsys, "valid-on-frame", "--frame", data_file("fig8_left"),
                           "|- #p")
        assert code == 0 and "VALID" in out


class TestDual:
    def test_swaps_gluts_and_gaps(self, capsys):
        code, out, _ = run(capsys, "dual", "--model", data_file("fig12"))
        assert code == 0
        data = json.loads(out)
        assert data["val"]["w0"] == {"p": "N", "q": "B"}
        model_from_dict(data)


class TestCountermodel:
    def test_found(self, capsys):
        code, out, _ = run(capsys, "countermodel", "#p |- p", "--max-worlds", "2")
        assert code == 0
        data = json.loads(out[out.index("{"):])
        assert data["worlds"] == ["w0"]

    def test_none_within_bound(self, capsys):
        code, out, _ = run(capsys, "countermodel", "#p |- #~p", "--max-worlds", "3")
        assert code == 1 and "no countermodel" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "countermodel", "--json", "p |- q",
                           "--max-worlds", "1")
        data = json.loads(out)
        assert data["found"] is True
        assert data["countermodel"]["designated"] == "w0"

    def test_out_of_memory_exit_two(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(analysis, "find_countermodel", exhausted)
        code, out, err = run(capsys, "countermodel", "p |- q", "--max-worlds", "1")
        assert code == 2 and out == ""
        assert err == "error: MemoryError\n"

    def test_too_many_worlds_exit_two(self, capsys):
        code, _, err = run(capsys, "countermodel", "p |- q", "--max-worlds", "6")
        assert code == 2 and "6 worlds" in err and "cells" in err


class TestDefinability:
    def test_builtin_class(self, capsys):
        code, out, _ = run(capsys, "definability", "--property", "reflexive",
                           "--max-size", "2")
        assert code == 0 and "defines" in out

    def test_claims_file(self, capsys, tmp_path):
        claims = tmp_path / "claims.txt"
        claims.write_text("#p |- ##p\n")
        code, out, _ = run(capsys, "definability", "--property", "transitive",
                           "--sequents", str(claims), "--max-size", "3")
        assert code == 1 and "refuted" in out

    def test_property_without_builtin_set(self, capsys):
        code, _, err = run(capsys, "definability", "--property", "serial",
                           "--max-size", "2")
        assert code == 2 and "serial" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "definability", "--json", "--property",
                           "empty_relation", "--max-size", "2")
        data = json.loads(out)
        assert data["verdict"] == "defines" and data["claims"] == ["|- #p"]


class TestSeparate:
    def test_transfer_mode(self, capsys):
        code, out, _ = run(capsys, "separate",
                           "--model-a", data_file("fig6_single"), "--world-a", "w0",
                           "--model-b", data_file("fig6_pair"), "--world-b", "w0",
                           "--language", "box", "--max-size", "5")
        assert code == 0 and "no separating formula found" in out

    def test_glut_mode_witness(self, capsys):
        code, out, _ = run(capsys, "separate", "--json",
                           "--model-a", data_file("fig9_glut"), "--world-a", "w0",
                           "--model-b", data_file("fig9_glut"), "--world-b", "w0",
                           "--language", "tri", "--max-size", "2")
        assert code == 1
        assert json.loads(out)["witness"] == "p"

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_empty_scan_exit_two(self, capsys, size):
        # A scan of no formulas would vacuously report "no separating formula".
        code, out, err = run(capsys, "separate",
                             "--model-a", data_file("fig6_single"), "--world-a", "w0",
                             "--model-b", data_file("fig6_pair"), "--world-b", "w0",
                             "--language", "box", "--max-size", size)
        assert code == 2 and out == "" and "at least 1" in err


class TestFigures:
    def test_all_pass_at_reduced_size(self, capsys):
        code, out, _ = run(capsys, "figures", "--max-size", "5")
        assert code == 0
        assert "FAIL" not in out

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "figures", "--json", "--max-size", "3")
        data = json.loads(out)
        assert all(row["passed"] for row in data)
        names = {row["name"] for row in data}
        assert "fig2-proof-closes" in names and "definability-reflexive" in names

    def test_deterministic_and_idempotent(self, capsys):
        _, first, _ = run(capsys, "figures", "--json", "--max-size", "3")
        _, second, _ = run(capsys, "figures", "--json", "--max-size", "3")
        assert first == second

    def test_empty_scan_exit_two(self, capsys):
        # The expressivity rows would pass vacuously over no formulas.
        code, out, err = run(capsys, "figures", "--max-size", "0")
        assert code == 2 and out == "" and "at least 1" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fdek", "prove", "#p |- #~p"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "PROVED" in proc.stdout
