import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from fdek import analysis, semantics, tableau
from fdek.cli import main
from fdek.semantics import FRAME_PROPERTIES, model_from_dict
from fdek.syntax import parse_sequent

from reference_impl import result_to_dict


def data_file(name: str) -> str:
    return str(resources.files("fdek.data").joinpath(name + ".json"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _recursion_error(*args, **kwargs):
    raise RecursionError("maximum recursion depth exceeded")


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

    @pytest.mark.parametrize("text, expected", [("#p |- #~p", 0), ("#p |- ##p", 1)])
    def test_json_bytes_are_the_standard_encoding(self, capsys, text, expected):
        code, out, _ = run(capsys, "prove", "--json", text)
        result = tableau.prove(parse_sequent(text))
        assert code == expected
        assert out == json.dumps(result_to_dict(result), indent=2) + "\n"

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

    def test_two_thousand_deep_verdict(self, capsys):
        code, out, _ = run(capsys, "prove", "~~" * 1000 + "p |- p")
        assert code == 0 and "PROVED" in out

    def test_too_deep_exit_two(self, capsys, monkeypatch):
        # No formula is too deep for the prover; a RecursionError raised
        # below the CLI still maps to exit 2.
        monkeypatch.setattr(tableau, "prove", _recursion_error)
        code, _, err = run(capsys, "prove", "#p |- p")
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

    def test_two_thousand_deep_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--model", data_file("fig1"),
                           "--world", "w0", "--formula", "#" * 2000 + "p")
        assert code == 0 and out.strip() == "F"

    def test_too_deep_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(semantics, "eval_formula", _recursion_error)
        code, _, err = run(capsys, "eval", "--model", data_file("fig1"),
                           "--world", "w0", "--formula", "#p")
        assert code == 2 and err.startswith("error:") and "recursion" in err


class TestMalformedFiles:
    # JSON of the right shape but the wrong types; each used to escape the
    # loaders as a TypeError and end in exit 1, the "refuted" code.
    @pytest.mark.parametrize("data", [
        {"worlds": ["w0"], "rel": 5},
        {"worlds": ["w0"], "rel": None},
        {"worlds": ["w0"], "val": {"w0": {"p": ["T"]}}},
    ], ids=["rel-number", "rel-null", "value-list"])
    def test_eval_exit_two(self, capsys, tmp_path, data):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "eval", "--model", str(path),
                             "--world", "w0", "--formula", "p")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_valid_on_frame_exit_two(self, capsys, tmp_path):
        path = tmp_path / "frame.json"
        path.write_text(json.dumps({"worlds": ["w0"], "rel": 5}))
        code, out, err = run(capsys, "valid-on-frame", "--frame", str(path), "p |- p")
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("exc", [
        tableau.RealisationError("extracted model does not realise its branch"),
        KeyError("w9"),
    ], ids=lambda exc: type(exc).__name__)
    def test_internal_error_exit_two(self, capsys, monkeypatch, exc):
        def broken(*args, **kwargs):
            raise exc
        monkeypatch.setattr(tableau, "prove", broken)
        code, out, err = run(capsys, "prove", "p |- q")
        assert code == 2 and out == ""
        assert err.startswith(f"internal error: {type(exc).__name__}: {exc}")
        assert "Traceback" in err


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


# Frame files for the exit-code property: well-formed frames over at most
# three world names, frame-shaped objects whose fields may be any JSON, and
# any JSON.
_WORLD_NAMES = st.sampled_from(["w0", "w1", "x"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | _WORLD_NAMES | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(["worlds", "rel", "w0"]), inner, max_size=2)),
    max_leaves=6)
_FRAMES = (
    st.lists(_WORLD_NAMES, min_size=1, max_size=3, unique=True).flatmap(
        lambda ws: st.fixed_dictionaries({"worlds": st.just(ws), "rel": st.lists(
            st.lists(st.sampled_from(ws), min_size=2, max_size=2), max_size=5)}))
    | st.fixed_dictionaries({
        "worlds": st.lists(_WORLD_NAMES, max_size=3) | _JSON,
        "rel": (st.lists(st.lists(_WORLD_NAMES, min_size=2, max_size=2) | _JSON, max_size=3)
                | _JSON)})
    | _JSON)
_FORMULAS = st.recursive(
    st.sampled_from(["p", "q"]),
    lambda f: (st.builds("~{}".format, f) | st.builds("#{}".format, f)
               | st.builds("@{}".format, f) | st.builds("[]{}".format, f)
               | st.builds("({} & {})".format, f, f) | st.builds("({} | {})".format, f, f)),
    max_leaves=4)
_CLAIMS = (st.text(max_size=6) | _FORMULAS | st.builds("|- {}".format, _FORMULAS)
           | st.builds("{} |- {}".format, _FORMULAS, _FORMULAS))


@pytest.fixture(scope="module")
def frame_path(tmp_path_factory):
    return tmp_path_factory.mktemp("frames") / "frame.json"


class TestValidOnFrameExitCodes:
    @given(frame=_FRAMES, claim=_CLAIMS)
    @settings(max_examples=150, deadline=None)
    def test_exit_code_is_a_verdict_or_an_error(self, frame_path, frame, claim):
        # Exit 1 means "invalid" and nothing else: a malformed frame file or
        # claim, or a bug, must exit 2.
        frame_path.write_text(json.dumps(frame))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["valid-on-frame", "--frame", str(frame_path), claim])
            except SystemExit as exc:  # argparse, on a claim that reads as an option
                code = exc.code
        assert code in (0, 1, 2), (frame, claim, code)
        if code == 1:
            assert out.getvalue() == "INVALID\n", (frame, claim)
        assert "internal error" not in err.getvalue(), (frame, claim, err.getvalue())


# Exit-code properties of the other commands, run in process on arbitrary
# model files, formula and sequent text, and integer flags in -1..2: every
# exit is 0, 1 or 2, exit 1 comes only with the command's negative verdict
# (eval and dual have none), and no input reaches the internal-error path.
def _good_models(more_worlds):
    """Well-formed models on ``w0`` and ``more_worlds``."""
    ws = ["w0", *more_worlds]
    return st.fixed_dictionaries({
        "worlds": st.just(ws),
        "rel": st.lists(st.lists(st.sampled_from(ws), min_size=2, max_size=2), max_size=4),
        "val": st.dictionaries(st.sampled_from(ws), st.dictionaries(
            st.sampled_from(["p", "q"]), st.sampled_from("TBNF"), min_size=1, max_size=2),
            min_size=1, max_size=3)})


_GOOD_MODELS = st.lists(st.sampled_from(["w1", "x"]), max_size=2, unique=True).flatmap(
    _good_models)
# Model files: well-formed models at least half the time, else models whose
# valuations may hold any JSON, frame files, or any JSON.
_MODELS = st.one_of(_GOOD_MODELS, _GOOD_MODELS | _FRAMES | st.fixed_dictionaries({
    "worlds": st.lists(_WORLD_NAMES, max_size=2),
    "val": _JSON | st.dictionaries(_WORLD_NAMES, _JSON | st.dictionaries(
        st.sampled_from(["p", "P", ""]), _JSON | st.sampled_from("TBNF"), max_size=2),
        max_size=2)}))
_TEXT = _FORMULAS | st.text(st.sampled_from("pq~#@&|-()[]<> "), max_size=8) | st.text(max_size=6)
_SEQUENTS = st.builds("{} |- {}".format, _TEXT, _TEXT) | _CLAIMS
_FLAG = st.integers(-1, 2)
# command -> (first stdout line of exit 1, JSON key and value of exit 1)
_NEGATIVE = {
    "prove": (r"REFUTED$", "verdict", "refuted"),
    "countermodel": (r"no countermodel with <= -?\d+ worlds$", "found", False),
    "definability": (r"\w+: refuted \(", "verdict", "refuted"),
    "separate": (r"separating formula \(", "verdict", "separating formula"),
}


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


def _write(directory, name, data) -> str:
    path = directory / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def _check_exit(argv, as_json=False):
    if as_json:
        argv = argv + ["--json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse, on text that reads as an option
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert argv[0] in _NEGATIVE, (argv, out.getvalue())
        line, key, value = _NEGATIVE[argv[0]]
        if as_json:
            assert json.loads(out.getvalue())[key] == value, (argv, out.getvalue())
        else:
            assert re.match(line, out.getvalue().partition("\n")[0]), (argv, out.getvalue())
    assert "internal error" not in err.getvalue(), (argv, err.getvalue())


class TestExitCodes:
    @given(model=_MODELS, world=_WORLD_NAMES | st.text(max_size=2), formula=_TEXT,
           as_json=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_eval(self, input_dir, model, world, formula, as_json):
        path = _write(input_dir, "model.json", model)
        _check_exit(["eval", "--model", path, "--world", world, "--formula", formula], as_json)

    @given(model=_MODELS)
    @settings(max_examples=60, deadline=None)
    def test_dual(self, input_dir, model):
        _check_exit(["dual", "--model", _write(input_dir, "model.json", model)])

    @given(sequent=_SEQUENTS, start=st.sampled_from(["truth", "nonfalsity"]),
           tree=st.booleans(), as_json=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_prove(self, sequent, start, tree, as_json):
        _check_exit(["prove", sequent, "--start", start] + ["--tree"] * tree, as_json)

    @given(sequent=_SEQUENTS, max_worlds=_FLAG, as_json=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_countermodel(self, sequent, max_worlds, as_json):
        _check_exit(["countermodel", sequent, "--max-worlds", str(max_worlds)], as_json)

    @given(prop=st.sampled_from(sorted(FRAME_PROPERTIES)), claims=st.none() | _CLAIMS,
           max_size=_FLAG, as_json=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_definability(self, input_dir, prop, claims, max_size, as_json):
        argv = ["definability", "--property", prop, "--max-size", str(max_size)]
        if claims is not None:
            argv += ["--sequents", _write(input_dir, "claims.txt", claims)]
        _check_exit(argv, as_json)

    @given(model_a=_MODELS, model_b=_MODELS, world_a=_WORLD_NAMES, world_b=_WORLD_NAMES,
           language=st.sampled_from(["tri", "box"]), max_size=st.integers(-1, 4),
           as_json=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_separate(self, input_dir, model_a, model_b, world_a, world_b, language,
                      max_size, as_json):
        _check_exit(["separate", "--model-a", _write(input_dir, "a.json", model_a),
                     "--world-a", world_a, "--model-b", _write(input_dir, "b.json", model_b),
                     "--world-b", world_b, "--language", language,
                     "--max-size", str(max_size)], as_json)


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

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on converting ints to text")
    def test_model_files_are_read_under_the_int_text_limit(self, capsys, tmp_path):
        # Only the printed count is freed from the limit, and only while it prints.
        limit = sys.get_int_max_str_digits()
        model = tmp_path / "model.json"
        model.write_text('{"worlds": ["w0"], "rel": [], "val": {}, "n": 1%s}' % ("0" * 5000))
        code, out, err = run(capsys, "separate", "--model-a", str(model), "--world-a", "w0",
                             "--model-b", data_file("fig6_pair"), "--world-b", "w0",
                             "--language", "box", "--max-size", "2")
        assert code == 2 and out == "" and "Exceeds the limit" in err
        assert sys.get_int_max_str_digits() == limit


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
        # Golden: every row's verdict and detail, byte for byte.
        assert hashlib.sha256(first.encode()).hexdigest() == \
            "b29459a1da54683cedd9d10c1c8f4a094da5c47504ec3cfd1bcef6ded1ef5688"

    def test_empty_scan_exit_two(self, capsys):
        # The expressivity rows would pass vacuously over no formulas.
        code, out, err = run(capsys, "figures", "--max-size", "0")
        assert code == 2 and out == "" and "at least 1" in err


@pytest.mark.parametrize("argv", [
    ["separate", "--json", "--model-a", data_file("fig1"), "--world-a", "w0",
     "--model-b", data_file("fig1"), "--world-b", "w1", "--language", "tri", "--max-size", "6"],
    ["figures", "--json"],
], ids=["separate", "figures"])
def test_closed_stdout_exit_two(argv):
    # The read end is closed before anything is written, so every write
    # fails: no verdict reaches a reader, and exit 1 would claim one.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "fdek", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == ""


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fdek", "prove", "#p |- #~p"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "PROVED" in proc.stdout


# Run in a fresh interpreter: each argv of argv[1] (JSON) through cli.main,
# printing its exit code, stdout and stderr as JSON.
_RUN_EACH = """
import contextlib, io, json, sys
from fdek.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _without_elapsed(text):
    try:
        data = json.loads(text)
    except ValueError:
        return text
    if isinstance(data, dict):
        data.pop("elapsed", None)
    return data


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # One fresh interpreter per seed, all four at once; the frame names
    # three unknown worlds, so only the first faulty entry in input order
    # makes its error the same under every seed.
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({"worlds": ["w0"], "rel": [["w0", "w8"], ["w0", "w9"],
                                                           ["w7", "w0"]]}))
    claims = tmp_path / "transitive.txt"
    claims.write_text("#p |- ##p\n")
    fig6 = ["--model-a", data_file("fig6_single"), "--world-a", "w0",
            "--model-b", data_file("fig6_pair"), "--world-b", "w0"]
    commands = [
        ["prove", "@p |- ##p", "--json"],
        ["prove", "@p |- ##p", "--tree"],
        ["countermodel", "#p |- #(p & #p)", "--max-worlds", "3", "--json"],
        ["definability", "--property", "transitive", "--sequents", str(claims),
         "--max-size", "3", "--json"],
        ["separate", *fig6, "--language", "box", "--max-size", "9", "--json"],
        ["dual", "--model", data_file("ex22")],
        ["valid-on-frame", "#p |- p", "--frame", str(frame)],
    ]
    procs = [subprocess.Popen([sys.executable, "-c", _RUN_EACH, json.dumps(commands)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONHASHSEED=str(seed)))
             for seed in range(4)]
    runs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        runs.append([(code, _without_elapsed(stdout), stderr)
                     for code, stdout, stderr in json.loads(out)])
    for argv, *results in zip(commands, *runs):
        assert all(r == results[0] for r in results), argv
    assert runs[0][-1] == (2, "", "error: relation uses unknown world in ('w0', 'w8')\n")
