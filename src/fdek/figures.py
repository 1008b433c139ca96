"""Bundled benchmark models and the reproduction checks built on them.

Every model and frame used by the checks ships as a JSON file under
``fdek/data``, so the same structures are scriptable from the CLI.  The
check suite re-derives each documented fact (evaluations, proof verdicts,
countermodels, definability and expressivity sweeps) and reports one
pass/fail row per fact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from importlib import resources

from .analysis import (
    PAPER_FRAME_CLASSES, _first_formula, check_definability, check_indistinguishability,
)
from .semantics import (
    Evaluator, FourValue, Frame, Model, PointedModel, _holds,
    formula_valid_on_frame, frame_from_dict, frame_property, frame_to_dict,
    model_from_dict, sequent_valid_on_frame,
)
from .syntax import LANG_TRI, parse_formula, parse_sequent
from .tableau import Proved, Refuted, prove

__all__ = ["FigureCheck", "load_model", "load_frame",
           "run_figures", "DEFAULT_EXPRESSIVITY_SIZE"]

DEFAULT_EXPRESSIVITY_SIZE = 9
_COLLAPSE_SIZE = 7

_MODELS = ("fig1", "fig4", "fig5_left", "fig5_right", "fig6_single",
           "fig6_pair", "fig7", "fig9_glut", "fig9_gap", "fig10", "fig12",
           "ex21", "ex22", "ex22_trimmed")
_FRAMES = ("fig8_left", "fig8_right", "fig10", "fig11")


def _read(name: str) -> dict:
    path = resources.files("fdek.data").joinpath(name + ".json")
    return json.loads(path.read_text())


def load_model(name: str) -> Model:
    if name not in _MODELS:
        raise KeyError(f"unknown bundled model {name!r}")
    return model_from_dict(_read(name))


def load_frame(name: str) -> Frame:
    if name not in _FRAMES:
        raise KeyError(f"unknown bundled frame {name!r}")
    return frame_from_dict(_read(name))


@dataclass
class FigureCheck:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _value(ev: Evaluator, world: str, text: str) -> FourValue:
    return FourValue.from_flags(*ev.supports(world, parse_formula(text)))


def _values_check(name, ev: Evaluator, world, expected: dict[str, str]) -> FigureCheck:
    got = {text: _value(ev, world, text).name for text in expected}
    ok = got == expected
    detail = ", ".join(f"{t}={v}" for t, v in got.items())
    return FigureCheck(name, ok, detail)


def run_figures(expressivity_size: int = DEFAULT_EXPRESSIVITY_SIZE) -> list[FigureCheck]:
    if expressivity_size < 1:
        raise ValueError(f"expressivity size must be at least 1, got {expressivity_size}")
    checks: list[FigureCheck] = []
    out = checks.append

    # One evaluator per model, so the checks on a model share its memo.
    fig1 = Evaluator(load_model("fig1"))
    out(_values_check("fig1-mixed-successors", fig1, "w0", {"#p": "F"}))
    box_disj = parse_formula("[]p | []~p")
    out(FigureCheck(
        "fig1-box-disjunction-gap",
        fig1.supports("w0", box_disj)[0]
        and not _holds(fig1, parse_sequent("[]p | []~p |- #p")),
        "[]p|[]~p true at w0 yet #p is not"))

    res = prove(parse_sequent("#p |- #~p"))
    out(FigureCheck("fig2-proof-closes", isinstance(res, Proved),
                    f"{res.stats.rule_applications} rule applications"))

    seq3 = parse_sequent("q | ~q |- #(q | ~q)")
    res3 = prove(seq3)
    refuted_ok = (isinstance(res3, Refuted)
                  and (ev3 := Evaluator(res3.model)).supports(res3.world, seq3.premise)[0]
                  and not ev3.supports(res3.world, seq3.conclusion)[0])
    out(FigureCheck("fig3-refutation", refuted_ok,
                    f"countermodel on {len(res3.model.frame.worlds)} worlds"
                    if isinstance(res3, Refuted) else "unexpectedly proved"))

    fig4 = Evaluator(load_model("fig4"))
    out(FigureCheck("fig4-countermodel", not _holds(fig4, seq3),
                    "q|~q true, #(q|~q) untrue at w0"))

    out(_values_check("fig5-uniform-glut", Evaluator(load_model("fig5_left")), "w0",
                      {"#p": "B"}))
    out(_values_check("fig5-uniform-gap", Evaluator(load_model("fig5_right")), "w0",
                      {"#p": "N"}))

    out(_values_check("ex21-witness-anomalies", Evaluator(load_model("ex21")), "w",
                      {"#p": "F", "#s": "F"}))
    out(_values_check("ex22-audit-full", Evaluator(load_model("ex22")), "wc",
                      {"#p": "F", "#r": "F"}))
    out(_values_check("ex22-audit-trimmed", Evaluator(load_model("ex22_trimmed")), "wc",
                      {"#p": "T", "#r": "T"}))

    single = Evaluator(load_model("fig6_single"))
    pair = Evaluator(load_model("fig6_pair"))
    out(FigureCheck(
        "fig6-values",
        _value(single, "w0", "#p") is FourValue.T
        and _value(pair, "w0", "#p") is FourValue.F
        and not pair.supports("w0", box_disj)[0],
        "#p is T vs F; []p|[]~p untrue on the pair"))
    transfer = check_indistinguishability(
        PointedModel(single.model, "w0"), PointedModel(pair.model, "w0"),
        "box", expressivity_size)
    out(FigureCheck(
        "fig6-box-cannot-separate",
        transfer.verdict == "no separating formula found",
        f"{transfer.formulas_checked} []-formulas <= {expressivity_size} nodes"))

    fig7 = load_model("fig7")
    glut = check_indistinguishability(
        PointedModel(fig7, "w0"), PointedModel(fig7, "w0"),
        LANG_TRI, expressivity_size)
    out(FigureCheck(
        "fig7-no-tri-glut",
        _value(Evaluator(fig7), "w0", "[]p") is FourValue.B
        and glut.verdict == "no separating formula found",
        f"[]p is B; {glut.formulas_checked} #-formulas are not"))

    left, right = load_frame("fig8_left"), load_frame("fig8_right")
    out(FigureCheck(
        "fig8-partial-functional-distinguished",
        frame_property(left, "partial_functional")
        and frame_property(right, "partial_functional")
        and formula_valid_on_frame(left, parse_formula("#p"))
        and not formula_valid_on_frame(right, parse_formula("#p")),
        "#p valid on the dead-end frame only"))

    # The first #-formula over p that is not B at the glut point resp. N at
    # the gap point; the count includes it.
    count, _, stray = _first_formula(
        [PointedModel(load_model("fig9_glut"), "w0"), PointedModel(load_model("fig9_gap"), "w0")],
        ["p"], LANG_TRI, _COLLAPSE_SIZE, lambda f: f != [(1, 1), (0, 0)])
    out(FigureCheck("fig9-no-valid-formulas", stray is None,
                    f"{count} formulas collapse to B resp. N"))

    fig10m = Evaluator(load_model("fig10"))
    fig10f = load_frame("fig10")
    out(FigureCheck(
        "fig10-transitivity-not-defined",
        frame_property(fig10f, "transitive")
        and _value(fig10m, "w0", "#p") is FourValue.B
        and _value(fig10m, "w0", "##p") is FourValue.F
        and not sequent_valid_on_frame(fig10f, parse_sequent("#p |- ##p")),
        "transitive frame where #p |- ##p fails"))

    fig11 = load_frame("fig11")
    out(FigureCheck(
        "fig11-euclideanness-not-defined",
        not frame_property(fig11, "euclidean")
        and sequent_valid_on_frame(fig11, parse_sequent("@p |- ##p")),
        "non-Euclidean frame validating @p |- ##p"))

    fig12 = load_model("fig12")
    count, _, stray = _first_formula([PointedModel(fig12, "w0")], ["p"], LANG_TRI,
                                     expressivity_size, lambda f: f != [(1, 1)])
    trivial_ok = stray is None and not Evaluator(fig12).supports("w0", parse_formula("q"))[0]
    out(FigureCheck(
        "fig12-no-trivialising-sequent", trivial_ok,
        f"{count} {{p}}-formulas are B at w0 while q is untrue"))

    for prop, claims in PAPER_FRAME_CLASSES.items():
        report = check_definability(prop, claims, 3)
        out(FigureCheck(f"definability-{prop}", report.verdict == "defines",
                        f"{report.frames_checked} frames agree"))

    trans = check_definability("transitive", [parse_sequent("#p |- ##p")], 3)
    out(FigureCheck("definability-transitive-refuted", trans.verdict == "refuted",
                    f"witness {trans.witness['frame']['rel'] if trans.witness else None}"))
    eucl = check_definability("euclidean", [parse_sequent("@p |- ##p")], 2)
    eucl_ok = (eucl.verdict == "refuted"
               and eucl.witness is not None
               and eucl.witness["frame"] == frame_to_dict(fig11)
               and eucl.witness["direction"] == "claims_hold_but_property_fails")
    out(FigureCheck("definability-euclidean-refuted", eucl_ok,
                    "witness is the one-arrow two-world frame"))

    return checks
