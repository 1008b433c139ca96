"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

from fdek.analysis import (
    PAPER_FRAME_CLASSES, check_definability, check_indistinguishability,
    enumerate_formulas, find_countermodel,
)
from fdek.bulkeval import BulkSpace
from fdek.figures import load_frame, load_model
from fdek.semantics import (
    Evaluator, FourValue, Frame, Model, PointedModel, dual_model, eval_formula, frame_to_dict,
)
from fdek.syntax import Not, parse_formula, parse_sequent, subformulas, variables
from fdek.tableau import Labelled, Proved, Refuted, prove

from conftest import corpus, hand_sequents, random_formula, scalar_definability
from reference_impl import bulk_supports, dual_value, result_to_dict

T, B, N, F = FourValue.T, FourValue.B, FourValue.N, FourValue.F


def test_criterion_1_proof_reproduction():
    started = time.perf_counter()
    assert isinstance(prove(parse_sequent("#p |- #~p")), Proved)
    first = time.perf_counter() - started

    started = time.perf_counter()
    s = parse_sequent("q|~q |- #(q|~q)")
    res = prove(s)
    second = time.perf_counter() - started
    assert isinstance(res, Refuted)
    assert Evaluator(res.model).supports(res.world, s.premise)[0]
    assert not Evaluator(res.model).supports(res.world, s.conclusion)[0]

    assert first < 1.0 and second < 1.0
    print(f"\nACCEPTANCE 1 proof reproduction: PASS "
          f"({first * 1000:.0f} ms / {second * 1000:.0f} ms)")


def test_criterion_2_figure_evaluations():
    tri_p = parse_formula("#p")
    assert eval_formula(load_model("fig1"), "w0", tri_p) is F
    assert eval_formula(load_model("fig5_left"), "w0", tri_p) is B
    assert eval_formula(load_model("fig5_right"), "w0", tri_p) is N
    ex21 = load_model("ex21")
    assert eval_formula(ex21, "w", tri_p) is F
    assert eval_formula(ex21, "w", parse_formula("#s")) is F
    ex22 = load_model("ex22")
    assert eval_formula(ex22, "wc", tri_p) is F
    assert eval_formula(ex22, "wc", parse_formula("#r")) is F
    trimmed = load_model("ex22_trimmed")
    assert eval_formula(trimmed, "wc", tri_p) is T
    assert eval_formula(trimmed, "wc", parse_formula("#r")) is T
    print("\nACCEPTANCE 2 figure evaluations: PASS (9 exact matches)")


def test_criterion_3_definability_sweep():
    started = time.perf_counter()
    for prop, claims in PAPER_FRAME_CLASSES.items():
        report = check_definability(prop, claims, 3)
        assert report.verdict == "defines", prop
        assert report.frames_checked == 530, prop
        verdict, witness, frames_checked = scalar_definability(prop, claims, 3)
        assert verdict == "defines" and witness is None and frames_checked == 530, prop

    trans = check_definability("transitive", [parse_sequent("#p |- ##p")], 3)
    assert trans.verdict == "refuted"
    eucl = check_definability("euclidean", [parse_sequent("@p |- ##p")], 2)
    assert eucl.verdict == "refuted"
    assert eucl.witness["frame"] == frame_to_dict(load_frame("fig11"))
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 definability sweep: PASS "
          f"(6 classes x 530 frames + 2 refutations, {elapsed:.1f} s)")


def test_criterion_4_bounded_expressivity():
    started = time.perf_counter()
    single = PointedModel(load_model("fig6_single"), "w0")
    pair = PointedModel(load_model("fig6_pair"), "w0")
    assert eval_formula(single.model, "w0", parse_formula("#p")) is T
    assert eval_formula(pair.model, "w0", parse_formula("#p")) is F
    transfer = check_indistinguishability(single, pair, "box", 9)
    assert transfer.verdict == "no separating formula found"
    assert transfer.formulas_checked == 23213

    fig7 = PointedModel(load_model("fig7"), "w0")
    assert eval_formula(fig7.model, "w0", parse_formula("[]p")) is B
    glut = check_indistinguishability(fig7, fig7, "tri", 9)
    assert glut.verdict == "no separating formula found"
    assert glut.formulas_checked == 23213
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 4 bounded expressivity: PASS "
          f"(2 x 23213 formulas, {elapsed:.1f} s)")


def _random_model(rng, names, max_worlds=3):
    n = rng.randint(1, max_worlds)
    worlds = [f"w{i}" for i in range(n)]
    rel = [(a, b) for a in worlds for b in worlds if rng.random() < 0.4]
    values = {w: {v: rng.choice(list(FourValue)) for v in names} for w in worlds}
    return Model.from_values(Frame(worlds, rel), values, variables=names)


def test_criterion_5_metatheory_suites():
    # Dual-model transfer: the four clauses collapse to value dualization.
    rng = random.Random(20240817)
    cases = 0
    for _ in range(400):
        m = _random_model(rng, ["p", "q"])
        d = dual_model(m)
        for _ in range(3):
            f = random_formula(rng, ["p", "q"], 4, 2)
            for w in m.frame.worlds:
                assert eval_formula(d, w, f) is dual_value(eval_formula(m, w, f))
                cases += 1
    assert cases >= 1000
    dual_cases = cases

    # Three-way contraposition over every model with <= 3 worlds.
    sequents = [s for s, _ in hand_sequents()]
    model_cases = 0
    for s in sequents:
        names = sorted(variables(s.premise) | variables(s.conclusion))
        truth, nonfalsity, contra = True, True, True
        for n in (1, 2, 3):
            space = BulkSpace(n, names)
            prem_pos, prem_neg = bulk_supports(space, s.premise)
            conc_pos, conc_neg = bulk_supports(space, s.conclusion)
            truth &= not (prem_pos & ~conc_pos).any()
            nonfalsity &= not (~prem_neg & conc_neg).any()
            flip_prem, _ = bulk_supports(space, Not(s.conclusion))
            flip_conc, _ = bulk_supports(space, Not(s.premise))
            contra &= not (flip_prem & ~flip_conc).any()
            model_cases += 2 ** (n * n) * 4 ** (n * len(names))
        assert truth == nonfalsity == contra, str(s)
    assert model_cases >= 1000

    # Uniform glut/gap models decide every formula the same way.
    collapse_cases = 0
    for _ in range(1000):
        f = random_formula(rng, ["p", "q", "r"], rng.randint(1, 7), 3)
        glut = Model.from_values(Frame(["w0"], [("w0", "w0")]),
                                 {"w0": {v: B for v in ("p", "q", "r")}})
        gap = Model.from_values(Frame(["w0"], [("w0", "w0")]),
                                {"w0": {v: N for v in ("p", "q", "r")}})
        assert eval_formula(glut, "w0", f) is B
        assert eval_formula(gap, "w0", f) is N
        collapse_cases += 1

    # One reflexive glut point: every one-variable formula is B there, so
    # with q a gap, each of them refutes "formula |- q".
    fig12 = load_model("fig12")
    ev = Evaluator(fig12)
    q = parse_formula("q")
    fig12_cases = 0
    assert not Evaluator(fig12).supports("w0", q)[0]
    for f in enumerate_formulas("tri", ["p"], 9):
        assert ev.supports("w0", f) == (True, True)
        fig12_cases += 1
    assert fig12_cases >= 1000

    print(f"\nACCEPTANCE 5 metatheory suites: PASS "
          f"(dual {dual_cases}, contraposition {model_cases}, "
          f"collapse {collapse_cases}, glut-point {fig12_cases} cases)")


def test_criterion_6_prover_oracle_coherence():
    from fdek.figures import model_names
    from fdek.semantics import sequent_holds

    figure_models = [load_model(name) for name in model_names()]
    sequents = corpus(200)
    assert len(sequents) >= 200
    proved = refuted = 0
    for s in sequents:
        res = prove(s)
        contraposed = prove(s, start="nonfalsity")
        assert isinstance(res, Proved) == isinstance(contraposed, Proved), str(s)

        allowed = subformulas(s.premise) | subformulas(s.conclusion)
        stack = [res.tree]
        while stack:
            node = stack.pop()
            for item in node.added:
                if isinstance(item, Labelled):
                    assert item.formula in allowed, str(s)
            stack.extend(node.children)

        if isinstance(res, Proved):
            proved += 1
            assert find_countermodel(s, 3) is None, str(s)
            for m in figure_models:
                assert sequent_holds(m, s), str(s)
        else:
            refuted += 1
            assert Evaluator(res.model).supports(res.world, s.premise)[0], str(s)
            assert not Evaluator(res.model).supports(res.world, s.conclusion)[0], str(s)

    # Determinism on a sample: identical trees, labels, and countermodels.
    for s in sequents[:25]:
        assert result_to_dict(prove(s)) == result_to_dict(prove(s))

    assert proved >= 40 and refuted >= 100
    print(f"\nACCEPTANCE 6 prover/oracle coherence: PASS "
          f"({len(sequents)} sequents: {proved} proved, {refuted} refuted)")
