import hashlib
import importlib
import json
from functools import lru_cache
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fdek import tableau
from fdek.analysis import find_countermodel
from fdek.semantics import Evaluator, Frame, FourValue, Model, model_to_dict
from fdek.syntax import Formula, Not, Or, Tri, parse_formula, parse_sequent, render, subformulas
from fdek.tableau import (
    Branch, Labelled, LanguageError, ProofNode, ProofStats, Proved,
    RealisationError, Refuted, RelAtom, Val, bar, check_realisation,
    extract_countermodel, neg, prove, result_to_json, saturation_step, tree_to_text,
)

from conftest import RENAMINGS, corpus, hand_sequents, random_sequents
from reference_impl import (
    encode_by_index, extract_by_name_sets, realised_by_items, result_to_dict, tree_to_dict,
)

q = parse_formula("q")
p = parse_formula("p")


def lab(world, text, value):
    return Labelled(world, parse_formula(text), Val(value))


def _hash_formulas(depth):
    """Formula texts of the #-fragment over p and q, nested at most
    ``depth`` deep."""
    atoms = st.sampled_from(["p", "q"])
    if depth == 0:
        return atoms
    sub = _hash_formulas(depth - 1)
    return (atoms | st.builds("~{}".format, sub) | st.builds("#{}".format, sub)
            | st.builds("({} & {})".format, sub, sub) | st.builds("({} | {})".format, sub, sub))


_HASH_SEQUENTS = st.builds("{} |- {}".format, _hash_formulas(3), _hash_formulas(3))


class TestValueLabels:
    def test_bar_is_an_involution(self):
        assert bar(Val.T) is Val.TBAR and bar(Val.TBAR) is Val.T
        assert bar(Val.F) is Val.FBAR and bar(Val.FBAR) is Val.F
        for v in Val:
            assert bar(bar(v)) is v

    def test_neg_swaps_truth_and_falsity(self):
        assert neg(Val.T) is Val.F and neg(Val.F) is Val.T
        assert neg(Val.TBAR) is Val.FBAR and neg(Val.FBAR) is Val.TBAR

    def test_neg_of_bar(self):
        # conclusion shape used by the propagation rule
        assert neg(bar(Val.T)) is Val.FBAR


class TestClosure:
    def test_value_and_its_bar_close(self):
        b = Branch.from_items([lab("w1", "p", "tbar"), lab("w1", "p", "t")])
        assert b.closed

    def test_glut_does_not_close(self):
        b = Branch.from_items([lab("w1", "p", "t"), lab("w1", "p", "f")])
        assert not b.closed

    def test_falsity_dimension_closes(self):
        b = Branch.from_items([lab("w2", "p", "fbar"), lab("w2", "p", "f")])
        assert b.closed

    def test_gap_does_not_close(self):
        b = Branch.from_items([lab("w1", "p", "tbar"), lab("w1", "p", "fbar")])
        assert not b.closed


class TestSaturationStep:
    def test_negation_rule(self):
        b = Branch.from_items([lab("w0", "~p", "t")])
        (out,) = saturation_step(b)
        assert lab("w0", "p", "f") in out.items

    def test_world_creating_split(self):
        b = Branch.from_items([lab("w0", "#p", "f"), lab("w0", "#p", "tbar")])
        left, right = saturation_step(b)
        for child in (left, right):
            assert RelAtom("w0", "w1") in child.items
            assert RelAtom("w0", "w2") in child.items
        assert lab("w1", "p", "t") in left.items
        assert lab("w2", "p", "tbar") in left.items
        assert lab("w1", "p", "f") in right.items
        assert lab("w2", "p", "fbar") in right.items

    def test_propagation_completes_classical_pair(self):
        b = Branch.from_items([lab("w0", "#p", "t"), lab("w0", "#p", "fbar"),
                               RelAtom("w0", "w1"), lab("w1", "p", "t")])
        (out,) = saturation_step(b)
        assert lab("w1", "p", "fbar") in out.items

    # One minimal branch per rule; the items each child adds, in order.
    RULE_CASES = {
        "not_t": (["w0: ~p ; t"], [["w0: p ; f"]]),
        "not_f": (["w0: ~p ; f"], [["w0: p ; t"]]),
        "not_tbar": (["w0: ~p ; tbar"], [["w0: p ; fbar"]]),
        "not_fbar": (["w0: ~p ; fbar"], [["w0: p ; tbar"]]),
        "and_t": (["w0: p & q ; t"], [["w0: p ; t", "w0: q ; t"]]),
        "and_fbar": (["w0: p & q ; fbar"], [["w0: p ; fbar", "w0: q ; fbar"]]),
        "or_f": (["w0: p | q ; f"], [["w0: p ; f", "w0: q ; f"]]),
        "or_tbar": (["w0: p | q ; tbar"], [["w0: p ; tbar", "w0: q ; tbar"]]),
        "and_f-left": (["w0: p & q ; f", "w0: p ; fbar"], [["w0: q ; f"]]),
        "and_f-right": (["w0: p & q ; f", "w0: q ; fbar"], [["w0: p ; f"]]),
        "and_tbar-left": (["w0: p & q ; tbar", "w0: p ; t"], [["w0: q ; tbar"]]),
        "and_tbar-right": (["w0: p & q ; tbar", "w0: q ; t"], [["w0: p ; tbar"]]),
        "or_t-left": (["w0: p | q ; t", "w0: p ; tbar"], [["w0: q ; t"]]),
        "or_t-right": (["w0: p | q ; t", "w0: q ; tbar"], [["w0: p ; t"]]),
        "or_fbar-left": (["w0: p | q ; fbar", "w0: p ; f"], [["w0: q ; fbar"]]),
        "or_fbar-right": (["w0: p | q ; fbar", "w0: q ; f"], [["w0: p ; fbar"]]),
        "tri_B": (["w0: #p ; t", "w0: #p ; f", "w0 R w1"],
                  [["w1: p ; t", "w1: p ; f"]]),
        "tri_N": (["w0: #p ; tbar", "w0: #p ; fbar", "w0 R w1"],
                  [["w1: p ; tbar", "w1: p ; fbar"]]),
        "tri_B+": (["w0: #p ; t", "w0: #p ; f"],
                   [["w0 R w1", "w1: p ; t", "w1: p ; f"]]),
        "tri_N+": (["w0: #p ; tbar", "w0: #p ; fbar"],
                   [["w0 R w1", "w1: p ; tbar", "w1: p ; fbar"]]),
        "tri_T": (["w0: #p ; t", "w0: #p ; fbar", "w0 R w1", "w1: p ; t"],
                  [["w1: p ; fbar"]]),
        "tri_T'": (["w0: #p ; t", "w0: #p ; fbar", "w0 R w1", "w0 R w2",
                    "w1: p ; t", "w1: p ; fbar"],
                   [["w2: p ; t", "w2: p ; fbar"]]),
        "tri_F": (["w0: #p ; f", "w0: #p ; tbar"],
                  [["w0 R w1", "w0 R w2", "w1: p ; t", "w2: p ; tbar"],
                   ["w0 R w1", "w0 R w2", "w1: p ; f", "w2: p ; fbar"]]),
        "cut-tri": (["w0: #p ; t"], [["w0: #p ; f"], ["w0: #p ; fbar"]]),
        "cut-two-premise": (["w0: p & q ; f"], [["w0: p ; f"], ["w0: p ; fbar"]]),
    }

    @staticmethod
    def _item(text):
        if " R " in text:
            return RelAtom(*text.split(" R "))
        world, rest = text.split(": ")
        formula, value = rest.rsplit(" ; ", 1)
        return lab(world, formula, value)

    @pytest.mark.parametrize("rule", list(RULE_CASES))
    def test_rule_adds(self, rule):
        start, expected = self.RULE_CASES[rule]
        b = Branch.from_items([self._item(t) for t in start])
        children = saturation_step(b)
        assert [child.items[len(b):] for child in children] == \
            [[self._item(t) for t in adds] for adds in expected]

    def test_every_rule_the_finders_fire_has_a_case(self):
        # A schema's key names its rule up to the first "-": each rule the
        # finders can return has one, each schema names such a rule, and
        # the first instance on its start is that rule's.
        rules = {name for names in tableau._RULES.values() for name in names}
        rules |= {rule + plus for rule, *_ in tableau._UNIFORM for plus in ("", "+")}
        rules |= {"tri_T", "tri_T'", "tri_F", "cut"}
        assert rules == {key.split("-")[0] for key in self.RULE_CASES}
        for key, (start, _) in self.RULE_CASES.items():
            b = Branch.from_items([self._item(t) for t in start])
            assert tableau._select(b)[0] == key.split("-")[0], key

    @pytest.mark.parametrize("rule", list(RULE_CASES))
    def test_rule_is_sound(self, rule):
        # Under every map of the start's worlds into a model under which
        # the start holds, some child's additions hold under some
        # extension of the map to the worlds that child mints.  The
        # children are the finders' own, not the schema's expected list.
        # Exact for the propositional rules (every 1-world model over p
        # and q); bounded evidence for the modal ones (every valuation of
        # p on one frame per isomorphism class of at most 3 worlds).
        start = [self._item(t) for t in self.RULE_CASES[rule][0]]
        b = Branch.from_items(start)
        children = [child.items[len(b):] for child in saturation_step(b)]
        old = item_worlds(start)
        start_plan = checking_plan([], old, start)
        plans = [checking_plan(old, [w for w in item_worlds(adds) if w not in old], adds)
                 for adds in children]
        items = start + [item for adds in children for item in adds]
        modal = any(isinstance(i, RelAtom) or isinstance(i.formula, Tri) for i in items)
        texts = tuple(sorted({render(i.formula) for i in items if isinstance(i, Labelled)}))
        for succ, table in evaluated_models(("p",) if modal else ("p", "q"),
                                            3 if modal else 1, texts):
            for sigma in holding_maps(start_plan, {}, succ, table):
                assert any(next(holding_maps(plan, sigma, succ, table), None) is not None
                           for plan in plans), (rule, succ, table, sigma)

    def test_closed_branch_rejected(self):
        b = Branch.from_items([lab("w0", "p", "t"), lab("w0", "p", "tbar")])
        with pytest.raises(ValueError, match="closed"):
            saturation_step(b)

    def test_complete_branch_rejected(self):
        b = Branch.from_items([lab("w0", "p", "t")])
        with pytest.raises(ValueError, match="complete"):
            saturation_step(b)


def item_worlds(items) -> list[str]:
    """The world labels the items name, in order, each once."""
    names = (n for i in items
             for n in ((i.source, i.target) if isinstance(i, RelAtom) else (i.world,)))
    return list(dict.fromkeys(names))


def frame_classes(n: int) -> list[Frame]:
    """One frame per isomorphism class of relations on ``n`` worlds: the
    least of its orbit under renaming the worlds, in sorted pair form."""
    pairs = list(product(range(n), repeat=2))
    least = set()
    for bits in range(1 << len(pairs)):
        rel = [pair for k, pair in enumerate(pairs) if bits >> k & 1]
        least.add(min(tuple(sorted((perm[a], perm[b]) for a, b in rel))
                      for perm in permutations(range(n))))
    worlds = [f"u{i}" for i in range(n)]
    return [Frame(worlds, [(worlds[a], worlds[b]) for a, b in rel]) for rel in sorted(least)]


@lru_cache(maxsize=None)
def evaluated_models(names: tuple, max_worlds: int, texts: tuple) -> list:
    """Each model over ``names`` on each of the ``frame_classes`` of at
    most ``max_worlds`` worlds: its successor bitsets, and each formula of
    ``texts`` with its two supports at each world, by the scalar
    ``Evaluator``."""
    formulas = [parse_formula(t) for t in texts]
    models = []
    for n in range(1, max_worlds + 1):
        for frame in frame_classes(n):
            for values in product(FourValue, repeat=n * len(names)):
                row = iter(values)
                ev = Evaluator(Model.from_values(
                    frame, {w: {x: next(row) for x in names} for w in frame.worlds}))
                models.append((frame.succ, {f: [ev.supports(w, f) for w in frame.worlds]
                                            for f in formulas}))
    return models


def checking_plan(known: list[str], labels: list[str], items: list) -> list[tuple]:
    """The items of a map's extension to ``labels``, each checked as soon
    as its worlds are mapped: ``(None, items on known labels)``, then
    ``(label, the items it completes)`` for each label in turn."""
    plan, seen = [], set(known)
    for w in [None] + labels:
        seen.add(w)
        now = [i for i in items if set(item_worlds([i])) <= seen]
        items = [i for i in items if i not in now]
        plan.append((w, now))
    return plan


def holding_maps(plan: list[tuple], sigma: dict, succ: tuple, table: dict):
    """Each extension of ``sigma`` along ``plan`` under which every item
    of the plan holds."""
    (w, now), rest = plan[0], plan[1:]
    for image in [None] if w is None else range(len(succ)):
        mapped = sigma if w is None else {**sigma, w: image}
        if all(item_holds(i, mapped, succ, table) for i in now):
            if rest:
                yield from holding_maps(rest, mapped, succ, table)
            else:
                yield mapped


def item_holds(item, sigma: dict, succ: tuple, table: dict) -> bool:
    """Whether ``item`` holds under the map ``sigma`` of its world labels
    to world positions: ``t`` (``f``) when the formula's truth (falsity)
    is supported there, ``tbar`` (``fbar``) when it is not, and ``w R v``
    when the images are related."""
    if isinstance(item, RelAtom):
        return bool(succ[sigma[item.source]] >> sigma[item.target] & 1)
    truth, falsity = table[item.formula][sigma[item.world]]
    return {Val.T: truth, Val.F: falsity, Val.TBAR: not truth, Val.FBAR: not falsity}[item.value]


class TestProve:
    def test_same_value_of_argument_and_its_negation(self):
        assert isinstance(prove(parse_sequent("#p |- #~p")), Proved)

    def test_excluded_middle_not_noncontingent(self):
        s = parse_sequent("q | ~q |- #(q | ~q)")
        res = prove(s)
        assert isinstance(res, Refuted)
        assert len(res.model.frame.worlds) == 3
        assert Evaluator(res.model).supports(res.world, s.premise)[0]
        assert not Evaluator(res.model).supports(res.world, s.conclusion)[0]

    def test_no_explosion(self):
        res = prove(parse_sequent("p & ~p |- q"))
        assert isinstance(res, Refuted)
        assert res.model.value(res.world, "p") is FourValue.B
        assert not Evaluator(res.model).supports(res.world, q)[0]

    def test_conjunction_elimination(self):
        assert isinstance(prove(parse_sequent("p & q |- p")), Proved)

    def test_box_is_rejected(self):
        with pytest.raises(LanguageError):
            prove(parse_sequent("[]p |- p"))

    @pytest.mark.parametrize("value", [None, 3, p], ids=["None", "int", "Formula"])
    def test_entry_points_refuse_other_types(self, value):
        # The text entry points take a str and prove a Sequent; anything
        # else is refused by type, its type named, before it is read.
        for entry, wanted in ((parse_formula, "str"), (parse_sequent, "str"), (prove, "Sequent")):
            with pytest.raises(TypeError) as info:
                entry(value)
            assert str(info.value).endswith(f"takes a {wanted}, not {type(value).__name__}")

    @pytest.mark.parametrize("start", ["x", None, ["truth"]], ids=["str", "None", "list"])
    def test_an_unknown_start_mode_is_refused(self, start):
        # A start that is not a mode's name, an unhashable one too, is
        # refused by value, not by the TypeError of a dict lookup.
        with pytest.raises(ValueError, match="unknown start mode"):
            prove(parse_sequent("p |- q"), start=start)

    @pytest.mark.parametrize("text", ["###p |- #p", "#p |- ###p",
                                      "##(p & q) |- ##p", "#(#p & #q) |- ##(p | q)",
                                      "###p |- ###~p"])
    def test_nested_modalities_terminate(self, text):
        res = prove(parse_sequent(text))
        if isinstance(res, Refuted):
            s = parse_sequent(text)
            assert Evaluator(res.model).supports(res.world, s.premise)[0]
            assert not Evaluator(res.model).supports(res.world, s.conclusion)[0]

    def test_hand_corpus_verdicts(self):
        for s, expected in hand_sequents():
            assert isinstance(prove(s), Proved) is expected, str(s)

    def test_contraposed_tree_closes_iff_plain_tree_does(self):
        # Also under injective variable renamings, which keep every verdict.
        for mapping in ({}, *RENAMINGS):
            for s, expected in hand_sequents(mapping):
                plain = isinstance(prove(s), Proved)
                contraposed = isinstance(prove(s, start="nonfalsity"), Proved)
                assert plain == contraposed, str(s)
                assert plain is expected

    def test_substitution_instances_of_proved_sequents_are_proved(self):
        for s, proved in hand_sequents({"p": "(#q & ~r)", "q": "(p | #~p)", "r": "##q"}):
            if proved:
                assert isinstance(prove(s), Proved), str(s)

    def test_deterministic_output(self):
        for text in ("#p |- #~p", "q | ~q |- #(q | ~q)", "#p |- ##p"):
            s = parse_sequent(text)
            assert result_to_dict(prove(s)) == result_to_dict(prove(s))

    def test_golden_proof_trees(self):
        # Proof trees, minted labels and countermodels are part of the
        # determinism contract: any change to rule order shows up here.
        sequents = corpus() + [parse_sequent(f"{'#' * k}p |- {'#' * k}~p")
                               for k in (1, 2, 3)]
        digest = hashlib.sha256()
        for s in sequents:
            for start in ("truth", "nonfalsity"):
                digest.update(result_to_json(prove(s, start=start)).encode())
        assert digest.hexdigest() == \
            "07f270b3159efd45785f1a6d38f5cc72590dc3b53d6ba0389d41b7361abe48ab"

    def test_golden_proof_tree_at_depth_four(self):
        # The deepest nesting the prover runs in well under a second; the
        # agenda and the trail carry the most state here.
        res = prove(parse_sequent("####p |- ####~p"))
        assert (res.stats.rule_applications, res.stats.splits,
                res.stats.worlds_created) == (7558, 2128, 3263)
        assert hashlib.sha256(result_to_json(res).encode()).hexdigest() == \
            "cfd6b569e9a31c635aa71add59a7125dfa56e8cb0537528114916fc241bb1c8d"

    def test_statistics_at_depth_five(self):
        # The search carries the most state here; its trees are CLI contract rows.
        res = prove(parse_sequent("#####p |- #####~p"))
        assert isinstance(res, Proved) and res.stats == ProofStats(43071, 11924, 2473, 9452, 20855)

    def test_subformula_property(self):
        for text in ("#p |- #~p", "q | ~q |- #(q | ~q)", "###p |- #p"):
            s = parse_sequent(text)
            allowed = subformulas(s.premise) | subformulas(s.conclusion)
            stack = [prove(s).tree]
            while stack:
                node = stack.pop()
                for item in node.added:
                    if isinstance(item, Labelled):
                        assert item.formula in allowed
                stack.extend(node.children)

    def test_proved_statistics_populated(self):
        res = prove(parse_sequent("#p |- #~p"))
        assert res.stats.rule_applications > 0
        assert res.stats.branches_closed >= 1


class TestExtraction:
    def test_leftmost_open_branch_of_failed_figure_proof(self):
        # The complete open branch of the failed proof of #(q | ~q),
        # reconstructed item by item; its model has q B at w1, N at w2,
        # and defaults to N at the unconstrained root.
        ex_mid = parse_formula("q | ~q")
        items = [
            Labelled("w0", parse_formula("#(q | ~q)"), Val.TBAR),
            Labelled("w0", parse_formula("#(q | ~q)"), Val.F),
            RelAtom("w0", "w1"), RelAtom("w0", "w2"),
            Labelled("w1", ex_mid, Val.T),
            Labelled("w2", ex_mid, Val.TBAR),
            Labelled("w2", q, Val.TBAR),
            Labelled("w2", Not(q), Val.TBAR),
            Labelled("w2", q, Val.FBAR),
            Labelled("w1", ex_mid, Val.F),
            Labelled("w1", q, Val.F),
            Labelled("w1", Not(q), Val.F),
            Labelled("w1", q, Val.T),
        ]
        pointed = extract_countermodel(Branch.from_items(items))
        assert pointed.world == "w0"
        m = pointed.model
        assert m.frame.worlds == ("w0", "w1", "w2")
        assert m.frame.relation == {("w0", "w1"), ("w0", "w2")}
        assert m.value("w1", "q") is FourValue.B
        assert m.value("w2", "q") is FourValue.N
        assert m.value("w0", "q") is FourValue.N
        assert not Evaluator(m).supports("w0", parse_formula("#(q | ~q)"))[0]

    def test_single_positive_atom(self):
        pointed = extract_countermodel(Branch.from_items([lab("w0", "p", "t")]))
        assert pointed.model.frame.worlds == ("w0",)
        assert not pointed.model.frame.relation
        assert pointed.model.value("w0", "p") is FourValue.T

    def test_reflexive_glut(self):
        b = Branch.from_items([lab("w0", "p", "t"), lab("w0", "p", "f"),
                               RelAtom("w0", "w0")])
        pointed = extract_countermodel(b)
        assert pointed.model.frame.relation == {("w0", "w0")}
        assert pointed.model.value("w0", "p") is FourValue.B

    def test_variables_of_non_atom_items_are_kept(self):
        # q and r occur only inside compound formulas, never as atom items,
        # and r only at the second world.
        b = Branch.from_items([lab("w0", "p", "t"), lab("w0", "q | p", "t"),
                               lab("w1", "#(r & ~p)", "t"), RelAtom("w0", "w1")])
        m = extract_countermodel(b).model
        assert m.variables == {"p", "q", "r"}
        assert m.value("w0", "q") is FourValue.N and m.value("w1", "r") is FourValue.N

    def test_extraction_equals_the_name_set_reference(self, monkeypatch):
        # Every refuted result of the golden corpus and of the benchmark's
        # prove sequents at seeds 1 and 2, from both starts.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        gen = importlib.import_module("gen")
        sequents = corpus() + [parse_sequent(x["text"]) for seed in (1, 2)
                               for x in gen.prove_inputs(seed)["sequents"]]
        refuted = 0
        for s in sequents:
            for start in ("truth", "nonfalsity"):
                res = prove(s, start=start)
                if isinstance(res, Refuted):
                    expected = extract_by_name_sets(res.branch)
                    assert res.model == expected and res.model.variables == expected.variables
                    assert model_to_dict(res.model) == model_to_dict(expected), (str(s), start)
                    refuted += 1
        assert refuted == 814

    def test_closed_branch_rejected(self):
        b = Branch.from_items([lab("w0", "p", "t"), lab("w0", "p", "tbar")])
        with pytest.raises(ValueError):
            extract_countermodel(b)

    def test_unrealisable_branch_raises(self):
        # t entry for a disjunction with both disjuncts untrue cannot be
        # realised; a finished search never produces such a branch.
        b = Branch.from_items([
            Labelled("w0", Or(p, q), Val.T),
            Labelled("w0", p, Val.TBAR),
            Labelled("w0", q, Val.TBAR),
        ])
        with pytest.raises(RealisationError):
            extract_countermodel(b)


class TestRealisation:
    def test_extraction_realises_its_own_branch(self):
        for text in ("p & ~p |- q", "q | ~q |- #(q | ~q)", "#p |- p"):
            res = prove(parse_sequent(text))
            assert isinstance(res, Refuted)
            assert check_realisation(res.model, res.branch)

    def test_gap_model_fails_positive_branch(self):
        m = Model.from_values(Frame(["w0"], []), {"w0": {"p": "N"}})
        b = Branch.from_items([lab("w0", "p", "t")])
        assert check_realisation(m, b) is False

    def test_figure_model_realises_figure_branch(self):
        m = Model.from_values(
            Frame(["w0", "w1", "w2"], [("w0", "w1"), ("w0", "w2")]),
            {"w0": {"q": "B"}, "w1": {"q": "B"}, "w2": {"q": "N"}})
        items = [
            Labelled("w0", parse_formula("#(q | ~q)"), Val.TBAR),
            Labelled("w0", parse_formula("#(q | ~q)"), Val.F),
            RelAtom("w0", "w1"), RelAtom("w0", "w2"),
            Labelled("w1", parse_formula("q | ~q"), Val.T),
            Labelled("w2", parse_formula("q | ~q"), Val.TBAR),
            Labelled("w1", q, Val.T), Labelled("w1", q, Val.F),
            Labelled("w2", q, Val.TBAR), Labelled("w2", q, Val.FBAR),
        ]
        assert check_realisation(m, Branch.from_items(items)) is True

    def test_missing_relation_atom_fails(self):
        m = Model.from_values(Frame(["w0", "w1"], []), {"w0": {"p": "T"}})
        b = Branch.from_items([RelAtom("w0", "w1")])
        assert check_realisation(m, b) is False

    def test_item_at_a_missing_world_fails(self):
        m = Model.from_values(Frame(["w0"], []), {"w0": {"p": "T"}})
        b = Branch.from_items([lab("w1", "p", "t")])
        assert check_realisation(m, b) is False


class TestSerialization:
    def test_tree_text_mentions_rules(self):
        res = prove(parse_sequent("#p |- #~p"))
        text = tree_to_text(res.tree)
        assert "root" in text and "cut" in text and "tri_" in text

    def test_tree_dict_shape(self):
        res = prove(parse_sequent("p & q |- p"))
        tree = tree_to_dict(res.tree)
        assert tree["rule"] is None
        assert tree["add"][0]["world"] == "w0"
        leaf = tree
        while leaf["children"]:
            leaf = leaf["children"][-1]
        assert leaf["status"] == "closed"

    def test_refuted_result_dict_round_trips_model(self):
        from fdek.semantics import model_from_dict
        res = prove(parse_sequent("#p |- p"))
        data = result_to_dict(res)
        assert data["verdict"] == "refuted"
        m = model_from_dict(data["model"])
        assert Evaluator(m).supports(data["designated"], parse_formula("#p"))[0]

    def test_tree_text_is_pinned(self):
        # These digests pin the text of tree_to_text in both modes.
        expected = {
            ("###p |- ###~p", False):
                "be9ab2d66620efffcdae2c03a9a556bde8f5db1cbf9e87b161ebe2d9a1db1222",
            ("###p |- ###~p", True):
                "2c3dbf8cdc2f88bab24863aa4a01a660fce86bb68e27c958cd697f27e705cfd4",
            ("#p |- ##p", False):
                "1a338c2e22afb93b37d346ddb707401699e4acc57367ab4eec40c7c88e011248",
            ("#p |- ##p", True):
                "67ade1798332d11d1c05cae21e31f595af52ddc46e45bda60ba2a5fb6094b591",
        }
        for (text, pretty), digest in expected.items():
            tree = prove(parse_sequent(text)).tree
            assert hashlib.sha256(tree_to_text(tree, pretty).encode()).hexdigest() == digest

    def test_json_matches_the_standard_encoder(self):
        nested = [parse_sequent(f"{'#' * k}p |- {'#' * k}~p") for k in (1, 2, 3)]
        for s in corpus() + nested:
            for start in ("truth", "nonfalsity"):
                res = prove(s, start=start)
                assert result_to_json(res) == json.dumps(result_to_dict(res), indent=2)

    def test_json_of_hand_built_trees_matches_the_standard_encoder(self):
        # Relational atoms, a node that adds nothing, every leaf status, a
        # root without children, and labels the encoder must escape.
        odd = 'w"\u00e9'
        root = ProofNode(None, (lab("w0", "#p", "t"), lab("w0", "#~p", "tbar")))
        step = ProofNode("tri_F", (RelAtom("w0", odd), lab(odd, "p & ~q", "f")))
        empty = ProofNode("and_t", ())
        empty.children = [ProofNode("cut", (lab(odd, "p", "t"),), status="open"),
                          ProofNode("cut", (), status="pruned")]
        step.children = [empty]
        root.children = [ProofNode("cut", (lab("w0", "p", "t"),), status="closed"), step]
        stats = ProofStats(rule_applications=3, splits=2, branches_closed=1,
                           branches_pruned=1, worlds_created=1)
        for tree in (root, ProofNode(None, (RelAtom("w0", "w1"),)), ProofNode(None, ())):
            res = Proved(tree, stats)
            assert result_to_json(res) == json.dumps(result_to_dict(res), indent=2)

    def test_json_of_a_model_without_valuation_rows(self):
        # model_to_dict omits the valuation row of a world that values no
        # variable; here no world has one, so "val" is an empty object.  The
        # second world's label must be escaped in the model and the branch.
        odd = 'w"\u00e9'
        items = (RelAtom("w0", odd), lab(odd, "#p", "tbar"))
        model = Model(Frame(["w0", odd], [("w0", odd)]), {}, {})
        res = Refuted(Branch.from_items(items), model, "w0",
                      ProofNode(None, items, status="open"), ProofStats())
        assert result_to_dict(res)["model"]["val"] == {}
        assert result_to_json(res) == json.dumps(result_to_dict(res), indent=2)

    @given(sequent=_HASH_SEQUENTS, start=st.sampled_from(["truth", "nonfalsity"]))
    @settings(max_examples=150, deadline=None)
    def test_json_matches_the_standard_encoder_on_random_sequents(self, sequent, start):
        res = prove(parse_sequent(sequent), start=start)
        assert result_to_json(res) == json.dumps(result_to_dict(res), indent=2)

    def test_json_of_a_deep_tree(self):
        # Two JSON levels per tree level: the standard encoder overflows the
        # stack here.  The indentation makes the text grow with the square
        # of the depth (24 MB at this depth), so the chain stays short.
        text = result_to_json(Proved(_chain(1000), ProofStats()))
        assert text.count('"rule": "not_t"') == 1000
        assert text.endswith("\n}") and '"status": "open"' in text
        # Levels past the cap were built for that call only.
        assert max(tableau._LEVELS) < tableau._CACHED_LEVELS

    def test_json_is_the_same_before_and_after_other_results(self):
        # The level pieces outlive each call; what an earlier result, short
        # or deep, left behind must not change a later one's bytes.  The
        # proof of ####p |- ####~p reaches 146 levels, past the 128 kept.
        s = parse_sequent("###p |- ###~p")
        first = result_to_json(prove(s))
        for other in (Proved(_chain(1000), ProofStats()), prove(parse_sequent("####p |- ####~p"))):
            result_to_json(other)
            assert result_to_json(prove(s)) == first
        assert hashlib.sha256(first.encode()).hexdigest() == (
            "5e4b6a462ef29e0051f90a45995e4fc764efcfe8f10ebbe460168f3ce04f424e")

    def test_json_of_many_results_in_one_process(self):
        # A result holds no reference cycle, so ``del`` frees it and CPython
        # hands its formulas' ids on to the next result's: a memo keyed by
        # id that outlived its call would write stale text here.  ``seen``
        # keeps each root formula's text by id, to count the ids that came
        # back on a formula with other text; without them the test would
        # show nothing.
        texts = [f"{render(s.premise)} |- {render(s.conclusion)}"
                 for s in random_sequents(200, seed=25)]
        seen, reused = {}, 0
        for i, text in enumerate(texts):
            res = prove(parse_sequent(text), start=("truth", "nonfalsity")[i % 2])
            assert result_to_json(res) == json.dumps(result_to_dict(res), indent=2), text
            for item in res.tree.added:
                rendered = render(item.formula)
                reused += seen.get(id(item.formula), rendered) != rendered
                seen[id(item.formula)] = rendered
            del res
        assert reused >= 20, reused


def _chain(depth):
    """A proof tree of ``depth`` nodes below its root, one per level."""
    root = node = ProofNode(None, (lab("w0", "p", "t"),))
    for _ in range(depth):
        child = ProofNode("not_t", (lab("w0", "~p", "f"),))
        node.children.append(child)
        node = child
    node.status = "open"
    return root


ROOTS = {"truth": (Val.T, Val.TBAR), "nonfalsity": (Val.FBAR, Val.F)}


def root_branch(s, start):
    premise, conclusion = ROOTS[start]
    return Branch.from_items((Labelled("w0", s.premise, premise),
                              Labelled("w0", s.conclusion, conclusion)))


def reference_select(b):
    """The full scan the agenda stands for: every finder, in priority order,
    over every item of the branch, in insertion order; the first instance
    found, which must be a split or a linear instance with an addition
    missing from the branch.  Finders and instances work on the branch's
    item codes."""
    for finder in tableau._FINDERS:
        for code in b.codes:
            inst = finder(b, code)
            if inst is not None:
                assert len(inst[1]) > 1 or any(c not in b.deps for c in inst[1][0])
                return inst
    return None


def check_select(b):
    """``_select(b)``, asserted equal to the full scan on a copy of ``b``;
    neither may change what the branch records as fired."""
    ref = b.copy()
    want = reference_select(ref)
    got = tableau._select(b)
    assert got == want
    assert b.fired == ref.fired
    return got


def walk_all_paths(b, check=check_select):
    """Every saturation_step below ``b``, both children of every split;
    ``check`` selects on each open branch."""
    stack = [b]
    while stack:
        b = stack.pop()
        if not b.closed and check(b) is not None:
            stack.extend(saturation_step(b))


class TestAgenda:
    NESTED = [parse_sequent(f"{'#' * k}p |- {'#' * k}~p") for k in (1, 2)]

    def test_a_new_label_wakes_the_earlier_entries(self):
        # w1: #p gets its fbar at the end of the branch while tri_B on
        # w0: #q still waits for w3.  The scan reaches the t entry of #p,
        # position 0, first; an agenda that woke only the new entry would
        # fire tri_B first.
        b = Branch.from_items([TestSaturationStep._item(t) for t in (
            "w1: #p ; t", "w1 R w2", "w2: p ; t", "w0: #q ; t", "w0: #q ; f",
            "w0 R w1", "w1: q | #p ; fbar", "w0 R w3")])
        rules = []
        for _ in range(3):
            rules.append(check_select(b)[0])
            (b,) = saturation_step(b)
        assert rules == ["tri_B", "or_fbar", "tri_T"]
        walk_all_paths(b)

    def test_search_selects_as_a_full_scan(self, monkeypatch):
        # Every selection of the proof search, on the states that undoing
        # the trail restores as well as on the ones it extends.
        calls = []
        select = tableau._select

        def checked(b):
            calls.append(None)
            ref = b.copy()
            want = reference_select(ref)
            got = select(b)
            assert got == want
            assert b.fired == ref.fired
            return got

        monkeypatch.setattr(tableau, "_select", checked)
        for s in corpus() + self.NESTED:
            for start in ROOTS:
                prove(s, start=start)
        assert len(calls) > 5000

    @pytest.mark.parametrize("start", list(ROOTS))
    def test_saturation_steps_select_as_a_full_scan(self, start):
        for s in [s for s, _ in hand_sequents()] + self.NESTED[:1]:
            walk_all_paths(root_branch(s, start))

    def test_branches_from_items_select_as_a_full_scan(self):
        starts = [[TestSaturationStep._item(t) for t in items]
                  for items, _ in TestSaturationStep.RULE_CASES.values()]
        for items in starts:
            walk_all_paths(Branch.from_items(items))
        # Rebuilt from its items alone, a branch has every rule unfired
        # again and every position dirty.
        for s in corpus()[::10]:
            for start in ROOTS:
                b = root_branch(s, start)
                while not b.closed and check_select(Branch.from_items(b.items)):
                    if check_select(b) is None:
                        break
                    b = saturation_step(b)[-1]

    # The first and second labels of a #-key.  Whatever the pair, the
    # second wakes the two finders that read label pairs, the modal and the
    # world-creating rules.  The key's first label woke its cut alone, which
    # still applies when the second comes.
    SECOND_LABELS = [("t", "f"), ("t", "fbar"), ("tbar", "f"), ("tbar", "fbar"),
                     ("f", "t"), ("fbar", "t"), ("f", "tbar"), ("fbar", "tbar")]

    @pytest.mark.parametrize("labels", SECOND_LABELS)
    def test_a_second_label_wakes_the_finders_of_its_pairs(self, labels):
        first, second = labels
        b = Branch.from_items([TestSaturationStep._item(t)
                               for t in ("w0 R w1", "w1: p ; t", f"w0: #p ; {first}")])
        assert [bool(d) for d in b.dirty] == [False, False, True, False]
        b.add(encode_by_index(b.table, TestSaturationStep._item(f"w0: #p ; {second}")))
        # Only the key's first entry, at position 2, is on the agenda.
        assert {i for i, d in enumerate(b.dirty) if d} == {1, 2, 3}
        assert set().union(*b.dirty) == {2}
        walk_all_paths(b)

    def test_a_relational_atom_wakes_no_world_creating_rule(self):
        # tri_B+ and tri_N+ need a world without successors, and tri_F reads
        # none.  Every successor wakes the #-entries' modal rules and cut,
        # the first as well as later ones.
        b = settled(["w0: #p ; t", "w0: #p ; fbar"])
        assert woken(b, "w0 R w1") == [1, 2]
        walk_all_paths(b)
        b = settled(["w0: #p ; t", "w0: #p ; f", "w0 R w1"])
        assert woken(b, "w0 R w2") == [1, 2]
        walk_all_paths(b)
        b = settled(["w0: #p ; f", "w0: #p ; tbar", "w0: #q ; t", "w0: #q ; f"])
        assert len(b.succ[0]) == 2 and woken(b, "w0 R w3") == [1, 2]
        walk_all_paths(b)

    def test_an_argument_entry_wakes_no_cut_one_step_back(self):
        # It can only supply the entry at a successor that the cut lacks.
        b = settled(["w0: #p ; f", "w0: #p ; tbar", "w0 R w3"])
        assert woken(b, "w3: p ; t") == [1]
        walk_all_paths(b)
        # Nor where the cut reads the argument at the successors: w1: p
        # carries t and fbar here, so the cut does not apply.
        b = settled(["w0: #p ; t", "w0: #p ; fbar", "w0 R w1"])
        assert woken(b, "w1: p ; f") == [1] and not b.dirty[2]
        walk_all_paths(b)

    def test_a_subformula_label_wakes_no_cut_of_its_parents(self):
        # It can only decide their dimension; only the minor premise bar(v)
        # wakes a two-premise entry v, for its linear rule.
        b = settled(["w0: p & q ; f", "w0: p ; fbar"])
        assert woken(b, "w0: q ; t") == []
        assert woken(b, "w0: p ; t") == []
        walk_all_paths(b)
        b = settled(["w0: p & q ; f"])
        assert woken(b, "w0: q ; fbar") == [0]
        walk_all_paths(b)

    def test_finder_visits_on_a_nested_proof(self, monkeypatch):
        # An agenda that woke every entry of a #-key, and every finder that
        # reads what an event changed, made 6 784 visits for these 1 271
        # rule applications.
        visits = []

        def counted(finder):
            def visit(b, code):
                visits.append(None)
                return finder(b, code)
            return visit

        monkeypatch.setattr(tableau, "_FINDERS", tuple(map(counted, tableau._FINDERS)))
        res = prove(parse_sequent("###p |- ###~p"))
        assert res.stats.rule_applications == 1271
        assert len(visits) <= 4000


def settled(texts):
    """The leftmost complete branch below the branch of ``texts``, every
    selection checked against the full scan; its agenda is empty."""
    b = Branch.from_items([TestSaturationStep._item(t) for t in texts])
    while not b.closed and check_select(b) is not None:
        b = saturation_step(b)[0]
    assert not b.closed and not any(b.dirty)
    return b


def woken(b, text):
    """Add the item of ``text`` to ``b``: the finders that gained a
    position, by their index in ``_FINDERS``."""
    before = [set(d) for d in b.dirty]
    assert b.add(encode_by_index(b.table, TestSaturationStep._item(text)))
    return [i for i, (d, old) in enumerate(zip(b.dirty, before)) if d - old]


def fired_pairs(b):
    """``b.fired`` decoded to (world, #-formula) pairs."""
    t = b.table
    return {(t.names[k // t.size], t.formulas[k % t.size]) for k in b.fired}


def tri_f_pairs(node):
    """The (world, #-formula) pair a tri_F node splits on, as a set, or the
    empty set for any other node.  A tri_F node adds w R k1, w R k2, then
    the witnesses for the argument at k1 and at k2."""
    if node.rule != "tri_F":
        return frozenset()
    return frozenset({(node.added[0].source, Tri(node.added[2].formula))})


def path_walk(tree):
    """Every node of a proof tree but the pruned ones, each with the pairs
    that the tri_F nodes above it split on."""
    stack = [(tree, frozenset())]
    while stack:
        node, above = stack.pop()
        if node.status == "pruned":
            continue
        yield node, above
        stack.extend((child, above | tri_f_pairs(node)) for child in node.children)


class TestApplicability:
    """A rule fires only when it adds something; the only record of past
    applications is the tri_F pairs in ``Branch.fired``."""

    @pytest.fixture(scope="class")
    def results(self):
        sequents = corpus() + [parse_sequent(f"{'#' * k}p |- {'#' * k}~p") for k in (1, 2, 3)]
        return [prove(s, start=start) for s in sequents for start in ROOTS]

    def test_every_node_adds_an_item(self, results):
        for res in results:
            for node, _ in path_walk(res.tree):
                assert node.added, node.rule

    def test_tri_f_splits_each_pair_once_per_path(self, results):
        splits = 0
        for res in results:
            for node, above in path_walk(res.tree):
                if node.rule == "tri_F":
                    splits += 1
                    assert not tri_f_pairs(node) & above
        assert splits > 100

    def test_fired_is_the_tri_f_pairs_of_the_open_path(self, results):
        refuted = [res for res in results if isinstance(res, Refuted)]
        assert len(refuted) > 10
        for res in refuted:
            (split,) = [above | tri_f_pairs(node) for node, above in path_walk(res.tree)
                        if node.status == "open"]
            assert fired_pairs(res.branch) == split


def by_value(x):
    """A snapshot of ``x`` that shares no container with it; dicts become
    lists of pairs, so the order of their keys counts too."""
    if isinstance(x, dict):
        return [(k, by_value(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [by_value(v) for v in x]
    if isinstance(x, set):
        return set(x)
    return x


def containers(x):
    """Every dict, list and set reachable from ``x``."""
    found, stack = [], [x]
    while stack:
        y = stack.pop()
        if isinstance(y, (dict, list, set)):
            found.append(y)
        if isinstance(y, dict):
            stack.extend(y.values())
        elif isinstance(y, (list, tuple)):
            stack.extend(y)
    return found


def agenda_state(b):
    """Every field of ``b`` but the shared table, by value, less the empty
    entries that an undo leaves behind in the indexes of lists."""
    nonempty = lambda d: {k: v for k, v in d.items() if v}
    return by_value((b.codes, b.deps, nonempty(b.vals), nonempty(b.succ), nonempty(b.pred),
                     b.worlds, b.fired, b.fresh, b.closing, b.decisions,
                     b.tris, nonempty(b.tri_at), nonempty(b.binary), b.dirty))


class TestTrail:
    def test_undo_restores_the_checkpoint(self):
        for s in corpus()[::5] + TestAgenda.NESTED:
            for start in ROOTS:
                b = root_branch(s, start)
                while not b.closed:
                    inst = tableau._select(b)
                    if inst is None:
                        break
                    before, cp = agenda_state(b), b.checkpoint()
                    for additions in inst[1]:
                        tableau._apply_to(b, inst, additions)
                        tableau._select(b)
                        b.undo(cp)
                        assert agenda_state(b) == before
                    tableau._apply_to(b, inst, inst[1][0])

    def test_saturation_step_leaves_its_branch_alone(self):
        b = root_branch(parse_sequent("#p |- ##p"), "truth")
        tableau._select(b)
        before = agenda_state(b)
        left, right = saturation_step(b)
        assert agenda_state(b) == before
        saturation_step(left)
        assert agenda_state(b) == before and len(right) == len(b) + 1


class TestBranchStores:
    def test_copy_is_equal_and_shares_no_container(self):
        # The table is the numbering of the whole search, so a copy shares
        # it; it holds no state of the branch.
        fields = [slot for slot in Branch.__slots__ if slot != "table"]
        for s in corpus()[::10] + TestAgenda.NESTED:
            b = root_branch(s, "truth")
            for _ in range(40):
                c = b.copy()
                for slot in fields:
                    assert by_value(getattr(c, slot)) == by_value(getattr(b, slot)), slot
                assert c.table is b.table
                mine = {id(x) for slot in Branch.__slots__ for x in containers(getattr(b, slot))}
                assert not any(id(x) in mine for slot in Branch.__slots__
                               for x in containers(getattr(c, slot)))
                if b.closed or tableau._select(b) is None:
                    break
                b = saturation_step(b)[-1]

    @pytest.mark.parametrize("start", list(ROOTS))
    def test_a_copy_after_dropped_positions_selects_as_its_original(self, start):
        # A copy replays its original's items, so its agenda holds again the
        # positions that _select has dropped from the original's.
        stores = [slot for slot in Branch.__slots__ if slot not in ("table", "dirty")]
        dropped = []

        def check(b):
            before = [set(d) for d in b.dirty]
            got = check_select(b)
            dropped.append(any(d < old for d, old in zip(b.dirty, before)))
            c = b.copy()
            for slot in stores:
                assert by_value(getattr(c, slot)) == by_value(getattr(b, slot)), slot
            assert all(mine <= theirs for mine, theirs in zip(b.dirty, c.dirty))
            assert tableau._select(c) == tableau._select(b) == got
            return got

        for s, _ in hand_sequents():
            walk_all_paths(root_branch(s, start), check)
        assert sum(dropped) > 100

    def test_worlds_keep_their_first_insertion_order(self):
        b = Branch.from_items([lab("w0", "#p", "t"), RelAtom("w0", "w1"), lab("w3", "p", "t")])
        labels = lambda ws: [b.table.names[w] for w in ws]
        minted = lambda: (labels(b.mint(2)[0]), b.mint(2)[1])
        assert minted() == (["w2", "w4"], 5)
        cp = b.checkpoint()
        for item in (RelAtom("w3", "w5"), lab("w2", "p", "f"), RelAtom("w1", "w0")):
            b.add(encode_by_index(b.table, item))
        assert labels(b.worlds) == ["w0", "w1", "w3", "w5", "w2"]
        b.undo(cp)
        assert labels(b.worlds) == ["w0", "w1", "w3"]
        assert minted() == (["w2", "w4"], 5)

    def test_decisions_live_with_their_facts(self):
        b = Branch.from_items([lab("w0", "#p", "f"), lab("w0", "#p", "tbar")])
        inst = tableau._select(b)
        tableau._apply_to(b, inst, inst[1][1])
        dep = lambda item: b.deps[encode_by_index(b.table, item)]
        # Membership is read off the items: ``encode_by_index`` would
        # number an unknown world label as it went.
        items = b.items

        def values(world, f):
            return {v: dep(Labelled(world, f, v)) for v in Val if Labelled(world, f, v) in items}

        assert values("w0", parse_formula("#p")) == {Val.F: 0, Val.TBAR: 0}
        names = b.table.names
        assert {names[w]: [names[t] for t in ts] for w, ts in b.succ.items()} == \
            {"w0": ["w1", "w2"]}
        assert dep(RelAtom("w0", "w1")) == 0
        assert values("w1", p) == {Val.F: 1} and values("w2", p) == {Val.FBAR: 1}
        assert dep(RelAtom("w0", "w2")) == 0 and dep(lab("w2", "p", "fbar")) == 1
        assert RelAtom("w0", "w1") in items and lab("w1", "p", "f") in items
        assert RelAtom("w1", "w0") not in items and lab("w1", "p", "t") not in items


class TestOracleAgreementSample:
    def test_proved_sequents_have_no_small_countermodels(self):
        for text in ("#p |- #~p", "p & q |- p", "~(p | q) |- ~p & ~q"):
            assert find_countermodel(parse_sequent(text), 3) is None

    def test_refuted_sequents_have_small_countermodels(self):
        for text in ("#p |- p", "p |- #p", "#p |- ##p"):
            assert find_countermodel(parse_sequent(text), 3) is not None


def proof_items(tree):
    """Every item of every node of a proof tree."""
    stack, found = [tree], []
    while stack:
        node = stack.pop()
        found.extend(node.added)
        stack.extend(node.children)
    return found


class TestEdges:
    """Branches work on int codes inside; items, relational atoms and world
    labels are decoded where they leave the search."""

    def test_arbitrary_labels_through_steps_minting_and_extraction(self):
        # Labels that are not w<n>, beside w<n> ones the minting counter
        # would reach first: tri_F must skip w1 and w2.
        b = Branch.from_items([lab("wc", "#p", "f"), lab("wc", "#p", "tbar"),
                               lab("w1", "p", "t"), RelAtom("v1", "w2")])
        left, right = saturation_step(b)
        for child, (v1, v2) in ((left, ("t", "tbar")), (right, ("f", "fbar"))):
            assert child.items[len(b):] == [RelAtom("wc", "w3"), RelAtom("wc", "w4"),
                                            lab("w3", "p", v1), lab("w4", "p", v2)]
        b = left
        while not b.closed:
            try:
                b = saturation_step(b)[0]
            except ValueError:      # complete
                break
        assert not b.closed
        pointed = extract_countermodel(b)
        assert pointed.world == "wc"
        assert pointed.model.frame.worlds == ("wc", "w1", "v1", "w2", "w3", "w4")
        assert pointed.model.frame.relation == {("v1", "w2"), ("wc", "w3"), ("wc", "w4")}
        assert pointed.model.value("w1", "p") is FourValue.T
        assert pointed.model.value("w3", "p") is FourValue.T
        assert check_realisation(pointed.model, b)

    def test_refuted_branch_items_in_insertion_order(self):
        for text in ("#p |- p", "q | ~q |- #(q | ~q)", "#p |- ##p"):
            for start in ROOTS:
                res = prove(parse_sequent(text), start=start)
                assert isinstance(res, Refuted)
                items = res.branch.items
                assert all(type(item) in (Labelled, RelAtom) for item in items)
                # The items the nodes add along the path to the open leaf.
                path, node = [], res.tree
                while True:
                    path.extend(node.added)
                    if node.status == "open":
                        break
                    node = next(child for child in node.children
                                if child.status != "pruned" and has_open_leaf(child))
                assert items == path
                assert all(a is b for a, b in zip(items, path))

    def test_equal_items_of_a_proof_are_one_object(self):
        for text in ("##p |- ##~p", "#p |- ##p", "q | ~q |- #(q | ~q)"):
            for start in ROOTS:
                res = prove(parse_sequent(text), start=start)
                items = proof_items(res.tree)
                if isinstance(res, Refuted):
                    items += res.branch.items
                assert len({id(item) for item in items}) == len(set(items)) < len(items)

    def test_the_step_probe_of_the_benchmark_runs(self, monkeypatch):
        # The benchmark times Branch.from_items, copy, len, closed and
        # saturation_step along the leftmost path; they are not on the
        # search's own path, so run them as the benchmark does.
        import importlib
        from pathlib import Path
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        workloads = importlib.import_module("workloads")
        tracer = importlib.import_module("spans").Tracer()
        for text in ("#p |- #~p", "q | ~q |- #(q | ~q)"):
            for start in ROOTS:
                workloads._step_probe(tracer, parse_sequent(text), start)
        steps = [span.attrs["items"] for span in tracer.spans if span.name == "tableau.step"]
        copies = [span.attrs["items"] for span in tracer.spans if span.name == "tableau.copy"]
        assert len(steps) > 20 and len(copies) == len(steps)
        assert steps == copies and all(n >= 2 for n in steps)


def has_open_leaf(node):
    stack = [node]
    while stack:
        node = stack.pop()
        if node.status == "open":
            return True
        stack.extend(node.children)
    return False


@pytest.fixture(scope="module")
def refutations():
    """Every refuted result of ``corpus()`` and of the benchmark's ``prove``
    sequents at seeds 1 and 2, from both starts.  Extraction checks each
    model with the item reference, so that a fault of ``check_realisation``
    shows in a comparison and not as a ``RealisationError`` here."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        gen = importlib.import_module("gen")
        mp.setattr(tableau, "check_realisation", realised_by_items)
        sequents = corpus() + [parse_sequent(x["text"]) for seed in (1, 2)
                               for x in gen.prove_inputs(seed)["sequents"]]
        results = [prove(s, start=start) for s in sequents for start in ROOTS]
    return [res for res in results if isinstance(res, Refuted)]


def corpus_items():
    """Item lists to build branches from: the rule cases' starts, and the
    root items and the open branch, if any, of every ``corpus()``
    sequent from both starts."""
    lists = [[TestSaturationStep._item(t) for t in start]
             for start, _ in TestSaturationStep.RULE_CASES.values()]
    for s in corpus():
        for start, (premise, conclusion) in ROOTS.items():
            lists.append([Labelled("w0", s.premise, premise),
                          Labelled("w0", s.conclusion, conclusion)])
            res = prove(s, start=start)
            if isinstance(res, Refuted):
                lists.append(res.branch.items)
    return lists


def one_bit_mutants(m):
    """``m`` with one support, truth or falsity, of one variable flipped at
    one world, for each variable, world and support."""
    for name, (pos, neg) in m.val.items():
        for i in range(len(m.frame.worlds)):
            for flipped in ((pos ^ 1 << i, neg), (pos, neg ^ 1 << i)):
                yield Model._of(m.frame, {**m.val, name: flipped}, m.variables)


class TestCodedEdges:
    """Items enter a branch as codes and leave it only through the table's
    ``decode``; realisation reads the codes.  Each is compared with the
    item-by-item reference of ``reference_impl``."""

    def test_from_items_codes_as_the_index_encoder(self):
        lists = corpus_items()
        for items in lists:
            b = Branch.from_items(items)
            table = tableau._Table(item.formula for item in items if isinstance(item, Labelled))
            assert b.codes == list(dict.fromkeys(encode_by_index(table, item) for item in items))
            assert b.table.names == table.names
            assert b.items == items
        assert len(lists) > 500

    def test_realisation_is_the_item_reference(self, refutations):
        # The extracted model realises its branch; its one-bit mutants may
        # not, and the two checks must agree on each.
        checked = unrealised = 0
        for res in refutations:
            assert check_realisation(res.model, res.branch) is True
            assert realised_by_items(res.model, res.branch) is True
            for m in one_bit_mutants(res.model):
                got = check_realisation(m, res.branch)
                assert got is realised_by_items(m, res.branch)
                checked += 1
                unrealised += not got
        assert len(refutations) == 814
        assert (checked, unrealised) == (7058, 3402)


def test_the_prover_hashes_and_compares_no_formula(monkeypatch):
    # Under the numbering, prove codes its roots and Branch.from_items its
    # items without hashing or comparing a formula.  Refuted sequents are
    # left out: their extraction runs the scalar Evaluator, whose memo is
    # keyed by formula.
    sequents = [s for s in corpus(200) if isinstance(prove(s), Proved)]
    sequents += [parse_sequent(f"{'#' * k}p |- {'#' * k}~p") for k in range(1, 5)]
    lists = corpus_items()

    def refuse(self, *args):
        raise AssertionError("a formula was hashed or compared")

    monkeypatch.setattr(Formula, "__hash__", refuse)
    monkeypatch.setattr(Formula, "__eq__", refuse)
    results = [prove(s, start=start) for s in sequents for start in ROOTS]
    branches = [Branch.from_items(items) for items in lists]
    monkeypatch.undo()
    assert len(sequents) > 40 and all(isinstance(res, Proved) for res in results)
    assert [result_to_json(res) for res in results] == \
        [result_to_json(prove(s, start=start)) for s in sequents for start in ROOTS]
    assert [b.items for b in branches] == lists
