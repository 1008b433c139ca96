import ast
import json
import os
import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdek import bulkeval, figures, semantics, syntax
from fdek.analysis import PAPER_FRAME_CLASSES, enumerate_formulas
from fdek.bulkeval import BulkSpace, frame_from_mask
from fdek.figures import load_frame, load_model
from fdek.semantics import (
    FRAME_PROPERTIES, BoundExceededError, Evaluator, FourValue, Frame, Model, ModelError,
    PointedModel, UnknownWorldError, dual_model, eval_formula,
    formula_valid_on_frame, frame_property, model_from_dict, model_to_dict,
    sequent_holds, sequent_valid_on_frame, VALUE_ORDER, and_clause, atom_clause, box_clause,
    frame_from_dict, not_clause, or_clause, tri_clause,
)
from fdek.syntax import (
    And, Atom, Box, Not, Or, Sequent, Tri, parse_formula, parse_sequent, postorder, render,
    subformulas,
)

from conftest import random_formula, random_modal_formula, scalar_valid_on_frame
from reference_impl import (
    bulk_supports, bulk_values, dual_value, enumerate_models, model_names, near_and_within,
    tri_value_by_cases,
)

T, B, N, F = FourValue.T, FourValue.B, FourValue.N, FourValue.F


def mk(worlds, rel, values, variables=None):
    return Model.from_values(Frame(worlds, rel), values, variables=variables)


def random_model(rng, names, max_worlds=3):
    n = rng.randint(1, max_worlds)
    worlds = [f"w{i}" for i in range(n)]
    rel = [(a, b) for a in worlds for b in worlds if rng.random() < 0.4]
    values = {w: {v: rng.choice(list(FourValue)) for v in names} for w in worlds}
    return mk(worlds, rel, values, variables=names)


class TestFourValue:
    def test_flag_bijection(self):
        assert FourValue.from_flags(True, False) is T
        assert FourValue.from_flags(True, True) is B
        assert FourValue.from_flags(False, False) is N
        assert FourValue.from_flags(False, True) is F
        for v in FourValue:
            assert FourValue.from_flags(v.supports_truth, v.supports_falsity) is v


class TestEvaluation:
    def test_mixed_successors_make_modality_false(self):
        m = load_model("fig1")  # w0 reflexive, w0->w1; p T at w0, B at w1
        f = parse_formula("#p")
        assert Evaluator(m).supports("w0", f)[0] is False
        assert Evaluator(m).supports("w0", f)[1] is True

    def test_dead_end_makes_modality_true(self):
        m = mk(["w0"], [], {"w0": {"p": N}}, variables={"p"})
        f = parse_formula("#p")
        assert Evaluator(m).supports("w0", f)[0] is True
        assert Evaluator(m).supports("w0", f)[1] is False

    def test_uniform_glut_and_gap(self):
        assert eval_formula(load_model("fig5_left"), "w0", parse_formula("#p")) is B
        assert eval_formula(load_model("fig5_right"), "w0", parse_formula("#p")) is N

    def test_box_disjunction_untrue_on_gap_pair(self):
        m = load_model("fig6_pair")  # total 2-world relation, p T / N
        assert Evaluator(m).supports("w0", parse_formula("[]p | []~p"))[0] is False

    def test_witness_model_values(self):
        m = load_model("ex21")
        assert eval_formula(m, "w", parse_formula("#s")) is F
        assert eval_formula(m, "w", parse_formula("#p")) is F

    def test_audit_model_values(self):
        m = load_model("ex22")
        assert eval_formula(m, "wc", parse_formula("#p")) is F
        assert eval_formula(m, "wc", parse_formula("#r")) is F
        trimmed = load_model("ex22_trimmed")
        assert eval_formula(trimmed, "wc", parse_formula("#p")) is T
        assert eval_formula(trimmed, "wc", parse_formula("#r")) is T

    def test_unknown_world(self):
        m = load_model("fig1")
        with pytest.raises(UnknownWorldError):
            eval_formula(m, "nowhere", parse_formula("p"))

    @pytest.mark.parametrize("f", ["p", 3, None, [Atom("p")]])
    def test_non_formula_raises_type_error(self, f):
        with pytest.raises(TypeError, match="not a formula"):
            Evaluator(load_model("fig1")).supports("w0", f)

    @pytest.mark.parametrize("call", [
        syntax.subformulas, syntax.variables,
        BulkSpace(1, ["p"]).valid_per_relation,
        lambda f: formula_valid_on_frame(Frame(["w0"], []), f)])
    def test_walks_refuse_a_non_formula_root(self, call):
        with pytest.raises(TypeError, match="not a formula: 'p'"):
            call("p")

    def test_memoization_is_invisible(self):
        rng = random.Random(5)
        for _ in range(50):
            m = random_model(rng, ["p", "q"])
            shared = Evaluator(m)
            for _ in range(5):
                f = random_formula(rng, ["p", "q"], 4, 2)
                for w in m.frame.worlds:
                    assert shared.supports(w, f) == Evaluator(m).supports(w, f)


def _iterative_values(m, f):
    """The value of ``f`` at every world of ``m``, for formulas over atoms,
    ``~`` and ``#``: a post-order walk over an explicit stack, keyed by node
    identity, with ``#`` by its four-case characterization."""
    vals = {}
    stack = [(f, False)]
    while stack:
        g, ready = stack.pop()
        if id(g) in vals:
            continue
        if isinstance(g, Atom):
            vals[id(g)] = {w: m.value(w, g.name) for w in m.frame.worlds}
        elif not ready:
            stack += [(g, True), (g.child, False)]
        elif isinstance(g, Not):
            flip = {T: F, F: T, B: B, N: N}
            vals[id(g)] = {w: flip[v] for w, v in vals[id(g.child)].items()}
        else:
            assert isinstance(g, Tri)
            row = {}
            for w in m.frame.worlds:
                seen = {vals[id(g.child)][v] for v in m.successors(w)}
                if len(seen) > 1:
                    row[w] = F
                elif seen <= {T, F}:  # uniformly T or F, or a dead end
                    row[w] = T
                else:
                    row[w] = seen.pop()
            vals[id(g)] = row
    return vals[id(f)]


class TestDeepChains:
    def test_ten_thousand_deep_chain_on_fig1(self):
        f = parse_formula("#~" * 5000 + "p")
        m = load_model("fig1")
        expected = _iterative_values(m, f)
        ev = Evaluator(m)
        assert {w: FourValue.from_flags(*ev.supports(w, f)) for w in m.frame.worlds} == expected
        # fig1's valuation among every valuation of p on its frame: worlds
        # outermost, base-4 digits T, B, N, F, the first world most significant.
        worlds = m.frame.worlds
        index = sum(VALUE_ORDER.index(m.value(w, "p")) << 2 * (len(worlds) - 1 - i)
                    for i, w in enumerate(worlds))
        space = bulkeval.sweep(m.frame, ["p"])
        pos, neg = bulk_supports(space, f)
        assert {w: FourValue.from_flags(pos[0, index, i], neg[0, index, i])
                for i, w in enumerate(worlds)} == expected


class TestCaseAnalysis:
    def test_mixed_case(self):
        m = load_model("fig1")
        assert tri_value_by_cases(m, "w0", parse_formula("p")) is F

    def test_vacuous_case(self):
        m = mk(["w0"], [], {"w0": {"p": N}}, variables={"p"})
        assert tri_value_by_cases(m, "w0", parse_formula("p")) is T

    def test_glut_case(self):
        m = load_model("fig5_left")
        assert tri_value_by_cases(m, "w0", parse_formula("p")) is B

    def test_agrees_with_recursive_evaluation_exhaustively(self):
        from fdek.syntax import Tri
        formulas = list(enumerate_formulas("tri", ["p"], 4))
        checked = 0
        for n in (1, 2):
            for m in enumerate_models(n, ["p"]):
                ev = Evaluator(m)
                for f in formulas:
                    expected = FourValue.from_flags(*ev.supports("w0", Tri(f)))
                    assert tri_value_by_cases(m, "w0", f) is expected
                    checked += 1
        assert checked == (8 + 256) * len(formulas)

    def test_agrees_on_sampled_three_world_models(self):
        from fdek.syntax import Tri
        rng = random.Random(99)
        for _ in range(300):
            m = random_model(rng, ["p"], max_worlds=3)
            f = random_formula(rng, ["p"], 3, 2)
            for w in m.frame.worlds:
                assert tri_value_by_cases(m, w, f) is eval_formula(m, w, Tri(f))


class TestNegationLaws:
    @given(st.integers(0, 10_000))
    @settings(max_examples=120)
    def test_negation_swaps_supports(self, seed):
        rng = random.Random(seed)
        m = random_model(rng, ["p", "q"])
        f = random_formula(rng, ["p", "q"], 4, 2)
        from fdek.syntax import Not
        ev = Evaluator(m)
        for w in m.frame.worlds:
            assert ev.supports(w, Not(f))[0] == ev.supports(w, f)[1]
            assert ev.supports(w, Not(f))[1] == ev.supports(w, f)[0]
            assert eval_formula(m, w, Not(Not(f))) is eval_formula(m, w, f)

    @given(st.integers(0, 10_000))
    @settings(max_examples=120)
    def test_de_morgan_at_value_level(self, seed):
        rng = random.Random(seed)
        m = random_model(rng, ["p", "q"], max_worlds=3)
        a = random_formula(rng, ["p", "q"], 2, 1)
        b = random_formula(rng, ["p", "q"], 2, 1)
        from fdek.syntax import And, Not, Or
        for w in m.frame.worlds:
            assert (eval_formula(m, w, Not(And(a, b)))
                    is eval_formula(m, w, Or(Not(a), Not(b))))
            assert (eval_formula(m, w, Not(Or(a, b)))
                    is eval_formula(m, w, And(Not(a), Not(b))))


def _cut_at(m, root, depth):
    """``m`` without the edges out of the worlds ``depth`` or more steps
    from ``root``: the worlds fewer than ``depth`` steps away keep theirs."""
    near, _ = near_and_within(m.successors, root, depth)
    values = {w: {v: m.value(w, v) for v in m.variables} for w in m.frame.worlds}
    return mk(m.frame.worlds, [(a, b) for a, b in m.frame.relation if a in near], values,
              variables=m.variables)


class TestTruncatedSubmodels:
    """A formula of modal depth d at w reads the worlds within d steps of w,
    and only the edges out of those fewer than d steps away (generated
    submodels cut at depth d; Blackburn, de Rijke & Venema, *Modal Logic*,
    2001, ch. 2).  The countermodel search's depth cut rests on this."""

    def test_cutting_the_far_edges_keeps_every_value(self):
        # Seeded models of 1 to 4 worlds (two variables up to 3, one at 4),
        # one formula of each depth 0 to 3 over #, [], @ and <>.  At each
        # world w and cut depth d, every formula of depth at most d keeps
        # its value at w, on the scalar Evaluator and on the bulk sweep of
        # the cut model's frame.  Cutting one step closer changes some value
        # of depth d, so the cut is as close as it may be.
        rng = random.Random(15)
        tight = 0
        for _ in range(200):
            n = rng.randint(1, 4)
            names = ["p", "q"] if n <= 3 else ["p"]
            worlds = [f"w{i}" for i in range(n)]
            m = mk(worlds, [(a, b) for a in worlds for b in worlds if rng.random() < 0.4],
                   {w: {v: rng.choice(list(FourValue)) for v in names} for w in worlds},
                   variables=names)
            formulas = [random_modal_formula(rng, names, rng.randint(d, 6), d) for d in range(4)]
            ev = Evaluator(m)
            for w in worlds:
                for d in range(4):
                    cut = _cut_at(m, w, d)
                    cut_ev, f = Evaluator(cut), formulas[d]
                    for g in formulas[:d + 1]:
                        assert cut_ev.supports(w, g) == ev.supports(w, g), (m, w, d, render(g))
                    assert bulk_values(cut, f)[w] is FourValue.from_flags(*ev.supports(w, f))
                    if d:
                        tight += Evaluator(_cut_at(m, w, d - 1)).supports(w, f) != \
                            ev.supports(w, f)
        assert tight >= 100, tight


@st.composite
def _framed_formulas(draw):
    """A relation mask on 1 to 3 worlds, the variables to sweep (two up to
    2 worlds, else one) and a formula mixing both modalities over them."""
    n = draw(st.integers(1, 3))
    names = ["p", "q"] if n <= 2 else ["p"]
    mask = draw(st.integers(0, 2 ** (n * n) - 1))

    def extend(children):
        pairs = st.tuples(children, children)
        return st.one_of(children.map(Not), children.map(Tri), children.map(Box),
                         pairs.map(lambda t: And(*t)), pairs.map(lambda t: Or(*t)))

    f = draw(st.recursive(st.sampled_from([Atom(v) for v in names]), extend, max_leaves=8))
    return n, names, mask, f


class TestClausesAgreeWithBulk:
    @given(_framed_formulas())
    @settings(max_examples=60, deadline=None)
    def test_every_valuation_and_world_of_a_given_frame(self, case):
        # The scalar clauses against the independent bulk evaluator, which
        # sweeps every valuation on the given frame.
        n, names, mask, f = case
        space = bulkeval.sweep(frame_from_mask(n, mask), names)
        pos, neg = (x[0].tolist() for x in bulk_supports(space, f))
        for v in range(4 ** (n * len(names))):
            ev = Evaluator(bulkeval.model_from_indices(n, names, mask, v))
            for w in range(n):
                assert ev.supports(f"w{w}", f) == (pos[v][w], neg[v][w]), (render(f), mask, v, w)

    @staticmethod
    def _disagreements(claims):
        """The (claim, relation mask, valuation, world) points of every
        model of at most 2 worlds over p where the scalar Evaluator and the
        bulk evaluator disagree."""
        points = set()
        for n in (1, 2):
            models = list(enumerate_models(n, ["p"]))
            space = BulkSpace(n, ["p"])
            for f in claims:
                pos, neg = (np.broadcast_to(x, (2 ** (n * n), 4 ** n, n))
                            for x in bulk_supports(space, f))
                for k, m in enumerate(models):
                    r, v = divmod(k, 4 ** n)
                    ev = Evaluator(m)
                    points.update((f, r, v, i) for i, w in enumerate(m.frame.worlds)
                                  if ev.supports(w, f) != (pos[r, v, i], neg[r, v, i]))
        return points

    def test_the_comparison_refuses_a_clause_that_drops_the_last_successor(self, monkeypatch):
        # The mutant tri_clause drops each world's last successor: the
        # comparison with the bulk tables must fail for #p and for a nested
        # claim on some pointed model of at most 2 worlds, and the real
        # clause agrees on all of them.
        claims = [parse_formula("#p"), parse_formula("#(p | #~p)")]
        assert not self._disagreements(claims)
        real = semantics.tri_clause

        def drops_the_last_successor(v, succ):
            return real(v, tuple(s & ~(1 << s.bit_length() >> 1) for s in succ))

        monkeypatch.setattr(semantics, "tri_clause", drops_the_last_successor)
        assert {f for f, *_ in self._disagreements(claims)} == set(claims)


class TestMemoAcrossParses:
    # Each parse has its own nodes and atoms, so a shared Evaluator finds
    # a formula parsed again by equality, not identity; its supports must
    # be those of a fresh Evaluator per formula.
    @staticmethod
    def _agree(m, texts):
        shared = Evaluator(m)
        for text in texts:
            f = parse_formula(text)
            fresh = Evaluator(m)
            for w in m.frame.worlds:
                assert shared.supports(w, f) == fresh.supports(w, f), (text, w)

    @given(_framed_formulas(), st.integers(0, 4 ** 8 - 1))
    @settings(max_examples=60, deadline=None)
    def test_shared_memo_matches_fresh_evaluators(self, case, v):
        # The whole formula first, then each subformula and the whole
        # again, every one from its own parse.
        n, names, mask, f = case
        m = bulkeval.model_from_indices(n, names, mask, v % 4 ** (n * len(names)))
        self._agree(m, [render(f)] + [render(g) for g in postorder(f)])

    def test_ten_thousand_deep_chain(self):
        # The tail of the chain meets the shorter chain's memo entry deep down.
        self._agree(load_model("fig1"), ["#~" * 2500 + "p", "#~" * 5000 + "p",
                                         "#~" * 5000 + "p", "#~" * 5000 + "q"])


def _runs_text(rng, names, depth):
    """A formula with long mixed runs of prefix lexemes, sugar included,
    above and below ``&`` and ``|``."""
    run = "".join(rng.choice(("~", "#", "[]", "@", "<>")) for _ in range(rng.randint(0, 40)))
    if depth == 0 or rng.random() < 0.25:
        return run + rng.choice(names)
    op = rng.choice("&|")
    return f"{run}({_runs_text(rng, names, depth - 1)} {op} {_runs_text(rng, names, depth - 1)})"


class _Probes(dict):
    """A memo that records the key of every ``get``."""

    def __init__(self, memo):
        super().__init__(memo)
        self.probes = []

    def get(self, key, default=None):
        self.probes.append(key)
        return super().get(key, default)


class TestRunPath:
    # ``supports`` walks a run of prefix nodes down and back up in one loop
    # each; what it computes and stores must be what a node-by-node walk
    # would.
    @pytest.mark.parametrize("name", model_names())
    def test_long_mixed_runs_agree_with_fresh_evaluators_and_the_reference(self, name):
        m = load_model(name)
        names = sorted(m.val)
        rng = random.Random(name)
        shared = Evaluator(m)
        for _ in range(10):
            f = parse_formula(_runs_text(rng, names, 3))
            expected = bulk_values(m, f)
            for w in m.frame.worlds:
                value = expected[w].supports_truth, expected[w].supports_falsity
                assert shared.supports(w, f) == Evaluator(m).supports(w, f) == value, (render(f), w)

    def test_memo_holds_each_subformula_once(self):
        rng = random.Random(7)
        m = load_model("ex22")
        texts = [_runs_text(rng, ["p", "r"], 3) for _ in range(30)]
        texts += ["#~(p & []r) | #~(p & []r)", "~~~p", "[](p & p) & ~[](p & p)"]
        for text in texts:
            f = parse_formula(text)
            ev = Evaluator(m)
            ev.supports("ws", f)
            assert ev._memo.keys() == subformulas(f), text

    @pytest.mark.parametrize("tail", ["#~[]" * 30 + "(p & ~#r)", "#~[]" * 30 + "p"])
    def test_second_parse_hits_the_memo_partway_down_a_run(self, tail):
        # The head "~@<>" adds six prefix nodes above the tail's run: a
        # second parse probes each of them once, misses, then finds the
        # first parse's tail and stops there.
        m = load_model("ex22")
        ev = Evaluator(m)
        first = parse_formula(tail)
        for w in m.frame.worlds:
            ev.supports(w, first)
        ev._memo = _Probes(ev._memo)
        before = set(ev._memo)
        second = parse_formula("~@<>" + tail)
        values = [ev.supports(w, second) for w in m.frame.worlds]
        *misses, hit = ev._memo.probes[:7]
        assert misses[0] is second and hit is misses[-1].child
        assert all(below is above.child for above, below in zip(misses, misses[1:]))
        assert hit == first and hit is not first and hit in before
        assert not before.intersection(misses)
        assert set(ev._memo) - before == set(misses) == subformulas(second) - subformulas(first)
        # Each later world finds the whole formula at the top.
        assert ev._memo.probes[7:] == [second] * (len(m.frame.worlds) - 1)
        assert values == [Evaluator(m).supports(w, second) for w in m.frame.worlds]


class TestWalkCost:
    # The values are gated above; these bound the clause calls of one walk.
    @pytest.mark.parametrize("model", ["fig1", "fig10", "ex22"])
    @pytest.mark.parametrize("prefix, clause", [("#", "tri_clause"), ("[]", "box_clause")])
    def test_modal_clause_once_per_distinct_operand_pair(self, monkeypatch, model, prefix, clause):
        # A 2000-deep chain, half modal and half negation in a shuffled
        # order, as in the benchmark's deep inputs: its operands take at
        # most 4^|W| distinct pairs of supports, whatever its depth.
        ops = [prefix] * 1000 + ["~"] * 1000
        random.Random(1).shuffle(ops)
        f = parse_formula("".join(ops) + "p")
        m = load_model(model)
        calls = []
        real = getattr(semantics, clause)
        monkeypatch.setattr(semantics, clause, lambda v, succ: calls.append(v) or real(v, succ))
        for w in m.frame.worlds:
            calls.clear()
            assert Evaluator(m).supports(w, f) == _plain_supports(m, w, f)
            assert 0 < len(calls) <= 4 ** len(m.frame.worlds)

    def test_one_modal_clause_call_per_distinct_value(self, monkeypatch):
        # The Evaluator's memo applies each modal clause once to each
        # operand value the chain gives it, at every world, as the
        # expressivity fold's memo does.
        ops = ["#"] * 800 + ["[]"] * 800 + ["~"] * 400
        random.Random(2).shuffle(ops)
        f = parse_formula("".join(ops) + "p")
        m = load_model("fig10")
        operands = {"#": set(), "[]": set()}
        v = atom_clause(m, "p")
        for op in reversed(ops):
            if op == "~":
                v = not_clause(v)
            else:
                operands[op].add(v)
                v = (tri_clause if op == "#" else box_clause)(v, m.frame.succ)
        calls = {"#": [], "[]": []}
        for op, name in (("#", "tri_clause"), ("[]", "box_clause")):
            real = getattr(semantics, name)
            monkeypatch.setattr(semantics, name, lambda v, succ, op=op, real=real:
                                calls[op].append(v) or real(v, succ))
        ev = Evaluator(m)
        values = [ev.supports(w, f) for w in m.frame.worlds]
        for op in calls:
            assert len(calls[op]) == len(set(calls[op]))
            assert set(calls[op]) == operands[op]
        monkeypatch.undo()
        assert values == [_plain_supports(m, w, f) for w in m.frame.worlds]

    def test_each_clause_once_per_distinct_node(self, monkeypatch):
        # A 64-level tower And(x, x) has 65 distinct nodes and 2^64 paths.
        x = p = Atom("p")
        for _ in range(64):
            x = And(x, x)
        m = load_model("fig10")
        calls = {}
        for name in ("atom_clause", "not_clause", "and_clause", "or_clause",
                     "tri_clause", "box_clause"):
            real = getattr(semantics, name)
            monkeypatch.setattr(semantics, name,
                                lambda *a, name=name, real=real:
                                calls.__setitem__(name, calls.get(name, 0) + 1) or real(*a))
        ev = Evaluator(m)
        values = [ev.supports(w, Tri(x)) for w in m.frame.worlds]
        assert calls == {"atom_clause": 1, "and_clause": 64, "tri_clause": 1}
        monkeypatch.undo()
        assert values == [Evaluator(m).supports(w, Tri(p)) for w in m.frame.worlds]

    def test_supports_never_walks_by_postorder(self, monkeypatch):
        def refuse(*fs, **kw):
            raise AssertionError("postorder called")
        monkeypatch.setattr(syntax, "postorder", refuse)
        assert not hasattr(semantics, "postorder")
        m = load_model("fig10")
        f = parse_formula("#~(p & []q) | ~#(p | q) & [](p & q)")
        for w in m.frame.worlds:
            assert Evaluator(m).supports(w, f) == _plain_supports(m, w, f)


def _plain_supports(m, w, f):
    """Both supports of ``f`` at ``w``: the clause functions folded over
    ``postorder``, with no memo kept across calls and no modal result kept."""
    vals = {}
    for g in postorder(f):
        if isinstance(g, Atom):
            vals[g] = atom_clause(m, g.name)
        elif isinstance(g, Not):
            vals[g] = not_clause(vals[g.child])
        elif isinstance(g, (And, Or)):
            vals[g] = (and_clause if isinstance(g, And) else or_clause)(vals[g.left], vals[g.right])
        else:
            vals[g] = (tri_clause if isinstance(g, Tri) else box_clause)(vals[g.child], m.frame.succ)
    pos, neg = vals[f]
    i = m.frame.index[w]
    return bool(pos >> i & 1), bool(neg >> i & 1)


class TestDualModels:
    def test_value_transfer_table(self):
        assert dual_value(T) is T and dual_value(F) is F
        assert dual_value(B) is N and dual_value(N) is B

    def test_glut_becomes_gap(self):
        m = mk(["w0"], [], {"w0": {"p": B}})
        assert dual_model(m).value("w0", "p") is N

    def test_classical_values_fixed(self):
        m = mk(["w0"], [], {"w0": {"p": T, "q": F}})
        d = dual_model(m)
        assert d.value("w0", "p") is T and d.value("w0", "q") is F

    def test_involution_even_through_gaps(self):
        rng = random.Random(11)
        for _ in range(100):
            m = random_model(rng, ["p", "q"])
            assert dual_model(dual_model(m)) == m
        glutty = mk(["w0"], [("w0", "w0")], {"w0": {"p": B}})
        assert dual_model(dual_model(glutty)) == glutty

    def test_transfer_lemma_on_random_formulas(self):
        rng = random.Random(42)
        cases = 0
        for _ in range(400):
            m = random_model(rng, ["p", "q"])
            d = dual_model(m)
            for _ in range(3):
                f = random_formula(rng, ["p", "q"], 4, 2)
                for w in m.frame.worlds:
                    assert eval_formula(d, w, f) is dual_value(eval_formula(m, w, f))
                    cases += 1
        assert cases >= 1000


class TestSequents:
    def test_conjunction_elimination_everywhere(self):
        rng = random.Random(3)
        s = parse_sequent("p & q |- p")
        for _ in range(60):
            assert sequent_holds(random_model(rng, ["p", "q"]), s)

    def test_glut_countermodel(self):
        m = mk(["w0"], [("w0", "w0")], {"w0": {"p": B, "q": N}})
        assert sequent_holds(m, parse_sequent("p & ~p |- q")) is False

    def test_extracted_figure_model_refutes(self):
        m = load_model("fig4")
        assert sequent_holds(m, parse_sequent("q | ~q |- #(q | ~q)")) is False

    def test_reflexive_point_validates_t_sequent(self):
        fr = Frame(["w0"], [("w0", "w0")])
        assert sequent_valid_on_frame(fr, parse_sequent("#(p | ~p) |- p | ~p"))

    def test_irreflexive_point_refutes_t_sequent(self):
        fr = Frame(["w0"], [])
        assert not sequent_valid_on_frame(fr, parse_sequent("#(p | ~p) |- p | ~p"))

    def test_one_arrow_frame_validates_euclidean_sequent(self):
        assert sequent_valid_on_frame(load_frame("fig11"), parse_sequent("@p |- ##p"))

    def test_valuation_bound_guard(self):
        fr = Frame([f"w{i}" for i in range(13)], [])
        with pytest.raises(BoundExceededError):
            sequent_valid_on_frame(fr, parse_sequent("p |- p"))


class TestFormulaValidity:
    def test_modality_valid_on_empty_relation_frames(self):
        fr = Frame(["w0", "w1"], [])
        assert formula_valid_on_frame(fr, parse_formula("#p"))

    def test_modality_invalid_once_relation_nonempty(self):
        fr = Frame(["w0"], [("w0", "w0")])
        assert not formula_valid_on_frame(fr, parse_formula("#p"))

    def test_excluded_middle_never_valid(self):
        for fr in (Frame(["w0"], []), Frame(["w0"], [("w0", "w0")]),
                   Frame(["w0", "w1"], [("w0", "w1")])):
            assert not formula_valid_on_frame(fr, parse_formula("p | ~p"))


class TestFrameValidityOnBulk:
    """Frame validity runs on the bulk evaluator: checked against the scalar
    reference on frames whose world names are not ``w<i>``, and on known
    answers at 8 and 10 worlds, past a 64-bit relation mask and (at 10) past
    one byte per world bitset."""

    NAMES = ["w3", "home", "x", "w0", "b2", "node_a", "z", "w1"]

    def test_agrees_with_scalar_on_named_frames(self):
        # The paper's frame-class claims tell frames apart; random claims
        # add other shapes, over two variables up to 3 worlds.
        frame_claims = list(dict.fromkeys(c for cs in PAPER_FRAME_CLASSES.values() for c in cs))
        rng = random.Random(2)
        verdicts = []
        for n in (1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5):
            names = ["p", "q"] if n <= 3 and rng.random() < 0.5 else ["p"]
            worlds = rng.sample(self.NAMES, n)
            density = rng.random()
            rel = {(a, b) for a in worlds for b in worlds if rng.random() < density}
            if rng.random() < 0.5:
                rel |= {(a, a) for a in worlds}
            frame = Frame(worlds, rel)
            claims = rng.sample(frame_claims, 3) + [
                Sequent(random_formula(rng, names, 2, 2), random_formula(rng, names, 2, 2)),
                random_formula(rng, names, 2, 2)]
            for claim in claims:
                if isinstance(claim, Sequent):
                    got = sequent_valid_on_frame(frame, claim)
                else:
                    got = formula_valid_on_frame(frame, claim)
                assert got == scalar_valid_on_frame(frame, claim), (frame, claim)
                verdicts.append(got)
        assert 10 <= sum(verdicts) <= len(verdicts) - 10

    @pytest.mark.parametrize("chunk_budget", ["tiny"], indirect=True)
    def test_agrees_with_scalar_in_valuation_blocks(self, chunk_budget):
        # The same frames and claims, each frame past 3 valuation slots read
        # in aligned blocks of 64 valuations.
        self.test_agrees_with_scalar_on_named_frames()

    @pytest.mark.parametrize("n", [8, 10])
    def test_known_answers_on_large_frames(self, n):
        worlds = [f"v{i}" for i in range(n)]
        loops = [(w, w) for w in worlds]
        extra = [(worlds[0], worlds[-1]), (worlds[-1], worlds[1])]
        t = parse_sequent("#(p | ~p) |- p | ~p")
        assert sequent_valid_on_frame(Frame(worlds, loops + extra), t)
        for gone in (worlds[0], worlds[-1]):
            assert not sequent_valid_on_frame(
                Frame(worlds, [e for e in loops if e != (gone, gone)] + extra), t), gone
        tri_p = parse_formula("#p")
        assert formula_valid_on_frame(Frame(worlds, []), tri_p)
        assert not formula_valid_on_frame(Frame(worlds, [(worlds[-1], worlds[0])]), tri_p)

    @pytest.mark.parametrize("edges,claim,valid,read", [
        ("cycle", "#p |- p", False, 1),
        ("loops", "#(p | ~p) |- p | ~p", True, 256),
    ])
    def test_stops_at_the_first_refuting_block(self, monkeypatch, edges, claim, valid, read):
        # Under a budget of 16 pairs a 6-world frame is read in 256 blocks of
        # 16 valuations; valuation 3 (w5 false, the rest true) refutes #p |- p
        # on the cycle.
        monkeypatch.setattr(bulkeval, "_BLOCK_PAIRS", 16)
        blocks, starts = BulkSpace._blocks, []

        def counting(space):
            for block in blocks(space):
                starts.append((block[0].start, block[1]))
                yield block
        monkeypatch.setattr(BulkSpace, "_blocks", counting)
        ws = [f"w{i}" for i in range(6)]
        rel = ([(ws[i], ws[(i + 1) % 6]) for i in range(6)] if edges == "cycle"
               else [(w, w) for w in ws])
        assert sequent_valid_on_frame(Frame(ws, rel), parse_sequent(claim)) is valid
        assert starts == [(0, 16 * i) for i in range(read)]

    def test_guard_refuses_before_allocating(self, monkeypatch):
        def allocate(*args):
            raise AssertionError("allocated before the guard")
        monkeypatch.setattr(bulkeval, "_atom_tables", allocate)
        with pytest.raises(BoundExceededError):
            sequent_valid_on_frame(Frame([f"w{i}" for i in range(13)], []), parse_sequent("p |- p"))
        with pytest.raises(BoundExceededError):
            formula_valid_on_frame(Frame([f"w{i}" for i in range(7)], []), parse_formula("p & q"))


def _valid_on(frame, claim):
    """``sequent_valid_on_frame`` or ``formula_valid_on_frame``, by claim."""
    if isinstance(claim, Sequent):
        return sequent_valid_on_frame(frame, claim)
    return formula_valid_on_frame(frame, claim)


class TestFrameInvariances:
    """Frame validity on the bulk frame check is invariant under disjoint
    unions and passes to generated subframes (the frame level of
    invariance under generated submodels) and to bounded morphic images:
    seeded claims of modal depth at most 2 over # and [], and the paper's
    frame-class claims, on frames of at most 3 worlds."""

    FRAME_CLAIMS = list(dict.fromkeys(c for cs in PAPER_FRAME_CLASSES.values() for c in cs))

    @staticmethod
    def _frame(rng, prefix):
        n = rng.randint(1, 3)
        worlds = [f"{prefix}{i}" for i in range(n)]
        density = rng.random()
        return Frame(worlds, [(a, b) for a in worlds for b in worlds if rng.random() < density])

    def _claim(self, rng, names):
        if rng.random() < 0.3:
            return rng.choice(self.FRAME_CLAIMS)
        f = random_modal_formula(rng, names, rng.randint(1, 4), 2)
        if rng.random() < 0.25:
            return f
        return Sequent(random_modal_formula(rng, names, rng.randint(1, 4), 2), f)

    def test_a_disjoint_union_is_valid_iff_each_part_is(self):
        # Two variables only while the union has at most 4 worlds, so every
        # union stays within 8 of the 12 valuation slots.
        rng = random.Random(28)
        verdicts = []
        for _ in range(80):
            left, right = self._frame(rng, "a"), self._frame(rng, "b")
            small = len(left.worlds) + len(right.worlds) <= 4
            claim = self._claim(rng, ["p", "q"] if small and rng.random() < 0.5 else ["p"])
            union = Frame(left.worlds + right.worlds, left.relation | right.relation)
            parts = _valid_on(left, claim), _valid_on(right, claim)
            assert _valid_on(union, claim) == all(parts), (union, claim)
            verdicts.append(parts)
        assert sum(all(parts) for parts in verdicts) >= 10
        assert sum(any(parts) and not all(parts) for parts in verdicts) >= 10

    def test_validity_passes_to_generated_subframes(self):
        rng = random.Random(29)
        checked = proper = 0
        for _ in range(80):
            frame = self._frame(rng, "w")
            claim = self._claim(rng, rng.choice([["p"], ["p", "q"]]))
            if not _valid_on(frame, claim):
                continue

            def successors(w):
                return {t for s, t in frame.relation if s == w}
            for root in frame.worlds:
                _, reach = near_and_within(successors, root, len(frame.worlds))
                sub = Frame([w for w in frame.worlds if w in reach],
                            [(s, t) for s, t in frame.relation if s in reach])
                assert _valid_on(sub, claim), (frame, root, claim)
                checked += 1
                proper += len(reach) < len(frame.worlds)
        assert checked >= 30 and proper >= 10, (checked, proper)

    def test_validity_passes_to_bounded_morphic_images(self):
        # Every frame F of at most 3 worlds and every map f of its worlds
        # onto m <= n worlds whose image relation is well defined,
        # succ_G(f(w)) = f(succ_F(w)), which makes f a bounded morphism onto
        # G: a claim valid on F is valid on G (Goldblatt-Thomason;
        # Blackburn, de Rijke & Venema 2001, ch. 3).  Each size's verdicts
        # are one labelled space's vector over every mask.
        rng = random.Random(45)
        named = [parse_sequent(text) for text in ("#p |- ##p", "@p |- ##p", "[]p |- [][]p")]
        claims = list(dict.fromkeys(self.FRAME_CLAIMS + named))
        while len(claims) < 16:
            claim = self._claim(rng, rng.choice([["p"], ["p", "q"]]))
            if claim not in claims:
                claims.append(claim)
        morphisms = []  # (n, mask of F, m, mask of G)
        for n in (1, 2, 3):
            for f in product(range(n), repeat=n):
                m = max(f) + 1
                if set(f) != set(range(m)):
                    continue
                for mask in range(2 ** (n * n)):
                    image = {}
                    for w in range(n):
                        row = sum({1 << f[j] for j in range(n) if mask >> (w * n + j) & 1})
                        if image.setdefault(f[w], row) != row:
                            break
                    else:
                        morphisms.append((n, mask, m, sum(row << (v * m)
                                                           for v, row in image.items())))
        assert len(morphisms) == 4420
        proper = 0  # checks of a valid F onto fewer worlds
        for claim in claims:
            program = bulkeval._compile(claim)
            valid = {n: BulkSpace(n, program.names).valid_per_relation(program) for n in (1, 2, 3)}
            for n, mask, m, image in morphisms:
                if valid[n][mask]:
                    assert valid[m][image], (claim, frame_from_mask(n, mask),
                                             frame_from_mask(m, image))
                    proper += m < n
        assert proper >= 2000, proper


class TestNoTautologies:
    def test_everything_collapses_on_uniform_models(self):
        rng = random.Random(8)
        for _ in range(300):
            f = random_formula(rng, ["p", "q", "r"], rng.randint(1, 6), 3)
            names = {"p", "q", "r"}
            glut = mk(["w0"], [("w0", "w0")], {"w0": {v: B for v in names}})
            gap = mk(["w0"], [("w0", "w0")], {"w0": {v: N for v in names}})
            assert eval_formula(glut, "w0", f) is B
            assert eval_formula(gap, "w0", f) is N


class TestBoxComparison:
    def test_same_value_implies_box_disjunction_on_all_small_models(self):
        s = parse_sequent("#p |- []p | []~p")
        for n in (1, 2, 3):
            assert BulkSpace(n, ["p"]).first_countermodel(s) is None

    def test_converse_fails_on_mixed_model(self):
        m = load_model("fig1")
        assert not sequent_holds(m, parse_sequent("[]p | []~p |- #p"))


# The frame conditions as first-order sentences over the relation's pair
# set: the reference that ``frame_property`` must agree with.
def _reflexive(ws, rel):
    return all((w, w) in rel for w in ws)


def _transitive(ws, rel):
    return all((a, c) in rel for a, b in rel for b2, c in rel if b == b2)


def _symmetric(ws, rel):
    return all((b, a) in rel for a, b in rel)


PAIR_PROPERTIES = {
    "reflexive": _reflexive,
    "transitive": _transitive,
    "symmetric": _symmetric,
    "euclidean": lambda ws, rel: all((b, c) in rel for a, b in rel for a2, c in rel if a == a2),
    "serial": lambda ws, rel: all(any((w, t) in rel for t in ws) for w in ws),
    "partial_functional": lambda ws, rel: all(sum((w, t) in rel for t in ws) <= 1 for w in ws),
    "coreflexive": lambda ws, rel: all(a == b for a, b in rel),
    "empty_relation": lambda ws, rel: not rel,
    "equivalence": lambda ws, rel: (_reflexive(ws, rel) and _symmetric(ws, rel)
                                    and _transitive(ws, rel)),
    "preorder": lambda ws, rel: _reflexive(ws, rel) and _transitive(ws, rel),
}


def _reference_frames():
    """Every labelled frame on 1 to 3 worlds (529), the bundled frames, and
    every 3-world relation again on worlds listed out of sorted order."""
    labelled = [frame_from_mask(n, mask) for n in (1, 2, 3) for mask in range(2 ** (n * n))]
    bundled = [load_frame(name) for name in ("fig8_left", "fig8_right", "fig10", "fig11")]
    bundled += [load_model(name).frame for name in model_names()]
    rename = {"w0": "z", "w1": "a", "w2": "m"}
    unsorted = [Frame([rename[w] for w in fr.worlds],
                      [(rename[s], rename[t]) for s, t in fr.relation])
                for fr in labelled if len(fr.worlds) == 3]
    return labelled + bundled + unsorted


REFERENCE_FRAMES = _reference_frames()


class TestFrameProperties:
    def test_transitive_chain_with_shortcut(self):
        assert frame_property(load_frame("fig10"), "transitive")

    def test_one_arrow_frame_is_not_euclidean(self):
        assert not frame_property(load_frame("fig11"), "euclidean")

    def test_dead_end_frame_is_partial_functional(self):
        assert frame_property(load_frame("fig8_left"), "partial_functional")

    def test_property_table(self):
        fr = Frame(["a", "b"], [("a", "a"), ("b", "b")])
        assert frame_property(fr, "reflexive")
        assert frame_property(fr, "coreflexive")
        assert frame_property(fr, "equivalence")
        assert frame_property(fr, "preorder")
        assert frame_property(fr, "serial")
        assert frame_property(fr, "partial_functional")
        assert not frame_property(fr, "empty_relation")
        fr2 = Frame(["a", "b"], [("a", "b")])
        assert frame_property(fr2, "transitive")
        assert not frame_property(fr2, "symmetric")
        assert not frame_property(fr2, "serial")
        assert not frame_property(fr2, "euclidean")
        fr3 = Frame(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "b"),
                                      ("b", "c"), ("c", "c"), ("c", "b")])
        assert frame_property(fr3, "euclidean")
        assert not frame_property(fr3, "partial_functional")

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            frame_property(Frame(["a"], []), "connected")

    def test_reference_covers_every_property(self):
        assert sorted(PAIR_PROPERTIES) == sorted(FRAME_PROPERTIES)

    @pytest.mark.parametrize("prop", sorted(PAIR_PROPERTIES))
    def test_agrees_with_pair_set_definition(self, prop):
        for fr in REFERENCE_FRAMES:
            assert frame_property(fr, prop) == PAIR_PROPERTIES[prop](fr.worlds, fr.relation), fr

    def test_successors_follow_the_relation_in_world_order(self):
        for fr in REFERENCE_FRAMES:
            model = Model(fr)
            for w in fr.worlds:
                expected = tuple(t for t in fr.worlds if (w, t) in fr.relation)
                assert fr.successors(w) == model.successors(w) == expected, (fr, w)


class TestJsonInterchange:
    def test_round_trip(self):
        m = load_model("ex22")
        assert model_from_dict(model_to_dict(m)) == m

    def test_omitted_variables_default_to_gap(self):
        m = model_from_dict({"worlds": ["w0", "w1"], "rel": [],
                             "val": {"w0": {"p": "T"}}})
        assert m.value("w1", "p") is N

    def test_rejects_unknown_world_in_relation(self):
        with pytest.raises(UnknownWorldError):
            model_from_dict({"worlds": ["w0"], "rel": [["w0", "w9"]], "val": {}})

    def test_rejects_unknown_world_in_valuation(self):
        with pytest.raises(UnknownWorldError):
            model_from_dict({"worlds": ["w0"], "rel": [], "val": {"w9": {"p": "T"}}})

    def test_loading_compares_world_names_a_linear_number_of_times(self):
        # Equal but distinct name objects, as a parser hands them over, each
        # counting the comparisons it takes part in.  A check of the
        # valuation's worlds that scans the world list takes n * n / 2.
        class Name(str):
            compared = 0
            __hash__ = str.__hash__

            def __eq__(self, other):
                Name.compared += 1
                return str.__eq__(self, other)

        n = 400
        names = lambda: [Name(f"w{i}") for i in range(n)]
        m = model_from_dict({"worlds": names(), "rel": list(zip(names(), names()[1:])),
                             "val": {w: {"p": "B"} for w in names()}})
        assert m.value(f"w{n - 1}", "p") is B
        assert Name.compared <= 20 * n

    def test_decodes_as_from_values(self):
        # The letters are decoded straight to support bits; Model.from_values
        # over FourValue members is the reference, variable universe too.
        rng = random.Random(5)
        for _ in range(300):
            worlds = [f"w{i}" for i in range(rng.randint(1, 4))]
            val = {w: {v: rng.choice("TBNF") for v in rng.sample("pqr", rng.randint(0, 3))}
                   for w in rng.sample(worlds, rng.randint(0, len(worlds)))}
            got = model_from_dict({"worlds": worlds, "val": val})
            expected = mk(worlds, [], {w: {v: FourValue[x] for v, x in row.items()}
                                       for w, row in val.items()})
            assert got == expected and got.variables == expected.variables

    @pytest.mark.parametrize("val,error,message", [
        ([], ModelError, "'val' must be an object"),
        ({"w9": {"p": "X"}}, UnknownWorldError, "'val' uses unknown world 'w9'"),
        ({"w0": {"p": "T"}, "w1": ["p"]}, ModelError, "'val' entry for 'w1' must be an object"),
        ({"w0": {"p": "X"}, "w9": {}}, ModelError, "bad value 'X' for 'p' at 'w0'"),
        ({"w0": {"p": ["T"]}}, ModelError, "bad value ['T'] for 'p' at 'w0'"),
        ({"w0": {"p": "t"}}, ModelError, "bad value 't' for 'p' at 'w0'"),
        ({"w0": {"p": "value"}}, ModelError, "bad value 'value' for 'p' at 'w0'"),
        # Every letter is checked before any variable name.
        ({"w0": {"P": "T"}, "w1": {"q": 1}}, ModelError, "bad value 1 for 'q' at 'w1'"),
        ({"w0": {"P": "T"}}, ModelError, "bad variable name 'P'"),
        ({"w0": {1: "T"}}, ModelError, "bad variable name 1"),
    ])
    def test_errors_come_in_order(self, val, error, message):
        with pytest.raises(error) as info:
            model_from_dict({"worlds": ["w0", "w1"], "rel": [], "val": val})
        assert type(info.value) is error and str(info.value) == message

    def test_rejects_bad_value_letter(self):
        with pytest.raises(ModelError):
            model_from_dict({"worlds": ["w0"], "rel": [], "val": {"w0": {"p": "X"}}})

    def test_rejects_empty_or_duplicate_worlds(self):
        with pytest.raises(ModelError):
            model_from_dict({"worlds": [], "rel": [], "val": {}})
        with pytest.raises(ModelError):
            model_from_dict({"worlds": ["w0", "w0"], "rel": [], "val": {}})

    @pytest.mark.parametrize("worlds, rel", [
        ([["w0"]], []), (["w0", ""], []), (["w0", 1], []),
        (["w0"], [(["w0"], "w0")]), (["w0"], [("w0", ["w0"])]), (["w0"], [("w0", None)]),
    ])
    def test_frame_rejects_identifiers_that_are_not_strings(self, worlds, rel):
        # Unhashable ones too: the checks come before any set or dict.
        with pytest.raises(ModelError):
            Frame(worlds, rel)

    @pytest.mark.parametrize("data, message", [
        # A bad world identifier and a bad entry: the frame checks the
        # entry's shape before its worlds, and the loader only checks first
        # that 'worlds' is a list of strings.
        ({"worlds": ["w0", ""], "rel": [["w0", 1]]}, "bad relation entry ['w0', 1]"),
        ({"worlds": ["w0", 1], "rel": [["w0", 1]]}, "'worlds' must be a list of strings"),
        # A bad entry and a duplicate world.
        ({"worlds": ["w0", "w0"], "rel": [["w0"]]}, "bad relation entry ['w0']"),
        # A duplicate world and an unknown world.
        ({"worlds": ["w0", "w0"], "rel": [["w0", "w9"]]}, "duplicate world identifiers"),
        # An edge of the wrong shape and an empty 'worlds'.
        ({"worlds": [], "rel": [["w0"]]}, "bad relation entry ['w0']"),
        ({"worlds": [], "rel": [["w0", "w9"]]}, "a frame needs at least one world"),
        ({"worlds": ["w0", ""], "rel": [["w0", "w9"]]}, "bad world identifier ''"),
    ])
    def test_loader_errors_come_in_order(self, data, message):
        for load in (frame_from_dict, model_from_dict):
            with pytest.raises(ModelError) as info:
                load(data)
            assert type(info.value) is ModelError and str(info.value) == message

    @pytest.mark.parametrize("worlds, rel, message", [
        # An entry that is not a pair.
        (["w0"], [("w0",)], "bad relation entry ('w0',)"),
        (["w0"], [("w0", "w0", "w0")], "bad relation entry ('w0', 'w0', 'w0')"),
        (["w0"], [1], "bad relation entry 1"),
        # A string or a mapping of two strings unpacks as a pair, but only a
        # tuple or a list is one, as in the loader.
        (["a", "b"], ["ab"], "bad relation entry 'ab'"),
        (["a", "b"], [{"a": 1, "b": 2}], "bad relation entry {'a': 1, 'b': 2}"),
        # Two faults: the first of a bad entry, no world, a bad world
        # identifier, duplicate worlds, an unknown world, the order of the
        # loaders too.
        (["w0", ""], [("w0",)], "bad relation entry ('w0',)"),
        (["w0", ""], [("w0", 1)], "bad relation entry ('w0', 1)"),
        (["w0", 1], [("w9", "w0")], "bad world identifier 1"),
        (["w0", "w0"], [("w9", "w0"), ("w0",)], "bad relation entry ('w0',)"),
        (["w0", "w0"], [("w0", None)], "bad relation entry ('w0', None)"),
        (["w0"], [("w9", "w0"), ("w0", 1)], "bad relation entry ('w0', 1)"),
        (["w0", "w0"], [("w0", "w9")], "duplicate world identifiers"),
        ([], [("w0", "w9")], "a frame needs at least one world"),
    ])
    def test_frame_errors_come_in_order(self, worlds, rel, message):
        with pytest.raises(ModelError) as info:
            Frame(worlds, rel)
        assert type(info.value) is ModelError and str(info.value) == message

    # Each kind of frame fault, in the order a frame reports them, with the
    # start of its message.
    FAULTS = {"entry": "bad relation entry", "no world": "a frame needs at least one world",
              "empty name": "bad world identifier ''",
              "duplicate": "duplicate world identifiers",
              "unknown": "relation uses unknown world in"}

    def test_a_file_and_code_report_the_same_fault(self):
        # Seeded (worlds, rel) pairs with two or three faults, 'worlds' a
        # list of strings and 'rel' a list, so that JSON's own checks pass:
        # both loaders raise what Frame(worlds, rel) raises, the first fault
        # in the order of FAULTS.
        rng = random.Random(49)
        kinds = list(self.FAULTS)
        combos = [set(c) for k in (2, 3) for c in combinations(kinds, k)
                  if not ("no world" in c and {"empty name", "duplicate"} & set(c))]
        assert len(combos) == 13
        for faults in combos:
            for _ in range(20):
                worlds = [] if "no world" in faults else ["w0", "w1"]
                rel = [rng.choice([["w0", "w1"], ("w1", "w1")]) for _ in range(len(worlds))]
                if "empty name" in faults:
                    worlds.insert(rng.randint(0, len(worlds)), "")
                if "duplicate" in faults:
                    worlds.insert(rng.randint(0, len(worlds)), rng.choice(["w0", "w1"]))
                for kind, entries in (("unknown", [["w0", "w9"], ("w9", "w1")]),
                                      ("entry", [["w0"], ["w0", 1], "ab", {"a": 1, "b": 2}, 1])):
                    if kind in faults:
                        rel.insert(rng.randint(0, len(rel)), rng.choice(entries))
                first = next(kind for kind in kinds if kind in faults)
                with pytest.raises(ModelError) as info:
                    Frame(worlds, rel)
                assert str(info.value).startswith(self.FAULTS[first]), (worlds, rel)
                for load in (frame_from_dict, model_from_dict):
                    with pytest.raises(ModelError) as got:
                        load({"worlds": worlds, "rel": rel, "val": {}})
                    assert (got.type, str(got.value)) == (info.type, str(info.value)), \
                        (load.__name__, worlds, rel)

    def test_a_mapping_that_is_not_a_dict_is_not_a_json_object(self):
        data = {"worlds": ["w0"], "rel": [], "val": {"w0": {"p": "T"}}}
        for load in (frame_from_dict, model_from_dict):
            with pytest.raises(ModelError) as info:
                load(MappingProxyType(data))
            assert str(info.value) == "frame data must be a JSON object"
        for val, message in [(MappingProxyType(data["val"]), "'val' must be an object"),
                             ({"w0": MappingProxyType({"p": "T"})},
                              "'val' entry for 'w0' must be an object")]:
            with pytest.raises(ModelError) as info:
                model_from_dict(dict(data, val=val))
            assert str(info.value) == message

    def test_unknown_world_is_the_first_in_input_order(self):
        # Fresh interpreters under fixed hash seeds, which order a set of
        # these pairs differently.
        code = ("from fdek.semantics import Frame\n"
                "Frame(['w0'], [('w0', 'w8'), ('w0', 'w9'), ('w7', 'w0')])")
        procs = [subprocess.Popen([sys.executable, "-c", code], stderr=subprocess.PIPE,
                                  text=True, env=dict(os.environ, PYTHONHASHSEED=seed))
                 for seed in ("1", "2", "3")]
        for proc in procs:
            _, err = proc.communicate(timeout=60)
            assert err.splitlines()[-1] == ("fdek.semantics.UnknownWorldError: relation uses"
                                            " unknown world in ('w0', 'w8')")

    def test_round_trip_of_every_small_frame(self):
        # Every frame of at most 3 worlds, and each 3-world one again with
        # its worlds listed out of name order, with a seeded valuation of
        # 1 or 2 variables.  rel comes out in (source position, target
        # position) order, not in name order.
        rng = random.Random(44)
        frames = [frame_from_mask(n, mask) for n in (1, 2, 3) for mask in range(2 ** (n * n))]
        rename = dict(zip(("w0", "w1", "w2"), ("w2", "w0", "w1")))
        frames += [Frame([rename[w] for w in fr.worlds],
                         [(rename[s], rename[t]) for s, t in fr.relation])
                   for fr in frames if len(fr.worlds) == 3]
        for fr in frames:
            names = rng.sample("pqr", rng.randint(1, 2))
            m = mk(fr.worlds, fr.relation,
                   {w: {v: rng.choice(VALUE_ORDER) for v in names} for w in fr.worlds})
            data = model_to_dict(m)
            assert model_from_dict(data) == m
            index = fr.index
            rel = sorted(fr.relation, key=lambda e: (index[e[0]], index[e[1]]))
            val = {w: {v: m.value(w, v).name for v in sorted(m.val)} for w in fr.worlds}
            assert json.dumps(data) == json.dumps({"worlds": list(fr.worlds),
                                                   "rel": [list(e) for e in rel], "val": val})

    def test_rejects_bad_variable_name(self):
        with pytest.raises(ModelError):
            model_from_dict({"worlds": ["w0"], "rel": [], "val": {"w0": {"P": "T"}}})

    def test_pointed_model_checks_world(self):
        m = load_model("fig1")
        with pytest.raises(UnknownWorldError):
            PointedModel(m, "w9")

    def test_dual_round_trips_through_json(self):
        m = load_model("fig12")
        d = dual_model(m)
        assert d.value("w0", "p") is N and d.value("w0", "q") is B
        assert model_from_dict(model_to_dict(d)) == d


def _bundled_model_data(name):
    return json.loads((Path(figures.__file__).parent / "data" / f"{name}.json").read_text())


def _four(x):
    return FourValue[x] if isinstance(x, str) else x


def _by_both_constructors(frame, values, variables):
    """The model of ``values`` (world to variable to value) from
    ``Model.from_values`` and from ``Model(frame, vplus, vminus)``."""
    letters = {w: {v: _four(x) for v, x in row.items()} for w, row in values.items()}
    vplus = {w: {v for v, x in row.items() if x.supports_truth} for w, row in letters.items()}
    vminus = {w: {v for v, x in row.items() if x.supports_falsity} for w, row in letters.items()}
    return (Model.from_values(frame, values, variables=variables),
            Model(frame, vplus, vminus, variables=variables))


def _random_values(rng, worlds, names):
    """Random values of ``names``; each value is left out with odds 1/4
    (so N) and, apart from that, s is N everywhere, sometimes explicitly."""
    values = {w: {v: rng.choice(VALUE_ORDER) for v in names if rng.random() < 0.75}
              for w in worlds}
    for w in worlds:
        if rng.random() < 0.3:
            values[w]["s"] = N
    return values


class TestModelStorage:
    """``Model(frame, vplus, vminus)`` and ``Model.from_values`` store the
    same support bitsets, and every reader of them agrees with ``value``."""

    def _models(self):
        for name in model_names():
            data = _bundled_model_data(name)
            values = data.get("val", {})
            names = {v for row in values.values() for v in row}
            yield name, frame_from_dict(data), values, names
        rng = random.Random(29)
        for k in range(150):
            worlds = [f"w{i}" for i in range(rng.randint(1, 5))]
            rel = [(a, b) for a in worlds for b in worlds if rng.random() < 0.4]
            yield k, Frame(worlds, rel), _random_values(rng, worlds, "pqr"), set("pqrs")

    def test_constructors_agree(self):
        for case, frame, values, names in self._models():
            a, b = _by_both_constructors(frame, values, names)
            assert a == b and a.variables == b.variables == names, case
            for w in frame.worlds:
                for v in names:
                    assert a.value(w, v) is _four(values.get(w, {}).get(v, N)), (case, w, v)
            if isinstance(case, str):
                assert a == load_model(case), case

    def test_atom_clause_agrees_with_value(self):
        for case, frame, values, names in self._models():
            m = Model.from_values(frame, values, variables=names)
            for v in sorted(names | {"s", "z"}):
                pos, neg = atom_clause(m, v)
                for i, w in enumerate(frame.worlds):
                    assert FourValue.from_flags(pos >> i & 1, neg >> i & 1) is m.value(w, v), \
                        (case, w, v)

    def test_dual_agrees_with_the_value_table(self):
        for case, frame, values, names in self._models():
            m = Model.from_values(frame, values, variables=names)
            expected = Model.from_values(
                frame, {w: {v: dual_value(m.value(w, v)) for v in names} for w in frame.worlds},
                variables=names)
            assert dual_model(m) == expected, case

    @pytest.mark.parametrize("vplus, vminus, values, variables, error, message", [
        ({"w9": ["p"]}, {}, {"w9": {"p": "T"}}, None,
         UnknownWorldError, "valuation uses unknown world 'w9'"),
        ({}, {"w9": ["p"]}, {"w9": {"p": "F"}}, None,
         UnknownWorldError, "valuation uses unknown world 'w9'"),
        ({"w0": ["P"]}, {}, {"w0": {"P": "T"}}, None, ModelError, "bad variable name 'P'"),
        ({}, {}, {}, ["p", "2"], ModelError, "bad variable name '2'"),
        # A bad world is reported before a bad name.
        ({"w0": ["P"]}, {"w9": ["p"]}, {"w0": {"P": "T"}, "w9": {"p": "F"}}, None,
         UnknownWorldError, "valuation uses unknown world 'w9'"),
        # A name that is not a string is refused, not matched.
        ({"w0": [1]}, {}, {"w0": {1: "T"}}, None, ModelError, "bad variable name 1"),
        ({}, {}, {}, [None], ModelError, "bad variable name None"),
        # An unhashable name is refused, not hashed.
        ({}, {}, {}, [["p"]], ModelError, "bad variable name ['p']"),
        # A string is not read as its letters, and an entry that is not a
        # collection (of names, or of values by name) is refused.
        ({"w0": "pq"}, {}, {"w0": "pq"}, None, ModelError, "bad valuation entry 'pq' for 'w0'"),
        ({}, {"w0": 5}, {"w0": 5}, None, ModelError, "bad valuation entry 5 for 'w0'"),
        ({}, {}, {}, "pq", ModelError, "bad variable list 'pq'"),
        ({}, {}, {}, 5, ModelError, "bad variable list 5"),
        # Nor is a mapping read as its keys.
        ({}, {}, {}, {"p": 1}, ModelError, "bad variable list {'p': 1}"),
    ])
    def test_constructors_raise_the_same_errors(self, vplus, vminus, values, variables,
                                                error, message):
        frame = Frame(["w0"], [])
        for build in (lambda: Model(frame, vplus, vminus, variables),
                      lambda: Model.from_values(frame, values, variables)):
            with pytest.raises(ModelError) as info:
                build()
            assert info.type is error and str(info.value) == message

    def test_a_mapping_entry_is_not_read_as_names(self):
        # Model.from_values reads {"p": "F"} as p's value; Model, which
        # takes a collection of names per world, refuses it rather than
        # read it as the name p and drop the value.
        frame = Frame(["w0"], [])
        for vplus, vminus in (({"w0": {"p": "F"}}, None), (None, {"w0": {"p": "F"}})):
            with pytest.raises(ModelError) as info:
                Model(frame, vplus, vminus)
            assert info.type is ModelError
            assert str(info.value) == "bad valuation entry {'p': 'F'} for 'w0'"
        assert Model.from_values(frame, {"w0": {"p": "F"}}).value("w0", "p") is F

    @pytest.mark.parametrize("vplus, vminus, message", [
        ({"w0": [["p"]]}, None, "bad variable name ['p']"),
        (None, {"w0": ["p", {}]}, "bad variable name {}"),
    ])
    def test_an_unhashable_name_in_a_valuation_is_refused(self, vplus, vminus, message):
        # from_values cannot take one: a name is a key of its assignment.
        with pytest.raises(ModelError) as info:
            Model(Frame(["w0"], []), vplus, vminus)
        assert info.type is ModelError and str(info.value) == message

    @pytest.mark.parametrize("letter", ["X", ["T"], 1, "t"])
    def test_a_bad_letter_is_refused_as_the_loader_refuses_it(self, letter):
        with pytest.raises(ModelError) as info:
            Model.from_values(Frame(["w0"], []), {"w0": {"p": letter}})
        assert info.type is ModelError
        assert str(info.value) == f"bad value {letter!r} for 'p' at 'w0'"
        with pytest.raises(ModelError) as loaded:
            model_from_dict({"worlds": ["w0"], "val": {"w0": {"p": letter}}})
        assert str(loaded.value) == str(info.value)

    def test_one_builder_makes_every_model_from_bitsets(self):
        # In the package, ``__new__`` is called for a ``Model`` only in
        # ``Model._of``, ``_store`` only inside ``Model``, and no code
        # calls ``Model(...)``, the decoder of per-world name sets.
        news, stores, decoded = [], [], []
        for path in sorted(Path(semantics.__file__).parent.glob("*.py")):
            stack = [(ast.parse(path.read_text()), ())]
            while stack:
                node, scope = stack.pop()
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    scope += (node.name,)
                stack += [(child, scope) for child in ast.iter_child_nodes(node)]
                if not isinstance(node, ast.Call):
                    continue
                func, site = node.func, (path.name, scope)
                if isinstance(func, ast.Name) and func.id == "Model":
                    decoded.append(site)
                elif isinstance(func, ast.Attribute) and func.attr == "_store":
                    stores.append(site)
                elif isinstance(func, ast.Attribute) and func.attr == "__new__":
                    named = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                    if "Model" in named or scope[:1] == ("Model",) and "cls" in named:
                        news.append(site)
        assert news == [("semantics.py", ("Model", "_of"))]
        assert stores and {site[1][:1] for site in stores} == {("Model",)}
        assert decoded == []
