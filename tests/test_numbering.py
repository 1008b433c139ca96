"""One numbering of a sequent's subformulas, ``syntax._number``, read by
the tableau's ``_Table`` and the bulk compiler's ``_compile``.

Its list of formulas, the table and the program are each compared with
the numbering by formula equality that ``reference_impl`` keeps
(``postorder_by_equality``, ``table_by_index`` and
``compile_by_index``): the same formulas, by identity and in order,
the same nodes up to their padding, and the same programs.  A formula
built with shared subtrees is numbered in its distinct objects, and no
two formulas are compared while a claim is numbered.
"""

import importlib
import random
from pathlib import Path

import pytest

from fdek.analysis import PAPER_FRAME_CLASSES, claims_from_text
from fdek.bulkeval import _compile
from fdek.syntax import (
    And, Atom, Formula, Not, Or, Sequent, Tri, _number, parse_formula, parse_sequent, render,
)
from fdek.tableau import _Table

from conftest import corpus, random_formula, random_modal_formula
from reference_impl import compile_by_index, postorder_by_equality, table_by_index

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def gen(monkeypatch):
    """The benchmark's input generators, ``bench/gen.py``, with the
    repository root the working directory, as the benchmark runs them."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.chdir(ROOT)
    return importlib.import_module("gen")


def ids(formulas) -> list[int]:
    return [id(f) for f in formulas]


def repeating(rng: random.Random) -> list[Formula]:
    """Roots with repeated subtrees: a random formula, an equal copy of it
    that shares no object with it, and both under new nodes, one of them
    shared with another root."""
    f = random_formula(rng, ["p", "q"], rng.randint(1, 4), 2)
    g = random_modal_formula(rng, ["p", "q", "r"], rng.randint(0, 6), 2)
    copy = parse_formula(render(f))
    shared = And(g, f)
    return [Or(f, copy), And(shared, Not(copy)), Tri(shared), g]


def oracle_claims(gen, seed: int) -> list:
    """The claims of one ``oracle`` round: its searches' sequents and the
    claims of its definability sweeps."""
    inputs = gen.oracle_inputs(seed)
    claims = [parse_sequent(x["text"]) for x in inputs["searches"]]
    for x in inputs["sweeps"]:
        claims += claims_from_text("\n".join(x["claims"]))
    return claims


class TestPostorder:
    def test_is_the_equality_walk_on_repeated_subtrees(self):
        rng = random.Random(52)
        for _ in range(300):
            roots = repeating(rng)
            for k in range(1, len(roots) + 1):
                assert ids(_number(*roots[:k])[0]) == ids(postorder_by_equality(*roots[:k])), \
                    [render(f) for f in roots[:k]]

    def test_is_the_equality_walk_on_the_deep_formulas(self, gen):
        # The benchmark's 25- to 2000-deep formulas, alone and as both
        # sides of a sequent parsed from one text, so each side is its own
        # objects but for the atoms.
        for item in gen.deep_inputs(1)["formulas"]:
            f = parse_formula(item["text"])
            s = parse_sequent(f"{item['text']} |- {item['text']}")
            assert ids(_number(f)[0]) == ids(postorder_by_equality(f)), item["depth"]
            assert ids(_number(s.premise, s.conclusion)[0]) == \
                ids(postorder_by_equality(s.premise, s.conclusion))


class TestTable:
    def test_is_the_index_numbering(self, gen):
        # The coherence corpus and the sequents of two ``prove`` rounds.
        sequents = corpus() + [parse_sequent(x["text"]) for seed in (1, 2)
                               for x in gen.prove_inputs(seed)["sequents"]]
        for s in sequents:
            table = _Table((s.premise, s.conclusion))
            formulas, nodes = table_by_index(s.premise, s.conclusion)
            assert ids(table.formulas) == ids(formulas), str(s)
            assert [(kind, max(a, 0), max(b, 0)) for kind, a, b in table.nodes] == nodes
            assert table.roots == (formulas.index(s.premise), formulas.index(s.conclusion))
            assert table.size == len(formulas)


class TestCompile:
    def test_is_the_index_compiler_on_the_corpora(self, gen):
        # The claims of criterion 3, the golden witnesses' corpus, and the
        # searches and sweeps of ``oracle`` at seeds 1 to 4.
        claims = [c for group in PAPER_FRAME_CLASSES.values() for c in group]
        claims += [parse_sequent("#p |- ##p"), parse_sequent("@p |- ##p")]
        claims += corpus()
        claims += [c for seed in (1, 2, 3, 4) for c in oracle_claims(gen, seed)]
        for claim in claims:
            assert _compile(claim) == compile_by_index(claim), claim

    def test_is_the_index_compiler_on_random_claims(self):
        # Sequents and formulas of modal depth 0 to 3, some with repeated
        # subtrees, each also over more names than its own.
        rng = random.Random(5252)
        for _ in range(300):
            names = ["p", "q", "r"][:rng.randint(1, 3)]
            premise, conclusion = (random_modal_formula(rng, names, rng.randint(0, 8),
                                                        rng.randint(0, 3)) for _ in range(2))
            roots = repeating(rng)
            for claim in (Sequent(premise, conclusion), premise,
                          Sequent(roots[0], roots[1]), roots[2]):
                assert _compile(claim) == compile_by_index(claim), claim
                wide = ("a", "p", "q", "r", "z")
                assert _compile(claim, wide) == compile_by_index(claim, wide), claim


class TestSharedSubtrees:
    def test_a_dag_is_numbered_in_its_distinct_objects(self):
        # 40 levels of #(f & f) over one f: 81 distinct nodes, 2^40
        # occurrences, so only a walk of the distinct objects ends.
        f = Atom("p")
        for _ in range(40):
            f = Tri(And(f, f))
        order = _number(f)[0]
        assert len(order) == 81 and ids(order) == ids(postorder_by_equality(f))
        program = _compile(Sequent(f, f))
        assert len(program.ops) == 81 and program.roots == (80, 80) and program.depth == 40
        assert program == compile_by_index(Sequent(f, f))
        table = _Table((f, f))
        assert table.size == 81 and ids(table.formulas) == ids(order)


def test_numbering_compares_no_formulas(monkeypatch):
    # Three equal #(p & q) and four equal p & q, each its own object: a
    # walk that deduplicates through a set of formulas compares them.
    s = parse_sequent("#(p & q) | #(p & q) |- ~#(p & q) & (p & q)")

    def refuse(self, other):
        raise AssertionError("two formulas compared")

    monkeypatch.setattr(Formula, "__eq__", refuse)
    order = _number(s.premise, s.conclusion)[0]
    program = _compile(s)
    table = _Table((s.premise, s.conclusion))
    monkeypatch.undo()
    assert [render(f) for f in order] == [
        "p", "q", "p & q", "#(p & q)", "#(p & q) | #(p & q)", "~#(p & q)",
        "~#(p & q) & (p & q)"]
    assert program.roots == (4, 6) and program.names == ("p", "q") and program.depth == 1
    assert ids(table.formulas) == ids(order)
